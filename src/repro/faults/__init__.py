"""The deterministic fault-injection plane.

Dynamism is the paper's adversary; this package makes the adversary a
first-class, declarative, seeded object:

* :mod:`repro.faults.spec` — :class:`FaultSpec` / :class:`FaultPlan`,
  plain frozen data (picklable, JSON round-trippable) describing *when*
  and *how* the network misbehaves, and the named builtin plans
  (``drop-storm``, ``split-brain``, ``chaos-mix``, …).
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which compiles a
  plan into simulator events and interposes on
  :meth:`repro.sim.network.Network.send`.

The trial runners accept a plan (or preset name) through the ``faults``
config field; the CLI exposes the same through ``--fault-plan``.  See
``docs/FAULTS.md`` for the full tour.
"""
