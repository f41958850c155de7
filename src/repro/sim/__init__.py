"""Discrete-event simulation substrate for dynamic distributed systems.

The substrate provides:

* :class:`~repro.sim.scheduler.Simulator` — deterministic event loop with a
  virtual clock and seeded randomness;
* :class:`~repro.sim.node.Process` — the node runtime protocols subclass;
* :class:`~repro.sim.network.Network` — membership + neighbor-constrained
  message transport with configurable delay and loss;
* :class:`~repro.sim.trace.TraceLog` — the structured record of a run that
  the formal layer (:mod:`repro.core`) checks specifications against.
"""
