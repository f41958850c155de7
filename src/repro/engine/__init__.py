"""The layered experiment engine: plan → executor → results.

Three explicit layers replace the old "call ``run_query`` in a loop"
pattern:

* :mod:`repro.engine.plan` — :func:`build_plan` expands a parameter grid
  into an immutable :class:`ExperimentPlan` of picklable
  :class:`TrialSpec`s with deterministically fanned-out seeds;
* :mod:`repro.engine.executor` — :class:`SerialExecutor` and the
  ``ProcessPoolExecutor``-backed :class:`ParallelExecutor` run the specs
  (``--jobs N`` on the CLI) and return results in plan order;
* :mod:`repro.engine.results` — :class:`ResultStore` aggregates
  :class:`TrialResult`s into a schema-versioned, canonical JSON document
  consumed by ``repro.analysis`` and the benchmark emitters.

Execution is configured by the frozen, picklable
:class:`~repro.engine.spec.ExecutorSpec` (backend, workers, chunking,
watchdog) — the same declarative idiom as ``FaultPlan`` and
``ResilienceSpec``.  The one-call form (``build_plan`` → ``run_plan``) is
in the package docstring of :mod:`repro`; import the names from
:mod:`repro.api`.

The single-trial layer lives in :mod:`repro.engine.trials`.

:mod:`repro.engine.telemetry` makes the engine itself observable: pass
``telemetry="run.telemetry.jsonl"`` to :func:`run_plan` /
:func:`stream_plan` to record a :class:`RunManifest`, hierarchical spans
(run → dispatch → chunk → trial) and per-worker health into an
append-only stream that ``repro top`` tails live — without changing a
byte of the result document.
"""
