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
``ResilienceSpec``.  One-call form::

    from repro.engine import ExecutorSpec, build_plan, run_plan

    plan = build_plan("churn-sweep", grid={"churn_rate": [0.0, 2.0]},
                      base={"n": 32, "aggregate": "COUNT"}, trials=8)
    store = run_plan(plan, executor=ExecutorSpec.parallel(jobs=4))
    store.write("results.json")

The single-trial layer lives in :mod:`repro.engine.trials`.

:mod:`repro.engine.telemetry` makes the engine itself observable: pass
``telemetry="run.telemetry.jsonl"`` to :func:`run_plan` /
:func:`stream_plan` to record a :class:`RunManifest`, hierarchical spans
(run → dispatch → chunk → trial) and per-worker health into an
append-only stream that ``repro top`` tails live — without changing a
byte of the result document.
"""

from repro.engine.executor import (
    ParallelExecutor,
    ProgressFn,
    SerialExecutor,
    TrialExecutor,
    execute_trial,
    run_plan,
    stream_plan,
)
from repro.engine.spec import (
    EXECUTOR_PRESETS,
    ExecutorSpec,
    executor_preset,
    resolve_executor,
)
from repro.engine.plan import (
    VALUE_FUNCTIONS,
    ChurnSpec,
    ExperimentPlan,
    TrialSpec,
    build_plan,
)
from repro.engine.results import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    ResultStore,
    TrialResult,
    load_document,
    summarize_point,
    validate_document,
)
from repro.engine.telemetry import (
    DEFAULT_RUNS_DIR,
    TELEMETRY_SUFFIX,
    RunManifest,
    TelemetryRecorder,
    TelemetryTail,
    WorkerHealth,
    find_run,
    load_telemetry,
    plan_digest,
    profile_slowest,
    render_profiles,
    scan_runs,
)

__all__ = [
    "ChurnSpec",
    "DEFAULT_RUNS_DIR",
    "EXECUTOR_PRESETS",
    "ExecutorSpec",
    "ExperimentPlan",
    "ParallelExecutor",
    "ProgressFn",
    "ResultStore",
    "RunManifest",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "SerialExecutor",
    "TELEMETRY_SUFFIX",
    "TelemetryRecorder",
    "TelemetryTail",
    "TrialExecutor",
    "TrialResult",
    "TrialSpec",
    "VALUE_FUNCTIONS",
    "WorkerHealth",
    "build_plan",
    "execute_trial",
    "executor_preset",
    "find_run",
    "load_document",
    "load_telemetry",
    "plan_digest",
    "profile_slowest",
    "render_profiles",
    "resolve_executor",
    "run_plan",
    "scan_runs",
    "stream_plan",
    "summarize_point",
    "validate_document",
]
