"""The stable public facade of the repro package.

Everything a downstream user — scripts, notebooks, the examples/ directory,
external reproduction harnesses — should need lives behind this one module::

    from repro.api import QueryConfig, run_query, build_plan, run_plan

The names re-exported here are the **blessed surface**: they follow the
deprecation policy documented in ``docs/API.md`` (a name is never removed
or changed incompatibly without at least one release of
``DeprecationWarning`` from a compatibility shim).  Anything imported from
deeper module paths (``repro.engine.trials``, ``repro.sim.scheduler``, …)
continues to work but is treated as internal: it may move without a shim.

The surface groups into:

* **Trials** — one config in, one checked outcome out
  (:class:`QueryConfig`/:func:`run_query` and the gossip / dissemination
  counterparts).
* **Engine** — many trials: :func:`build_plan` → executor →
  :class:`ResultStore` and its schema-versioned document
  (:func:`load_document`).  Execution is configured by the frozen,
  picklable :class:`ExecutorSpec` (backend serial/parallel, workers,
  chunking, watchdog; lossless ``repro-executor-spec`` JSON wire format,
  builtin :data:`EXECUTOR_PRESETS`, :func:`resolve_executor`) passed as
  ``executor=`` to :func:`run_plan` / :func:`stream_plan` or as
  ``--executor`` on the CLI; :class:`SerialExecutor` /
  :class:`ParallelExecutor` are the backends it materialises.
* **Observability** — :class:`Metrics` and the pluggable trace sinks
  (:class:`MemorySink`, :class:`JsonlStreamSink`, :class:`NullSink`,
  :class:`CountingSink`) selected per trial via ``trace_sink=...``, plus
  the causal analysis layer: :class:`HappensBeforeDAG` /
  :class:`InfluenceReport`, the streaming invariant checkers behind
  :class:`CheckingSink` / :func:`check_trace`, and the timeline exporters
  (:func:`write_chrome_trace`, :func:`ascii_timeline`,
  :func:`write_engine_trace` for merged engine + simulation views).
* **Engine telemetry** — the harness observing itself: pass
  ``telemetry=...`` to :func:`run_plan` / :func:`stream_plan` (or
  ``--telemetry`` on the CLI) to record a :class:`RunManifest`,
  hierarchical :class:`Span` records (run → dispatch → chunk → trial) and
  per-worker health into an append-only ``repro-run-telemetry`` stream —
  tail it live with :class:`TelemetryTail` (``repro top``), browse the
  ledger with :func:`scan_runs` / :func:`find_run`
  (``repro runs list|show``), re-profile the slowest trials with
  :func:`profile_slowest`.  Result documents are byte-identical with
  telemetry on or off.
* **Crash safety** — ``checkpoint=`` / ``resume_from=`` on
  :func:`run_plan` / :func:`stream_plan` / ``run_experiment`` journal
  every completed trial to a ``repro-run-checkpoint`` file
  (:class:`CheckpointWriter` / :func:`load_checkpoint`) so an
  interrupted sweep resumes byte-identically (``repro resume``); the
  parallel backend self-heals worker death (respawn + redispatch,
  poison-trial quarantine, :class:`WorkerPoolError` as the bounded
  backstop); the chaos injectors (:class:`SigintAfter`,
  :class:`KillWorkerAtChunk`, :class:`ENOSPCAfter`,
  :func:`tear_file_tail`) make those failures reproducible in tests.
  See ``docs/RECOVERY.md``.
* **Regression gating** — :func:`diff_files` / :func:`diff_documents`
  compare two result documents (or BENCH payloads) with per-metric
  relative thresholds; ``repro bench diff`` is the CLI face.  With
  ``bootstrap=N`` the arms' trials are paired by seed and every verdict
  carries a deterministic bootstrap confidence interval
  (:func:`bootstrap_mean_ci`, :func:`paired_seed_compare`).
* **Declarative experiments** — the ``repro-experiment`` v1 YAML format
  (:class:`ExperimentDef`, :func:`load_experiment` /
  :func:`dump_experiment`) lowers to the engine plan byte-identically to
  the equivalent ``build_plan`` call; :func:`run_experiment` executes it
  (with ``expect`` verdict checks) and :func:`refine_experiment` bisects
  solvability boundaries named by the ``refine:`` block;
  ``repro experiment run|show|validate`` is the CLI face.
* **Faults** — the deterministic fault-injection plane
  (:class:`FaultPlan` / :class:`FaultSpec`, the builtin
  :data:`FAULT_PRESETS`, and :class:`FaultInjector` for driving a raw
  simulator), selected per trial via the ``faults=...`` config field or
  ``--fault-plan`` on the CLI.
* **Resilience** — the deterministic recovery plane
  (:class:`ResilienceSpec`, the builtin :data:`RESILIENCE_PRESETS`,
  :class:`ReliableTransport` / :func:`install_resilience` for driving a
  raw simulator, and :class:`CoverageReport` for graceful degradation),
  selected per trial via the ``resilience=...`` config field or
  ``--resilience`` on the CLI.
* **Model** — the paper's formal layer (system classes, runs, the
  one-time-query specification) plus the simulator, topology, churn and
  protocol building blocks the examples exercise.
"""

from __future__ import annotations

# --- Trials: one scenario in, one checked outcome out -------------------
from repro.engine.trials import (
    LARGE_TRIAL_THRESHOLD,
    DisseminationConfig,
    DisseminationOutcome,
    GossipConfig,
    GossipOutcome,
    QueryConfig,
    QueryOutcome,
    build_population,
    reachable_now,
    run_dissemination,
    run_gossip,
    run_query,
)

# --- Engine: plan → executor → result store -----------------------------
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
    ExperimentPlan,
    TrialSpec,
    build_plan,
)
from repro.engine.results import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    ResultStore,
    StreamingResultStore,
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
    run_status,
    scan_runs,
)

# --- Crash safety: checkpoint/resume, self-healing pool, chaos -----------
from repro.engine.recovery.chaos import (
    ChaosInterrupt,
    ENOSPCAfter,
    KillWorkerAtChunk,
    SigintAfter,
    tear_file_tail,
)
from repro.engine.recovery.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointState,
    CheckpointWriter,
    load_checkpoint,
)
from repro.engine.recovery.healing import WorkerPoolError

# --- Observability: metrics, sinks, causality, checking, export ---------
from repro.obs.codec import SchemaVersionError
from repro.obs.metrics import Counter, Gauge, Histogram, Metrics
from repro.obs.sinks import (
    SINK_NAMES,
    TRANSPORT_KINDS,
    CountingSink,
    JsonlStreamSink,
    MemorySink,
    NullSink,
    TraceSink,
    make_sink,
)
from repro.obs.causal import HappensBeforeDAG, InfluenceReport, owners_of
from repro.obs.check import (
    CheckingSink,
    InvariantChecker,
    Violation,
    check_trace,
    default_checkers,
)
from repro.obs.export import (
    ascii_timeline,
    merge_engine_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_engine_trace,
)
from repro.obs.spans import (
    SPAN_KINDS,
    TELEMETRY_SCHEMA,
    TELEMETRY_VERSION,
    Span,
    SpanTracer,
    read_telemetry,
    span_tree,
)

# --- Regression gating: compare result documents ------------------------
from repro.analysis.diff import (
    BENCH_THRESHOLDS,
    DOCUMENT_THRESHOLDS,
    BenchDiff,
    MetricDiff,
    diff_documents,
    diff_files,
)
from repro.analysis.stats import (
    BOOTSTRAP_METHODS,
    BootstrapCI,
    PairedComparison,
    bootstrap_mean_ci,
    paired_differences,
    paired_seed_compare,
)
from repro.version import package_version

# --- Declarative experiments: YAML in, canonical plans out ---------------
from repro.experiments.loader import (
    dump_experiment,
    experiment_digest,
    experiment_plan_digest,
    load_experiment,
    loads_experiment,
    save_experiment,
)
from repro.experiments.runner import (
    ExperimentRun,
    VerdictCheck,
    refine_experiment,
    run_experiment,
)
from repro.experiments.schema import (
    EXPERIMENT_SCHEMA,
    EXPERIMENT_VERSION,
    ExpectSpec,
    ExperimentDef,
    RefineSpec,
)

# --- Faults: the deterministic fault-injection plane ---------------------
from repro.faults.injector import FaultInjector, install_plan
from repro.faults.spec import (
    FAULT_KINDS,
    FAULT_PRESETS,
    FaultPlan,
    FaultSpec,
    fault_preset,
    resolve_faults,
)

# --- Resilience: the deterministic recovery plane ------------------------
from repro.resilience.degradation import CoverageReport
from repro.resilience.spec import (
    RESILIENCE_PRESETS,
    ResilienceSpec,
    backoff_schedule,
    resilience_preset,
    resolve_resilience,
)
from repro.resilience.transport import ReliableTransport, install_resilience

# --- Churn: declarative specs, generative models, adversaries -----------
from repro.churn.spec import ChurnSpec, resolve_churn
from repro.churn.adversary import defeat_ttl
from repro.churn.lifetimes import ExponentialLifetime, ParetoLifetime
from repro.churn.models import (
    ArrivalDepartureChurn,
    FiniteArrivalChurn,
    PhasedChurn,
    ReplacementChurn,
)
from repro.churn.traces import (
    TraceReplayChurn,
    synthetic_sessions,
    trace_statistics,
)

# --- The formal model: classes, runs, specifications --------------------
from repro.core.aggregates import (
    AGGREGATES,
    AVG,
    COUNT,
    MAX,
    MIN,
    SET,
    SUM,
    Aggregate,
)
from repro.core.arrival import (
    FiniteArrival,
    InfiniteArrivalBounded,
    InfiniteArrivalFinite,
    InfiniteArrivalUnbounded,
    StaticArrival,
)
from repro.core.classes import SystemClass, standard_lattice
from repro.core.dissemination_spec import DisseminationSpec
from repro.core.geography import complete, known_diameter, known_size, local
from repro.core.runs import Run
from repro.core.solvability import (
    Solvable,
    one_time_query_solvability,
    solvability_matrix,
)
from repro.core.spec import OneTimeQuerySpec, extract_queries

# --- Simulator, topology, protocols, failure detection ------------------
from repro.sim.latency import (
    BernoulliLoss,
    ConstantDelay,
    ExponentialDelay,
    UniformDelay,
)
from repro.sim.rng import SeedSequence
from repro.sim.scheduler import Simulator
from repro.sim.trace import TraceLog
from repro.topology import generators
from repro.topology.attachment import UniformAttachment
from repro.topology.generators import ring
from repro.topology.graph import Topology
from repro.protocols.dissemination import AntiEntropyNode, FloodNode
from repro.protocols.gossip import PushSumNode
from repro.protocols.one_time_query import WaveNode
from repro.protocols.request_collect import RequestCollectNode
from repro.protocols.tree_aggregation import TreeAggregationNode
from repro.failure.detector import (
    HeartbeatNode,
    false_suspicions,
    mistake_recovery_count,
)
from repro.synchronous.flooding import KnowledgeFlood
from repro.synchronous.runner import SynchronousSystem, build_from_topology

# --- Analysis & presets -------------------------------------------------
from repro.analysis.ascii_plot import sparkline
from repro.analysis.metrics import message_cost, relative_error
from repro.analysis.tables import render_matrix, render_table
from repro.bench.scenarios import SCENARIOS, make_scenario
from repro.bench.sweep import SweepPoint, sweep, sweep_table

__all__ = [
    # trials
    "DisseminationConfig",
    "DisseminationOutcome",
    "GossipConfig",
    "GossipOutcome",
    "QueryConfig",
    "QueryOutcome",
    "build_population",
    "reachable_now",
    "run_dissemination",
    "run_gossip",
    "run_query",
    # engine
    "EXECUTOR_PRESETS",
    "ExecutorSpec",
    "ExperimentPlan",
    "LARGE_TRIAL_THRESHOLD",
    "ParallelExecutor",
    "ProgressFn",
    "ResultStore",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SerialExecutor",
    "StreamingResultStore",
    "TrialExecutor",
    "TrialResult",
    "TrialSpec",
    "VALUE_FUNCTIONS",
    "build_plan",
    "execute_trial",
    "executor_preset",
    "load_document",
    "resolve_executor",
    "run_plan",
    "stream_plan",
    "summarize_point",
    "validate_document",
    # engine telemetry
    "DEFAULT_RUNS_DIR",
    "RunManifest",
    "SPAN_KINDS",
    "Span",
    "SpanTracer",
    "TELEMETRY_SCHEMA",
    "TELEMETRY_SUFFIX",
    "TELEMETRY_VERSION",
    "TelemetryRecorder",
    "TelemetryTail",
    "WorkerHealth",
    "find_run",
    "load_telemetry",
    "plan_digest",
    "profile_slowest",
    "read_telemetry",
    "render_profiles",
    "run_status",
    "scan_runs",
    "span_tree",
    # crash safety: checkpoint/resume, self-healing pool, chaos
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "ChaosInterrupt",
    "CheckpointError",
    "CheckpointState",
    "CheckpointWriter",
    "ENOSPCAfter",
    "KillWorkerAtChunk",
    "SigintAfter",
    "WorkerPoolError",
    "load_checkpoint",
    "tear_file_tail",
    # observability
    "CheckingSink",
    "Counter",
    "CountingSink",
    "Gauge",
    "HappensBeforeDAG",
    "Histogram",
    "InfluenceReport",
    "InvariantChecker",
    "JsonlStreamSink",
    "MemorySink",
    "Metrics",
    "NullSink",
    "SINK_NAMES",
    "TRANSPORT_KINDS",
    "TraceSink",
    "Violation",
    "ascii_timeline",
    "check_trace",
    "default_checkers",
    "make_sink",
    "merge_engine_trace",
    "owners_of",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_engine_trace",
    # regression gating & provenance
    "BENCH_THRESHOLDS",
    "BOOTSTRAP_METHODS",
    "BenchDiff",
    "BootstrapCI",
    "DOCUMENT_THRESHOLDS",
    "MetricDiff",
    "PairedComparison",
    "SchemaVersionError",
    "bootstrap_mean_ci",
    "diff_documents",
    "diff_files",
    "package_version",
    "paired_differences",
    "paired_seed_compare",
    # declarative experiments
    "EXPERIMENT_SCHEMA",
    "EXPERIMENT_VERSION",
    "ExpectSpec",
    "ExperimentDef",
    "ExperimentRun",
    "RefineSpec",
    "VerdictCheck",
    "dump_experiment",
    "experiment_digest",
    "experiment_plan_digest",
    "load_experiment",
    "loads_experiment",
    "refine_experiment",
    "run_experiment",
    "save_experiment",
    # faults
    "FAULT_KINDS",
    "FAULT_PRESETS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "fault_preset",
    "install_plan",
    "resolve_faults",
    # resilience
    "CoverageReport",
    "RESILIENCE_PRESETS",
    "ReliableTransport",
    "ResilienceSpec",
    "backoff_schedule",
    "install_resilience",
    "resilience_preset",
    "resolve_resilience",
    # churn
    "ArrivalDepartureChurn",
    "ChurnSpec",
    "ExponentialLifetime",
    "FiniteArrivalChurn",
    "ParetoLifetime",
    "PhasedChurn",
    "ReplacementChurn",
    "TraceReplayChurn",
    "defeat_ttl",
    "resolve_churn",
    "synthetic_sessions",
    "trace_statistics",
    # formal model
    "AGGREGATES",
    "AVG",
    "Aggregate",
    "COUNT",
    "DisseminationSpec",
    "FiniteArrival",
    "InfiniteArrivalBounded",
    "InfiniteArrivalFinite",
    "InfiniteArrivalUnbounded",
    "MAX",
    "MIN",
    "OneTimeQuerySpec",
    "Run",
    "SET",
    "SUM",
    "Solvable",
    "StaticArrival",
    "SystemClass",
    "complete",
    "extract_queries",
    "known_diameter",
    "known_size",
    "local",
    "one_time_query_solvability",
    "solvability_matrix",
    "standard_lattice",
    # simulator / topology / protocols
    "AntiEntropyNode",
    "BernoulliLoss",
    "ConstantDelay",
    "ExponentialDelay",
    "FloodNode",
    "HeartbeatNode",
    "KnowledgeFlood",
    "PushSumNode",
    "RequestCollectNode",
    "SeedSequence",
    "Simulator",
    "SynchronousSystem",
    "Topology",
    "TraceLog",
    "TreeAggregationNode",
    "UniformAttachment",
    "UniformDelay",
    "WaveNode",
    "build_from_topology",
    "false_suspicions",
    "generators",
    "mistake_recovery_count",
    "ring",
    # analysis & presets
    "SCENARIOS",
    "SweepPoint",
    "make_scenario",
    "message_cost",
    "relative_error",
    "render_matrix",
    "render_table",
    "sparkline",
    "sweep",
    "sweep_table",
]
