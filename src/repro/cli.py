"""Command-line interface.

Run experiments without writing a script::

    python -m repro query  --n 32 --topology er --aggregate SUM
    python -m repro query  --n 32 --churn-rate 2.0 --trials 5
    python -m repro gossip --n 24 --mode count --rounds 60
    python -m repro matrix
    python -m repro describe --arrival inf-bounded --knowledge local
    python -m repro sweep --rates 0,0.5,2,8 --trials 8 --jobs 4

The experiment commands — ``query``, ``gossip`` and ``sweep`` — share one
flag vocabulary and all run through the layered experiment engine
(:mod:`repro.engine`):

* ``--executor SPEC`` selects the execution policy: a builtin
  :class:`ExecutorSpec` preset name (list them with ``repro executor``)
  or a path to an executor-spec JSON file.  Results are independent of
  the executor — parallelism and chunking change wall-clock time, never
  verdicts.
* ``--jobs N`` fans trials out over the warm worker pool (shorthand for
  an ad-hoc parallel spec); ``--chunk N`` pins the trials-per-task batch
  size (default: adaptive, sized from a calibration trial).
* ``--output FILE`` writes the schema-versioned result document.
* ``--progress`` prints live ``done/total`` progress with an ETA derived
  from the per-trial wall times observed so far.
* ``--telemetry [PATH]`` records the run's ``repro-run-telemetry`` stream
  (manifest, hierarchical spans, worker health) — the run ledger behind
  ``repro top``, ``repro runs list|show`` and
  ``repro trace export --engine``; result documents are byte-identical
  with telemetry on or off.
* ``--profile-trials K`` cProfiles the K slowest trials by deterministic
  re-execution after the run.
* ``--trace-sink {memory,jsonl,null,counts}`` selects the transport-event
  sink (``jsonl`` needs ``--trace-dir``); verdicts and documents are
  identical under every sink.
* ``--check-invariants`` runs the streaming trace invariant checkers
  (:mod:`repro.obs.check`) inside every trial.
* ``--fault-plan PLAN`` injects a deterministic fault schedule
  (:mod:`repro.faults`) into every trial: a builtin preset name (list them
  with ``repro faults``) or a path to a fault-plan JSON file.
* ``--resilience SPEC`` installs the deterministic recovery layer
  (:mod:`repro.resilience`) in every trial: a builtin preset name (list
  them with ``repro resilience``) or a path to a resilience-spec JSON file.
* ``--watchdog SECONDS`` guards every trial with a wall-clock timeout
  (``--trial-retries N`` re-runs an overrunning trial before quarantining
  it; quarantined trials appear in the ``--progress`` status counts).

Saved ``.jsonl`` traces and telemetry streams feed the analysis commands::

    python -m repro trace analyze trial.jsonl        # causal influence
    python -m repro trace check   trial.jsonl        # invariant audit
    python -m repro trace export  trial.jsonl --format chrome -o t.json
    python -m repro top run.telemetry.jsonl          # live sweep view
    python -m repro runs list                        # the run ledger
    python -m repro trace export --engine run.telemetry.jsonl \
        trial.jsonl --format chrome -o merged.json   # engine + sim view
    python -m repro bench diff BASELINE.json candidate.json --fail-on-regression
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.version import package_version

# Nothing else of ``repro`` is imported up here: each command imports what it
# runs inside its own functions (pinned by ``tests/test_import_graph.py``).
if TYPE_CHECKING:
    from repro.engine.plan import ExperimentPlan
    from repro.engine.results import ResultStore
    from repro.engine.spec import ExecutorSpec
    from repro.engine.telemetry import TelemetryRecorder, TelemetryTail
    from repro.wire import WireSpec


# ----------------------------------------------------------------------
# Shared engine flags (query / gossip / sweep)
# ----------------------------------------------------------------------


def _engine_flags(parser: argparse.ArgumentParser, trials_default: int) -> None:
    """Add the flag vocabulary every engine-backed command shares."""
    from repro.obs.sinks import SINK_NAMES

    group = parser.add_argument_group("engine")
    group.add_argument("--seed", type=int, default=2007,
                       help="root seed; trial seeds are fanned out "
                       "deterministically")
    group.add_argument("--trials", type=int, default=trials_default,
                       help="trials per grid point")
    group.add_argument("--executor", default=None, metavar="SPEC",
                       help="execution policy: a builtin ExecutorSpec "
                       "preset name (see 'repro executor') or a path to "
                       "an executor-spec JSON file; results are identical "
                       "under every executor")
    group.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial; results are "
                       "identical either way)")
    group.add_argument("--chunk", type=int, default=None, metavar="N",
                       help="trials per dispatched task for the parallel "
                       "backend (default: adaptive, ~250 ms of work per "
                       "task; results are identical at every chunk size)")
    group.add_argument("--output", default=None,
                       help="write the engine's result document to this "
                       "file; a .jsonl suffix streams each trial as it "
                       "finishes (memory-flat, same document on load)")
    group.add_argument("--progress", action="store_true",
                       help="print live done/total progress with an ETA")
    group.add_argument("--telemetry", nargs="?", const="auto", default=None,
                       metavar="PATH",
                       help="record the run's telemetry stream "
                       "(repro-run-telemetry v1): manifest, hierarchical "
                       "spans, per-worker health; tail it live with "
                       "'repro top'. With PATH omitted the stream lands "
                       "beside --output, else under .repro/runs/. Result "
                       "documents are byte-identical with telemetry on "
                       "or off")
    group.add_argument("--checkpoint", nargs="?", const="auto", default=None,
                       metavar="PATH",
                       help="journal every completed trial to a crash-safe "
                       "repro-run-checkpoint file; re-running the same "
                       "command resumes it, re-executing only the missing "
                       "trials (byte-identical document). With PATH "
                       "omitted the journal lands beside --output, else "
                       "under .repro/runs/ keyed by the plan digest")
    group.add_argument("--resumed-from", dest="resumed_from", default=None,
                       help=argparse.SUPPRESS)
    group.add_argument("--profile-trials", dest="profile_trials", type=int,
                       default=None, metavar="K",
                       help="after the run, cProfile the K slowest trials "
                       "by deterministic re-execution; with --telemetry "
                       "the hottest functions are embedded in the summary "
                       "record")
    group.add_argument("--trace-sink", dest="trace_sink", default=None,
                       choices=list(SINK_NAMES),
                       help="transport-event sink (documents are identical "
                       "under every sink; default: null — a trial retains "
                       "what its checker reads; ask for memory or jsonl to "
                       "read send/deliver events)")
    group.add_argument("--trace-dir", dest="trace_dir", default=None,
                       help="directory for per-trial .jsonl event streams "
                       "(required by --trace-sink jsonl)")
    group.add_argument("--check-invariants", dest="check_invariants",
                       action="store_true",
                       help="verify the trace invariants online; violations "
                       "are counted under check.violations in the metrics")
    group.add_argument("--fault-plan", dest="fault_plan", default=None,
                       metavar="PLAN",
                       help="inject a deterministic fault schedule: a "
                       "builtin preset name (see 'repro faults') or a path "
                       "to a fault-plan JSON file")
    group.add_argument("--resilience", default=None, metavar="SPEC",
                       help="install the deterministic recovery layer: a "
                       "builtin preset name (see 'repro resilience') or a "
                       "path to a resilience-spec JSON file")
    group.add_argument("--watchdog", type=float, default=None,
                       metavar="SECONDS",
                       help="per-trial wall-clock timeout; overrunning "
                       "trials are retried then quarantined")
    group.add_argument("--trial-retries", dest="trial_retries", type=int,
                       default=0, metavar="N",
                       help="watchdog retries per trial before quarantine "
                       "(only meaningful with --watchdog)")


class _ProgressPrinter:
    """Live ``done/total`` progress with an ETA from per-trial wall times.

    Invoked by the executor once per trial, in plan order; the ETA divides
    the mean observed trial wall time by the worker count, so it stays
    meaningful under ``--jobs N``.  The final line reports per-status
    counts: ``ok`` (spec satisfied), ``failed`` (terminated but spec
    violated), ``skipped`` (never reached a verdict — e.g. the query never
    returned) and — only when the ``--watchdog`` guard tripped —
    ``quarantined`` (every watchdog attempt overran the wall-clock budget).
    Chunked backends additionally report task batches via
    :meth:`chunk_update`; the summary then carries ``N/M chunks``
    (completed/dispatched) alongside the trial counts.
    """

    def __init__(self, jobs: int = 1, stream: Any = None) -> None:
        self.jobs = max(1, jobs)
        self.stream = stream if stream is not None else sys.stderr
        self._walls: list[float] = []
        self.ok = 0
        self.failed = 0
        self.skipped = 0
        self.quarantined = 0
        self.chunks_dispatched = 0
        self.chunks_completed = 0

    def chunk_update(self, dispatched: int, completed: int) -> None:
        """Executor hook: latest task-batch counters (chunked dispatch)."""
        self.chunks_dispatched = dispatched
        self.chunks_completed = completed

    def _classify(self, result: Any) -> None:
        if getattr(result, "status", "") == "quarantined":
            self.quarantined += 1
        elif not getattr(result, "terminated", True):
            self.skipped += 1
        elif getattr(result, "ok", False):
            self.ok += 1
        else:
            self.failed += 1

    def summary(self) -> str:
        line = f"{self.ok} ok, {self.failed} failed, {self.skipped} skipped"
        if self.quarantined:
            line += f", {self.quarantined} quarantined"
        if self.chunks_dispatched:
            line += (f" ({self.chunks_completed}/{self.chunks_dispatched} "
                     "chunks)")
        return line

    def __call__(self, done: int, total: int, result: Any) -> None:
        self._walls.append(float(getattr(result, "wall_time", 0.0)))
        self._classify(result)
        mean_wall = sum(self._walls) / len(self._walls)
        eta = mean_wall * (total - done) / self.jobs
        if done == total:
            line = f"[{done}/{total}] trials done: {self.summary()}"
        else:
            line = f"[{done}/{total}] trials done, eta {eta:.1f}s"
        if self.stream.isatty():
            end = "\n" if done == total else "\r"
            self.stream.write("\r" + line + end)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()


def _beside_output(output: str, suffix: str) -> str:
    """Where a bare ``--telemetry`` / ``--checkpoint`` anchors its file:
    ``results.json`` or ``results.jsonl`` → ``results<suffix>``."""
    for extension in (".jsonl", ".json"):
        if output.endswith(extension):
            output = output[: -len(extension)]
            break
    return output + suffix


def _telemetry_recorder(args: argparse.Namespace) -> "TelemetryRecorder | None":
    """Build the run's :class:`TelemetryRecorder` from ``--telemetry``.

    The sentinel ``"auto"`` (bare ``--telemetry``) anchors the stream
    beside ``--output`` when one was given (``results.json`` →
    ``results.telemetry.jsonl``), else files it under the default ledger
    directory ``.repro/runs/``.  The manifest's ``cli`` block carries the
    ``repro --version`` banner and the invoking argv.
    """
    value = getattr(args, "telemetry", None)
    if value is None:
        return None
    from repro.engine.telemetry import TELEMETRY_SUFFIX, TelemetryRecorder

    cli_info = {
        "version": f"repro {package_version()}",
        "argv": list(getattr(args, "_argv", sys.argv[1:])),
    }
    if value == "auto":
        value = (_beside_output(args.output, TELEMETRY_SUFFIX)
                 if args.output else None)
    return TelemetryRecorder(path=value, cli=cli_info,
                             resumed_from=getattr(args, "resumed_from", None))


def _checkpoint_path(args: argparse.Namespace,
                     plan: ExperimentPlan) -> str | None:
    """Resolve ``--checkpoint`` to a journal path.

    The sentinel ``"auto"`` (bare ``--checkpoint``) anchors the journal
    beside ``--output`` when one was given (``results.json`` →
    ``results.checkpoint.jsonl``); otherwise it is keyed by the plan
    digest under the ledger directory, so the *same command re-run* finds
    the same journal and resumes it — no path bookkeeping required.
    """
    value = getattr(args, "checkpoint", None)
    if value != "auto":
        return value
    if args.output:
        return _beside_output(args.output, ".checkpoint.jsonl")
    from repro.engine.telemetry import DEFAULT_RUNS_DIR, plan_digest

    return os.path.join(DEFAULT_RUNS_DIR,
                        f"checkpoint-{plan_digest(plan)}.jsonl")


def _spec_flag(flag: str, value: str, family: type[WireSpec]) -> Any:
    """Turn a ``--fault-plan`` / ``--resilience`` / ``--executor`` argument
    into a ``family`` spec, or a validated preset name.

    A path to an existing ``.json`` file is loaded through
    ``family.from_json``; anything else must be a builtin preset name,
    which is validated here (fail at the flag, not inside a pool worker)
    but returned as the string so it labels the plan readably.
    """
    from repro.sim.errors import ConfigurationError

    if value.endswith(".json") or os.path.sep in value:
        try:
            with open(value, "r", encoding="utf-8") as handle:
                return family.from_json(handle.read())
        except OSError as error:
            raise SystemExit(f"{flag}: cannot read {value!r}: {error}")
        except (ValueError, ConfigurationError) as error:
            raise SystemExit(f"{flag}: {value!r}: {error}")
    try:
        family.preset(value)
    except ConfigurationError as error:
        raise SystemExit(f"{flag}: {error}")
    return value


def _resolve_executor_flag(args: argparse.Namespace) -> ExecutorSpec:
    """Turn the executor flags into one :class:`ExecutorSpec`.

    ``--executor`` (a builtin preset name or a path to an executor-spec
    JSON file) is the blessed form and excludes the ad-hoc flags;
    without it, ``--jobs``/``--chunk``/``--watchdog``/``--trial-retries``
    assemble an anonymous spec (``--jobs 1``, or no ``--jobs`` at all,
    stays serial).
    """
    from repro.engine.spec import ExecutorSpec
    from repro.sim.errors import ConfigurationError

    value = getattr(args, "executor", None)
    if value is not None:
        adhoc = []
        if getattr(args, "jobs", None) not in (None, 1):
            adhoc.append("--jobs")
        if getattr(args, "chunk", None) is not None:
            adhoc.append("--chunk")
        if getattr(args, "watchdog", None) is not None:
            adhoc.append("--watchdog")
        if getattr(args, "trial_retries", 0):
            adhoc.append("--trial-retries")
        if adhoc:
            raise SystemExit(
                f"--executor replaces {', '.join(adhoc)}; give one or the "
                "other"
            )
        return ExecutorSpec.resolve(_spec_flag("--executor", value, ExecutorSpec))
    jobs = getattr(args, "jobs", 1)
    try:
        if jobs is None or jobs <= 1:
            return ExecutorSpec.serial(
                watchdog=getattr(args, "watchdog", None),
                trial_retries=getattr(args, "trial_retries", 0),
            )
        return ExecutorSpec.parallel(
            jobs=jobs,
            chunk=getattr(args, "chunk", None),
            watchdog=getattr(args, "watchdog", None),
            trial_retries=getattr(args, "trial_retries", 0),
        )
    except ConfigurationError as error:
        raise SystemExit(str(error))


def _apply_sink_flags(args: argparse.Namespace, name: str,
                      base: dict[str, Any]) -> dict[str, Any]:
    """Fold ``--trace-sink`` / ``--trace-dir`` / ``--fault-plan`` into the
    plan's base config."""
    from repro.faults.spec import FaultPlan
    from repro.resilience.spec import ResilienceSpec

    base = dict(base)
    if args.trace_sink is not None:
        base["trace_sink"] = args.trace_sink
    if args.check_invariants:
        base["check_invariants"] = True
    if getattr(args, "fault_plan", None):
        base["faults"] = _spec_flag("--fault-plan", args.fault_plan, FaultPlan)
    if getattr(args, "resilience", None):
        base["resilience"] = _spec_flag("--resilience", args.resilience,
                                        ResilienceSpec)
    if args.trace_sink == "jsonl":
        if not args.trace_dir:
            raise SystemExit("--trace-sink jsonl requires --trace-dir")
        os.makedirs(args.trace_dir, exist_ok=True)
        # {index}/{seed} are formatted per trial by TrialSpec.to_config.
        base["trace_path"] = os.path.join(
            args.trace_dir, f"{name}-trial{{index}}-seed{{seed}}.jsonl"
        )
    elif args.trace_dir:
        raise SystemExit("--trace-dir only applies with --trace-sink jsonl")
    return base


def _engine_run(
    args: argparse.Namespace,
    name: str,
    kind: str,
    base: Mapping[str, Any],
    grid: Mapping[str, Sequence[Any]] | None = None,
) -> tuple[ExperimentPlan, ResultStore, "TelemetryRecorder | None"]:
    """The shared plan → execute path of the engine commands."""
    from repro.engine.executor import run_plan, stream_plan
    from repro.engine.plan import build_plan
    from repro.engine.results import ResultStore

    plan = build_plan(
        name, kind=kind, grid=grid,
        base=_apply_sink_flags(args, name, dict(base)),
        trials=args.trials, root_seed=args.seed,
    )

    spec = _resolve_executor_flag(args)
    progress = (
        _ProgressPrinter(jobs=spec.effective_jobs()) if args.progress else None
    )
    recorder = _telemetry_recorder(args)
    checkpoint = _checkpoint_path(args, plan)
    try:
        if args.output and args.output.endswith(".jsonl"):
            # Stream each trial to the output file the moment it finishes —
            # peak memory during execution is one window of in-flight
            # trials, not the whole plan.  The store is reloaded from the
            # stream only to render the summary tables below.
            stream_plan(plan, args.output, executor=spec,
                        progress=progress, telemetry=recorder,
                        checkpoint=checkpoint)
            store = ResultStore.load(args.output)
        else:
            store = run_plan(plan, executor=spec, progress=progress,
                             telemetry=recorder, checkpoint=checkpoint)
    except BaseException:
        if recorder is not None:
            # Close the stream without a summary: the ledger reports the
            # run as interrupted, and `repro resume` can finish it.
            recorder.abort()
        if checkpoint is not None and isinstance(
            sys.exc_info()[1], KeyboardInterrupt
        ):
            print(f"checkpoint journal kept at {checkpoint}; re-run the "
                  "same command (or `repro resume`) to finish the sweep",
                  file=sys.stderr)
        raise
    return plan, store, recorder


def _engine_finish(
    args: argparse.Namespace,
    plan: ExperimentPlan,
    store: ResultStore,
    recorder: "TelemetryRecorder | None" = None,
) -> None:
    """Post-table chores shared by the engine commands: output, profiling,
    telemetry close-out."""
    if args.output:
        if args.output.endswith(".jsonl"):
            # Already streamed during execution by _engine_run.
            print(f"result stream written to {args.output}")
        else:
            store.write(args.output)
            print(f"result document written to {args.output}")
    profile_k = getattr(args, "profile_trials", None)
    if profile_k:
        # Deterministic re-execution: profiling the K slowest trials
        # after the fact reproduces their work exactly without having
        # perturbed the recorded run.
        from repro.engine.telemetry import profile_slowest, render_profiles

        profiles = profile_slowest(plan.specs, store.results, k=profile_k)
        if recorder is not None:
            recorder.record_profiles(profiles)
        print(render_profiles(profiles))
    if recorder is not None:
        recorder.close()
        if args.progress:
            print(f"run {recorder.run_id} · telemetry {recorder.path}",
                  file=sys.stderr)
        else:
            print(f"telemetry written to {recorder.path} "
                  f"(run {recorder.run_id})")


# ----------------------------------------------------------------------
# Parser: one ``_configure_*`` per command, run only for the one invoked
# ----------------------------------------------------------------------


def _configure_query(query: argparse.ArgumentParser) -> None:
    _engine_flags(query, trials_default=1)
    query.add_argument("--n", type=int, default=32)
    query.add_argument("--topology", default="er")
    query.add_argument("--protocol", default="wave",
                       choices=["wave", "request_collect"])
    query.add_argument("--aggregate", default="COUNT")
    query.add_argument("--ttl", type=int, default=None,
                       help="wave hop budget; omit for echo mode")
    query.add_argument("--deadline", type=float, default=None)
    query.add_argument("--churn-rate", type=float, default=0.0,
                       help="replacement churn rate (0 = static)")
    query.add_argument("--horizon", type=float, default=300.0)


def _configure_gossip(gossip: argparse.ArgumentParser) -> None:
    _engine_flags(gossip, trials_default=1)
    gossip.add_argument("--n", type=int, default=32)
    gossip.add_argument("--topology", default="er")
    gossip.add_argument("--mode", default="avg", choices=["avg", "count"])
    gossip.add_argument("--rounds", type=int, default=50)
    gossip.add_argument("--churn-rate", type=float, default=0.0)


def _configure_describe(describe: argparse.ArgumentParser) -> None:
    arrivals, knowledge = _class_tables()
    describe.add_argument("--arrival", required=True, choices=sorted(arrivals))
    describe.add_argument("--knowledge", required=True, choices=sorted(knowledge))
    describe.add_argument("--n", type=int, default=16)
    describe.add_argument("--diameter", type=int, default=8)
    describe.add_argument("--size-bound", type=int, default=64)


def _configure_report(report: argparse.ArgumentParser) -> None:
    report.add_argument("--n", type=int, default=24)
    report.add_argument("--trials", type=int, default=3)
    report.add_argument("--seed", type=int, default=2007)
    report.add_argument("--output", default=None,
                        help="write to this file instead of stdout")


def _configure_disseminate(disseminate: argparse.ArgumentParser) -> None:
    disseminate.add_argument("--n", type=int, default=24)
    disseminate.add_argument("--protocol", default="anti-entropy",
                             choices=["flood", "anti-entropy"])
    disseminate.add_argument("--churn-rate", type=float, default=1.0)
    disseminate.add_argument("--audit-at", type=float, default=80.0)
    disseminate.add_argument("--seed", type=int, default=2007)


def _configure_scenario(scenario: argparse.ArgumentParser) -> None:
    from repro.bench.scenarios import SCENARIOS

    scenario.add_argument("name", choices=sorted(SCENARIOS))
    scenario.add_argument("--seed", type=int, default=2007)
    scenario.add_argument("--trials", type=int, default=1)


def _configure_sweep(sweep_cmd: argparse.ArgumentParser) -> None:
    _engine_flags(sweep_cmd, trials_default=5)
    sweep_cmd.add_argument("--rates", default="0,0.5,2.0,8.0",
                           help="comma-separated replacement churn rates")
    sweep_cmd.add_argument("--n", type=int, default=32)
    sweep_cmd.add_argument("--topology", default="er")


def _configure_presets(wire: str, flag: str,
                       parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--show", default=None, metavar="NAME",
                        help=f"print one preset as {wire} JSON (editable, "
                        f"reloadable via {flag} FILE)")


def _runs_dir_flag(parser: argparse.ArgumentParser, purpose: str) -> None:
    from repro.engine.telemetry import DEFAULT_RUNS_DIR

    parser.add_argument("--dir", dest="runs_dir", default=None,
                        help=f"ledger directory {purpose} "
                        f"(default: {DEFAULT_RUNS_DIR})")


def _configure_top(top: argparse.ArgumentParser) -> None:
    top.add_argument("target",
                     help="telemetry .jsonl path, or a run-id prefix "
                     "looked up in the ledger directory")
    top.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="refresh period while the run is live")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")
    _runs_dir_flag(top, "for run-id lookup")


def _configure_runs(runs_cmd: argparse.ArgumentParser) -> None:
    runs_sub = runs_cmd.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    _runs_dir_flag(runs_list, "to scan")
    runs_show = runs_sub.add_parser(
        "show", help="show one run: manifest, progress, worker health"
    )
    runs_show.add_argument("run_id",
                           help="run-id prefix (unique in the ledger) or "
                           "a telemetry .jsonl path")
    _runs_dir_flag(runs_show, "for run-id lookup")


def _configure_resume(resume_cmd: argparse.ArgumentParser) -> None:
    resume_cmd.add_argument("run_id",
                            help="run-id prefix (unique in the ledger) or "
                            "a telemetry .jsonl path of the interrupted run")
    _runs_dir_flag(resume_cmd, "for run-id lookup")


def _configure_trace(trace_cmd: argparse.ArgumentParser) -> None:
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)

    analyze = trace_sub.add_parser(
        "analyze",
        help="build the happens-before DAG and report causal influence",
    )
    analyze.add_argument("path", help="JSONL trace file (--trace-sink jsonl)")
    analyze.add_argument("--qid", type=int, default=None,
                         help="query id to analyze (default: the last "
                         "returned query)")

    check = trace_sub.add_parser(
        "check", help="replay the trace through the invariant checkers"
    )
    check.add_argument("path", help="JSONL trace file to audit")

    export = trace_sub.add_parser(
        "export", help="export per-node timelines (Chrome trace or ASCII)"
    )
    export.add_argument("path", nargs="?", default=None,
                        help="JSONL trace file to export (optional when "
                        "--engine exports telemetry alone)")
    export.add_argument("--engine", dest="engine", default=None,
                        metavar="TELEMETRY",
                        help="merge an engine telemetry stream into the "
                        "export: run → dispatch → chunk → trial spans as "
                        "their own process track, with a flow arrow down "
                        "to the sim trace when one is given (chrome "
                        "format only)")
    export.add_argument("--format", dest="format", default="ascii",
                        choices=["ascii", "chrome"],
                        help="ascii prints a terminal timeline; chrome "
                        "writes a Perfetto/chrome://tracing JSON file")
    export.add_argument("--output", "-o", default=None,
                        help="output file (required for --format chrome)")
    export.add_argument("--width", type=int, default=72,
                        help="timeline width in characters (ascii only)")


def _configure_bench(bench_cmd: argparse.ArgumentParser) -> None:
    bench_sub = bench_cmd.add_subparsers(dest="bench_command", required=True)

    diff = bench_sub.add_parser(
        "diff",
        help="compare two result documents (or BENCH_*.json payloads) "
        "with per-metric relative thresholds",
    )
    diff.add_argument("baseline", help="baseline JSON file")
    diff.add_argument("candidate", help="candidate JSON file")
    diff.add_argument("--metric", action="append", default=[],
                      metavar="NAME=REL",
                      help="override a metric's relative threshold, e.g. "
                      "--metric latency=0.10 (repeatable)")
    diff.add_argument("--bootstrap", type=int, default=0, metavar="N",
                      help="pair the arms' trials by seed and bootstrap a "
                      "confidence interval for each metric's mean worsening "
                      "with N resamples (result documents only); regression "
                      "then additionally requires the CI to exclude zero")
    diff.add_argument("--ci", type=float, default=0.95, metavar="LEVEL",
                      help="confidence level for --bootstrap intervals "
                      "(default 0.95)")
    diff.add_argument("--fail-on-regression", dest="fail_on_regression",
                      action="store_true",
                      help="exit non-zero on failure: 1 for a regression, "
                      "2 for a missing baseline point or gated metric "
                      "(schema drift)")


def _configure_experiment(experiment_cmd: argparse.ArgumentParser) -> None:
    exp_sub = experiment_cmd.add_subparsers(dest="experiment_command",
                                            required=True)

    exp_run = exp_sub.add_parser(
        "run", help="run a YAML experiment through the engine"
    )
    exp_run.add_argument("path", help="experiment YAML file")
    exp_run.add_argument("--executor", default=None, metavar="SPEC",
                         help="override the experiment's executor block: a "
                         "preset name (repro executor) or an executor-spec "
                         "JSON file")
    exp_run.add_argument("--jobs", type=int, default=None,
                         help="fan trials out over N workers, overriding "
                         "the experiment's executor block (give either "
                         "--jobs or --executor, not both)")
    exp_run.add_argument("--output", default=None, metavar="FILE",
                         help="write the result document (.json) or stream "
                         "trials to append-only JSONL (.jsonl)")
    exp_run.add_argument("--telemetry", default=None, metavar="FILE",
                         help="record the repro-run-telemetry stream")
    exp_run.add_argument("--progress", action="store_true",
                         help="live done/total progress with ETA")
    exp_run.add_argument("--no-refine", dest="refine", action="store_false",
                         default=True,
                         help="skip the experiment's refine: block")
    exp_run.add_argument("--boundary-output", default=None, metavar="FILE",
                         help="write the repro-solvability-boundary "
                         "document produced by the refine: block")

    exp_show = exp_sub.add_parser(
        "show", help="print an experiment's canonical YAML and digests"
    )
    exp_show.add_argument("path", help="experiment YAML file")

    exp_validate = exp_sub.add_parser(
        "validate", help="validate experiment YAML files"
    )
    exp_validate.add_argument("paths", nargs="+",
                              help="experiment YAML files")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.churn.spec import ChurnSpec

    base: dict[str, Any] = {
        "n": args.n, "topology": args.topology, "protocol": args.protocol,
        "aggregate": args.aggregate, "ttl": args.ttl,
        "deadline": args.deadline, "horizon": args.horizon,
    }
    if args.churn_rate > 0:
        base["churn"] = ChurnSpec(kind="replacement", rate=args.churn_rate)
    plan, store, recorder = _engine_run(
        args, "cli-query", "query", base
    )
    rows = []
    for result in store.results:
        rows.append([
            result.seed % 100_000,
            str(result.result),
            str(result.truth),
            f"{result.completeness:.2f}",
            f"{result.latency:.2f}" if result.terminated else "inf",
            result.messages,
            "OK" if result.ok else "FAIL",
        ])
    print(render_table(
        ["seed", "result", "truth", "completeness", "latency", "messages", "spec"],
        rows,
        title=(f"one-time query: n={args.n}, {args.topology}, "
               f"{args.protocol}, {args.aggregate}, churn={args.churn_rate}"),
    ))
    _engine_finish(args, plan, store, recorder)
    return 0


def _cmd_gossip(args: argparse.Namespace) -> int:
    from repro.churn.spec import ChurnSpec

    base: dict[str, Any] = {
        "n": args.n, "topology": args.topology, "mode": args.mode,
        "rounds": args.rounds,
    }
    if args.churn_rate > 0:
        base["churn"] = ChurnSpec(kind="replacement", rate=args.churn_rate)
    plan, store, recorder = _engine_run(
        args, "cli-gossip", "gossip", base
    )
    for result in store.results:
        print(f"push-sum {args.mode} (seed {result.seed % 100_000}): "
              f"estimate {float(result.result):.4g}, "
              f"truth {float(result.truth):.4g}, "
              f"relative error {result.error:.4g}, "
              f"{result.messages} messages")
    _engine_finish(args, plan, store, recorder)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_matrix
    from repro.core.classes import standard_lattice
    from repro.core.solvability import Solvable, solvability_matrix

    symbol = {Solvable.YES: "yes", Solvable.CONDITIONAL: "cond",
              Solvable.NO: "NO"}
    matrix = solvability_matrix(standard_lattice())
    rows: list[str] = []
    cols: list[str] = []
    cells = {}
    for system, result in matrix.items():
        row, col = str(system.arrival), str(system.knowledge)
        if row not in rows:
            rows.append(row)
        if col not in cols:
            cols.append(col)
        cells[(row, col)] = symbol[result.answer]
    print(render_matrix(rows, cols, cells, corner="arrival \\ knowledge",
                        title="one-time query solvability"))
    return 0


def _class_tables() -> tuple[dict[str, Any], dict[str, Any]]:
    """``describe``'s ``--arrival`` / ``--knowledge`` vocabularies."""
    from repro.core import arrival, geography

    arrivals = {
        "static": lambda n: arrival.StaticArrival(n),
        "finite": lambda n: arrival.FiniteArrival(),
        "inf-bounded": lambda n: arrival.InfiniteArrivalBounded(n),
        "inf-finite": lambda n: arrival.InfiniteArrivalFinite(),
        "inf-unbounded": lambda n: arrival.InfiniteArrivalUnbounded(),
    }
    knowledge = {
        "complete": lambda d, s: geography.complete(),
        "diameter": lambda d, s: geography.known_diameter(d),
        "size": lambda d, s: geography.known_size(s),
        "local": lambda d, s: geography.local(),
    }
    return arrivals, knowledge


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.core.classes import SystemClass
    from repro.core.solvability import one_time_query_solvability

    arrivals, knowledge = _class_tables()
    system = SystemClass(
        arrivals[args.arrival](args.n),
        knowledge[args.knowledge](args.diameter, args.size_bound),
    )
    result = one_time_query_solvability(system)
    print(system.name)
    print()
    print(system.describe())
    print()
    print(f"one-time query: {result.answer}")
    if result.condition:
        print(f"condition: {result.condition}")
    print(f"argument: {result.argument}")
    if result.witness_protocol:
        print(f"witness protocol: {result.witness_protocol}")
    print(f"validating experiment: {result.experiment}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report

    text = build_report(n=args.n, trials=args.trials, seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_disseminate(args: argparse.Namespace) -> int:
    from repro.churn.models import ReplacementChurn
    from repro.core.dissemination_spec import DisseminationSpec
    from repro.protocols.dissemination import AntiEntropyNode, FloodNode
    from repro.sim.latency import ConstantDelay
    from repro.sim.scheduler import Simulator
    from repro.topology import generators as topo_gen

    node_cls = FloodNode if args.protocol == "flood" else AntiEntropyNode
    sim = Simulator(seed=args.seed, delay_model=ConstantDelay(0.5))
    topo = topo_gen.make("er", args.n, sim.rng_for("topo"))
    pids = []
    for node in sorted(topo.nodes()):
        neighbors = [p for p in topo.neighbors(node) if p < node]
        pids.append(sim.spawn(node_cls(1.0), neighbors).pid)
    if args.churn_rate > 0:
        model = ReplacementChurn(lambda: node_cls(1.0), rate=args.churn_rate)
        model.immortal.add(pids[0])
        model.install(sim)
    origin = sim.network.process(pids[0])
    sim.at(10.0, lambda: origin.broadcast_value("payload"))
    sim.run(until=args.audit_at)
    verdict = DisseminationSpec().check(sim.trace, at=args.audit_at)[0]
    print(f"{args.protocol} dissemination, n={args.n}, "
          f"churn={args.churn_rate}, audited at t={args.audit_at}:")
    print(f"  stable-core coverage : {verdict.coverage:.2f}")
    print(f"  population coverage  : {verdict.population_coverage:.2f}")
    print(f"  messages             : {sim.trace.message_count()}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.analysis.tables import render_table
    from repro.bench.scenarios import make_scenario
    from repro.engine.trials import run_query
    from repro.sim.rng import iter_seeds

    rows = []
    for seed in iter_seeds(args.seed, args.trials):
        config = replace(make_scenario(args.name), seed=seed)
        outcome = run_query(config)
        rows.append([
            seed % 100_000,
            str(outcome.record.result),
            f"{outcome.completeness:.2f}",
            f"{outcome.latency:.2f}" if outcome.terminated else "inf",
            outcome.messages,
            "OK" if outcome.ok else "partial",
        ])
    print(render_table(
        ["seed", "result", "completeness", "latency", "messages", "spec"],
        rows,
        title=f"scenario {args.name!r}",
    ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_result_document

    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    base = {
        "n": args.n, "topology": args.topology,
        "aggregate": "COUNT", "horizon": 300.0,
    }
    plan, store, recorder = _engine_run(
        args, "churn-sweep", "query", base, grid={"churn_rate": rates}
    )
    jobs = _resolve_executor_flag(args).effective_jobs()
    print(render_result_document(
        store.document(),
        columns=("trials", "completeness", "fully_complete", "messages"),
        title=(f"churn sweep: n={args.n}, {args.topology}, "
               f"{args.trials} trials, jobs={jobs}"),
    ))
    _engine_finish(args, plan, store, recorder)
    return 0


def _preset_listing(command: str) -> tuple[Any, ...]:
    """One spec family's (class, columns after ``preset``, row per spec,
    title) for ``repro faults|resilience|executor``."""
    if command == "faults":
        from repro.faults.spec import FaultPlan

        return (
            FaultPlan,
            ["fault kinds", "specs", "activations", "quiet after"],
            lambda plan: [
                ", ".join(plan.kinds()),
                len(plan),
                plan.scheduled_count(),
                f"{plan.end_time():.1f}",
            ],
            "builtin fault plans (use with --fault-plan NAME)",
        )
    if command == "resilience":
        from repro.resilience.spec import ResilienceSpec

        return (
            ResilienceSpec,
            ["retries", "base rto", "rto", "breaker", "detector",
             "partial results"],
            lambda spec: [
                spec.max_retries,
                f"{spec.base_rto:.1f}",
                "adaptive" if spec.adaptive_rto else "static",
                spec.breaker_threshold if spec.breaker_threshold else "off",
                "adaptive" if spec.adaptive_detector else "static",
                "yes" if spec.partial_results else "no",
            ],
            "builtin resilience specs (use with --resilience NAME)",
        )
    from repro.engine.spec import ExecutorSpec

    return (
        ExecutorSpec,
        ["backend", "jobs", "chunk", "watchdog", "retries"],
        lambda spec: [
            spec.backend,
            spec.jobs if spec.jobs is not None else "all cores",
            spec.chunk if spec.chunk is not None else "adaptive",
            f"{spec.watchdog:.0f}s" if spec.watchdog is not None else "off",
            spec.trial_retries,
        ],
        "builtin executor specs (use with --executor NAME)",
    )


def _cmd_presets(args: argparse.Namespace) -> int:
    """``repro faults|resilience|executor``: list the family's builtin
    presets, or print one as its editable JSON wire format."""
    from repro.analysis.tables import render_table
    from repro.sim.errors import ConfigurationError

    family, columns, row, title = _preset_listing(args.command)
    if args.show:
        try:
            spec = family.preset(args.show)
        except ConfigurationError as error:
            raise SystemExit(str(error))
        print(spec.to_json(), end="")
        return 0
    print(render_table(
        ["preset"] + columns,
        [[name] + row(spec) for name, spec in family.PRESETS.items()],
        title=title,
    ))
    return 0


def _open_run(target: str, runs_dir: str | None,
              need_manifest: bool = True) -> "TelemetryTail":
    """Tail the telemetry stream a run argument names — an existing file,
    or a run-id prefix resolved through the ledger — polled once."""
    from repro.engine.telemetry import DEFAULT_RUNS_DIR, TelemetryTail, find_run
    from repro.sim.errors import ConfigurationError

    try:
        if not os.path.exists(target):
            target = find_run(target, runs_dir or DEFAULT_RUNS_DIR)["path"]
        tail = TelemetryTail(target)
        tail.poll()
    except ConfigurationError as error:
        raise SystemExit(str(error))
    if need_manifest and tail.manifest is None:
        raise SystemExit(f"{target}: telemetry stream has no manifest")
    return tail


def _cmd_top(args: argparse.Namespace) -> int:
    tail = _open_run(args.target, args.runs_dir, need_manifest=False)
    live_tty = sys.stdout.isatty() and not args.once
    try:
        while True:
            tail.poll()
            frame = tail.render()
            if live_tty:
                # Full-screen refresh, top-left anchored.
                sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            else:
                print(frame)
            sys.stdout.flush()
            if args.once or tail.finished:
                return 0
            time.sleep(max(0.05, args.interval))
    except KeyboardInterrupt:
        return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.engine.telemetry import DEFAULT_RUNS_DIR, render_profiles, scan_runs

    if args.runs_command == "list":
        entries = scan_runs(args.runs_dir or DEFAULT_RUNS_DIR)
        if not entries:
            print(f"no runs recorded under "
                  f"{args.runs_dir or DEFAULT_RUNS_DIR!r} "
                  "(record one with --telemetry)")
            return 0
        rows = []
        for entry in entries:
            manifest, summary = entry["manifest"], entry["summary"]
            counts = summary["counts"] if summary else {}
            rows.append([
                manifest.run_id,
                manifest.plan.get("name", "?"),
                manifest.plan.get("n_trials", "?"),
                manifest.executor.get("backend", "?"),
                entry.get("status", "?"),
                f"{summary['wall_s']:.1f}s" if summary else "-",
                counts.get("ok", "-"),
                counts.get("failed", "-"),
                counts.get("quarantined", "-"),
            ])
        print(render_table(
            ["run id", "plan", "trials", "backend", "status", "wall", "ok",
             "failed", "quar"],
            rows,
            title=f"run ledger ({args.runs_dir or DEFAULT_RUNS_DIR})",
        ))
        return 0

    # show
    tail = _open_run(args.run_id, args.runs_dir)
    manifest = tail.manifest
    print(tail.render())
    print()
    rows = [
        ["path", tail.path],
        ["started", manifest.to_record()["started_iso"]],
        ["plan digest", manifest.plan.get("digest", "-")],
        ["executor", str(dict(manifest.executor))],
        ["host", "{hostname} · {platform} · python {python} · "
         "{cpu_count} cpus".format(**{
             key: manifest.host.get(key, "?")
             for key in ("hostname", "platform", "python", "cpu_count")
         })],
        ["repro", manifest.repro_version],
        ["result schema", "{name} v{version}".format(
            **dict(manifest.result_schema))],
    ]
    if manifest.cli:
        rows.append(["cli", "{version}: {argv}".format(
            version=manifest.cli.get("version", "?"),
            argv=" ".join(manifest.cli.get("argv", [])),
        )])
    print(render_table(["field", "value"], rows, title="manifest"))
    if tail.summary and tail.summary.get("profile"):
        print()
        print(render_profiles(tail.summary["profile"]))
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    """Re-invoke an interrupted run's recorded argv with ``--resumed-from``.

    The manifest's ``cli.argv`` block is the exact command line; replaying
    it re-resolves the same ``--checkpoint`` journal (plan-digest keyed
    when the path was implicit), so completed trials are skipped and the
    finished document is byte-identical to an uninterrupted run's.
    """
    tail = _open_run(args.run_id, args.runs_dir)
    manifest = tail.manifest
    argv = list(manifest.cli.get("argv", [])) if manifest.cli else []
    if not argv:
        raise SystemExit(
            f"run {manifest.run_id}: manifest records no command line; "
            "resume only works for runs started through the repro CLI "
            "with --telemetry"
        )
    # Strip any prior --resumed-from so resume chains don't accumulate.
    cleaned: list[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--resumed-from":
            skip = True
            continue
        if token.startswith("--resumed-from="):
            continue
        cleaned.append(token)
    if not any(token.split("=", 1)[0] == "--checkpoint"
               for token in cleaned):
        print(f"note: run {manifest.run_id} recorded no --checkpoint; "
              "every trial will re-execute", file=sys.stderr)
    if tail.summary is not None:
        print(f"note: run {manifest.run_id} already finished; re-running "
              "is an idempotent re-verification", file=sys.stderr)
    print(f"resuming run {manifest.run_id}: repro {' '.join(cleaned)}",
          file=sys.stderr)
    return main(cleaned + ["--resumed-from", manifest.run_id])


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.causal import HappensBeforeDAG
    from repro.obs.check import check_trace
    from repro.obs.export import (
        ascii_timeline,
        write_chrome_trace,
        write_engine_trace,
    )
    from repro.sim.errors import ConfigurationError
    from repro.sim.trace import TraceLog

    # A file that is not what the command reads exits with one line.
    try:
        log = TraceLog.load_jsonl(args.path) if args.path else None
        if args.trace_command == "analyze":
            dag = HappensBeforeDAG(log)
            print(f"trace: {args.path}")
            print(f"  events         : {len(dag.events)}")
            print(f"  program edges  : {dag.program_edges}")
            print(f"  message edges  : {dag.message_edges}")
            queries = dag.query_indices()
            if not queries:
                print("  no queries in this trace; nothing to analyze")
                return 0
            report = dag.influence(args.qid)
            print()
            print(report)
            return 0

        if args.trace_command == "check":
            violations = check_trace(log)
            if not violations:
                print(f"{args.path}: all trace invariants hold")
                return 0
            print(f"{args.path}: {len(violations)} invariant violation(s)")
            for violation in violations:
                print(f"  {violation}")
            return 1

        # export
        if getattr(args, "engine", None):
            if args.format != "chrome":
                raise SystemExit("--engine requires --format chrome")
            if not args.output:
                raise SystemExit("--format chrome requires --output FILE")
            sim_events = None
            sim_seed = None
            if args.path:
                sim_events = log
                # Per-trial traces are saved as {name}-trial{i}-seed{seed}.jsonl;
                # the seed picks the matching engine trial span for the flow
                # arrow when it is recoverable from the filename.
                import re

                match = re.search(r"seed(\d+)", os.path.basename(args.path))
                if match:
                    sim_seed = int(match.group(1))
            written = write_engine_trace(
                args.engine, args.output, sim_events=sim_events,
                sim_seed=sim_seed,
            )
            print(f"{written} events (engine spans"
                  + (" + sim trace" if args.path else "")
                  + f") written to {args.output} "
                  "(open in Perfetto or chrome://tracing)")
            return 0
        if not args.path:
            raise SystemExit("trace export needs a trace PATH "
                             "(or --engine TELEMETRY)")
        if args.format == "chrome":
            if not args.output:
                raise SystemExit("--format chrome requires --output FILE")
            written = write_chrome_trace(log, args.output)
            print(f"{written} trace events written to {args.output} "
                  "(open in Perfetto or chrome://tracing)")
            return 0
        print(ascii_timeline(log, width=args.width))
        return 0
    except ConfigurationError as error:
        raise SystemExit(str(error))


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.diff import diff_files
    from repro.sim.errors import ConfigurationError

    thresholds: dict[str, float] = {}
    for spec in args.metric:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            raise SystemExit(
                f"--metric expects NAME=REL (a relative threshold), got {spec!r}"
            )
        try:
            thresholds[name] = float(value)
        except ValueError:
            raise SystemExit(f"--metric {spec!r}: {value!r} is not a number")
    try:
        diff = diff_files(
            args.baseline, args.candidate, thresholds or None,
            bootstrap=args.bootstrap, confidence=args.ci,
        )
    except ConfigurationError as error:
        raise SystemExit(str(error))
    print(diff.render())
    if diff.ok:
        print("no regressions")
        return 0
    print(f"{len(diff.regressions)} regression(s), "
          f"{len(diff.missing)} missing point(s)/metric(s)")
    # 1 = regression, 2 = comparison-shape drift (missing dominates: a
    # drifted comparison proves nothing about performance either way).
    return diff.exit_code if args.fail_on_regression else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_result_document
    from repro.experiments import (
        dump_experiment,
        experiment_digest,
        experiment_plan_digest,
        load_experiment,
        refine_experiment,
        run_experiment,
    )
    from repro.sim.errors import ConfigurationError

    if args.experiment_command == "validate":
        failures = 0
        for path in args.paths:
            try:
                exp = load_experiment(path)
            except ConfigurationError as error:
                print(f"FAIL {path}: {error}")
                failures += 1
                continue
            plan = exp.to_plan()
            print(f"ok   {path}: {exp.name} ({exp.kind}), "
                  f"{len(exp.points())} point(s) x {exp.trials} trial(s) = "
                  f"{len(plan.specs)} spec(s), "
                  f"digest {experiment_digest(exp)}, "
                  f"plan {experiment_plan_digest(exp)}")
        return 1 if failures else 0

    try:
        exp = load_experiment(args.path)
    except ConfigurationError as error:
        raise SystemExit(str(error))

    if args.experiment_command == "show":
        print(dump_experiment(exp), end="")
        print(f"# experiment digest: {experiment_digest(exp)}")
        print(f"# plan digest:       {experiment_plan_digest(exp)}")
        print(f"# trial specs:       {len(exp.to_plan().specs)}")
        return 0

    # run: either flag overrides the YAML's executor block; with neither,
    # executor=None lets the block (or the serial default) decide.
    executor: ExecutorSpec | None = None
    if args.executor is not None or args.jobs is not None:
        executor = _resolve_executor_flag(args)
    progress = (
        _ProgressPrinter(jobs=args.jobs or 1) if args.progress else None
    )
    stream_path = (
        args.output if args.output and args.output.endswith(".jsonl")
        else None
    )
    try:
        run = run_experiment(
            exp, executor=executor, progress=progress,
            telemetry=args.telemetry, stream_path=stream_path,
        )
    except ConfigurationError as error:
        raise SystemExit(str(error))
    if run.store is not None:
        print(render_result_document(
            run.store.document(),
            title=(f"experiment {exp.name} ({exp.kind}): "
                   f"{len(exp.points())} point(s) x {exp.trials} trial(s), "
                   f"plan {run.plan_digest}"),
        ))
        if args.output:
            run.store.write(args.output)
            print(f"result document written to {args.output}")
    else:
        print(f"{run.streamed} trial(s) streamed to {run.stream_path} "
              f"(plan {run.plan_digest})")
    for check in run.verdicts:
        print(check)
    if exp.refine is not None and args.refine:
        import json as _json

        try:
            boundary = refine_experiment(
                exp, executor=executor, base_run=run,
            )
        except ConfigurationError as error:
            raise SystemExit(str(error))
        total = sum(
            len(ctx["brackets"]) for ctx in boundary["contexts"]
        )
        converged = sum(
            1 for ctx in boundary["contexts"]
            for bracket in ctx["brackets"] if bracket["converged"]
        )
        print(f"refine: {total} boundary bracket(s), {converged} converged, "
              f"{boundary['refined_trials']} refined trial(s) on top of "
              f"{boundary['base_trials']}")
        for ctx in boundary["contexts"]:
            label = ", ".join(
                f"{k}={v}" for k, v in sorted(ctx["context"].items())
            ) or "(all)"
            for bracket in ctx["brackets"]:
                print(f"  {label}: {boundary['axis']} flips "
                      f"{boundary['metric']} {boundary['op']} "
                      f"{boundary['threshold']:g} in "
                      f"[{bracket['low']:g}, {bracket['high']:g}]"
                      + (" (converged)" if bracket["converged"] else ""))
        if args.boundary_output:
            with open(args.boundary_output, "w", encoding="utf-8") as handle:
                _json.dump(boundary, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"boundary document written to {args.boundary_output}")
    if not run.passed:
        print(f"{len(run.failures)} expectation(s) failed")
        return 1
    return 0


#: name → (help, configure(subparser) or None, run(args)), in the order
#: ``repro --help`` lists them.
_COMMANDS: dict[str, tuple[str, Callable[..., None] | None, Callable[..., int]]] = {
    "query": ("run a one-time query scenario", _configure_query, _cmd_query),
    "gossip": ("run a push-sum gossip scenario", _configure_gossip,
               _cmd_gossip),
    "matrix": ("print the solvability matrix", None, _cmd_matrix),
    "describe": ("describe one system class", _configure_describe,
                 _cmd_describe),
    "report": ("run the standard battery and emit a markdown report",
               _configure_report, _cmd_report),
    "disseminate": ("run a dissemination scenario (flood vs anti-entropy)",
                    _configure_disseminate, _cmd_disseminate),
    "scenario": ("run a named preset scenario", _configure_scenario,
                 _cmd_scenario),
    "sweep": ("sweep churn rates (E4 shape)", _configure_sweep, _cmd_sweep),
    "faults": ("list the builtin fault-plan presets",
               partial(_configure_presets, "fault-plan", "--fault-plan"),
               _cmd_presets),
    "resilience": ("list the builtin resilience presets",
                   partial(_configure_presets, "resilience-spec",
                           "--resilience"),
                   _cmd_presets),
    "top": ("live view of a (possibly running) sweep's telemetry",
            _configure_top, _cmd_top),
    "runs": ("the run ledger: recorded telemetry streams", _configure_runs,
             _cmd_runs),
    "resume": ("re-run an interrupted run's exact command; its checkpoint "
               "journal skips the completed trials", _configure_resume,
               _cmd_resume),
    "executor": ("list the builtin executor presets",
                 partial(_configure_presets, "executor-spec", "--executor"),
                 _cmd_presets),
    "trace": ("analyze, check or export a saved .jsonl trace",
              _configure_trace, _cmd_trace),
    "bench": ("benchmark utilities (regression gating)", _configure_bench,
              _cmd_bench),
    "experiment": ("declarative YAML experiments (repro-experiment v1)",
                   _configure_experiment, _cmd_experiment),
}


class _Version(argparse.Action):
    # Resolved when asked: looking the installed distribution up costs an
    # ``importlib.metadata`` import no other invocation needs.
    def __call__(self, parser: argparse.ArgumentParser, *_: Any) -> None:
        print(f"{parser.prog} {package_version()}")
        parser.exit()


def _build_parser(invoked: str | None) -> argparse.ArgumentParser:
    """Every command is registered (``repro --help`` lists them all); only
    ``invoked``'s flags are configured, importing what they need."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic distributed systems: the PaCT 2007 definition "
        "space, executable.",
    )
    parser.add_argument("--version", action=_Version, nargs=0,
                        help="show program's version number and exit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, configure, _) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if name == invoked and configure is not None:
            configure(subparser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # The top-level parser has no option that takes a value, so the command
    # is the first token that is not an option.
    invoked = next((token for token in argv if not token.startswith("-")), None)
    args = _build_parser(invoked).parse_args(argv)
    # The manifest's cli block records exactly what was invoked.
    args._argv = argv
    try:
        return _COMMANDS[args.command][2](args)
    except KeyboardInterrupt:
        # 130 = 128 + SIGINT, the conventional interrupted-by-Ctrl-C code.
        # Telemetry/checkpoint state was already flushed line-by-line, so
        # an interrupted sweep is resumable via `repro resume`.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
