"""The TrialExecutor layer: interchangeable serial / parallel backends.

:func:`execute_trial` is the single unit of work — a module-level function
taking a picklable :class:`~repro.engine.plan.TrialSpec` and returning a
picklable :class:`~repro.engine.results.TrialResult`.

There is **one dispatch loop**: :meth:`TrialExecutor.stream` hands each
result to a consumer strictly in plan order, and batch execution
(:meth:`TrialExecutor.run_specs`) is "stream, then collect" on every
backend.  Likewise :func:`run_plan` and :func:`stream_plan` are two faces
of one private run driver (:func:`_drive`), so healing, checkpointing and
telemetry attach in exactly one place and a plan's result document is
identical under ``SerialExecutor`` and ``ParallelExecutor``: parallelism
changes wall-clock time, never results.

The parallel hot path (built for sweep-scale plans):

* **persistent warm pool** — the worker pool is created once per
  :class:`ParallelExecutor` (lazily, at first use), pre-imports the trial
  layer, and is reused across every ``run_specs``/``stream``/``map`` call
  until :meth:`~ParallelExecutor.close`; per-plan pool setup is paid
  once, not per invocation;
* **chunked, windowed dispatch** — trial specs are batched many-per-task
  (:func:`_run_chunk`), either a fixed ``chunk`` size or adaptively sized
  from one cheap calibration trial so each task carries about
  ``chunk_target`` seconds of work, and at most
  ``jobs × CHUNKS_PER_WORKER`` tasks are in flight at any moment;
* **compact result transport** — workers ship back a slim positional
  payload per trial (:func:`_pack_result`) instead of a pickled
  :class:`TrialResult`; the parent reassembles the full result
  deterministically from the payload plus its own copy of the spec
  (:func:`_unpack_result`), so identity fields never cross the process
  boundary twice.

Configuration lives in the frozen, picklable
:class:`~repro.engine.spec.ExecutorSpec` (``run_plan(plan,
executor=ExecutorSpec.parallel(jobs=4))`` or a preset name).
"""

from __future__ import annotations

import abc
import contextlib
import functools
import itertools
import math
import mmap
import os
import shutil
import struct
import tempfile
import threading
import time
import weakref
from collections import deque
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

from repro.engine.plan import ExperimentPlan, TrialSpec
from repro.engine.recovery.checkpoint import (
    CheckpointState,
    CheckpointWriter,
    resolve_checkpoint,
)
from repro.engine.recovery.healing import (
    SPLIT_AFTER_DEATHS,
    WorkerPoolError,
    max_consecutive_respawns,
    quarantine_threshold,
    respawn_backoff,
)
from repro.engine.results import (
    ResultStore,
    StreamingResultStore,
    TrialResult,
    jsonable,
)
from repro.engine.spec import ExecutorSpec
from repro.engine.telemetry import TelemetryRecorder, resolve_recorder
from repro.engine.trials import (
    DisseminationOutcome,
    GossipOutcome,
    QueryOutcome,
    run_dissemination,
    run_gossip,
    run_query,
)
from repro.sim.errors import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")

#: Chunks per worker, used twice: the windowed dispatch keeps at most
#: ``jobs × CHUNKS_PER_WORKER`` tasks in flight, and adaptive chunking
#: never packs a plan's remainder into fewer tasks than that.
CHUNKS_PER_WORKER = 4

#: Progress callback: ``(done_count, total, just_finished_result)``.
#: Trial execution invokes it in *plan* order on every backend, right
#: after the result has been consumed (and journalled); only the generic
#: :meth:`TrialExecutor.map` reports in completion order.  A callback may
#: additionally expose a ``chunk_update(dispatched, completed)`` method;
#: chunked backends call it as task batches move.
ProgressFn = Callable[[int, int, Any], None]


def _peak_rss_kb() -> float:
    """Peak resident set size of this process in KB (0.0 where the
    ``resource`` module is unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0.0
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def execute_trial(spec: TrialSpec) -> TrialResult:
    """Run one trial spec to completion and summarise it.

    Wall time covers config materialisation plus the whole simulation;
    ``events_executed`` comes straight from the simulator.  Two perf
    metrics join the trial's (timing-quarantined) ``timings`` section:
    ``events_per_sec`` — events executed over the ``simulate`` phase wall
    time — and ``peak_rss_kb``, the worker's peak resident set.  Both are
    wall-clock-derived, so canonical documents stay byte-identical.
    """
    start = time.perf_counter()
    config = spec.to_config()
    if spec.kind == "query":
        outcome: Any = run_query(config)
    elif spec.kind == "gossip":
        outcome = run_gossip(config)
    elif spec.kind == "dissemination":
        outcome = run_dissemination(config)
    else:  # pragma: no cover - to_config already rejects unknown kinds
        raise ConfigurationError(f"unknown trial kind {spec.kind!r}")
    wall = time.perf_counter() - start
    timings = (
        outcome.metrics.get("timings") if isinstance(outcome.metrics, dict) else None
    )
    if isinstance(timings, dict):
        simulate = timings.get("simulate", 0.0)
        if simulate > 0.0:
            timings["events_per_sec"] = outcome.events_executed / simulate
        timings["peak_rss_kb"] = _peak_rss_kb()
    return _summarise(spec, outcome, wall)


def _summarise(spec: TrialSpec, outcome: Any, wall: float) -> TrialResult:
    common = {
        "messages": outcome.messages,
        "events_executed": outcome.events_executed,
        "wall_time": wall,
        "metrics": outcome.metrics,
    }
    if isinstance(outcome, QueryOutcome):
        report = getattr(outcome, "coverage_report", None)
        return TrialResult.from_spec(
            spec,
            ok=outcome.ok,
            terminated=outcome.terminated,
            result=jsonable(outcome.record.result),
            truth=jsonable(outcome.truth),
            error=outcome.error,
            completeness=outcome.completeness,
            latency=outcome.latency,
            core_size=len(outcome.verdict.stable_core),
            coverage=report.to_dict() if report is not None else None,
            **common,
        )
    if isinstance(outcome, GossipOutcome):
        return TrialResult.from_spec(
            spec,
            ok=math.isfinite(outcome.error),
            terminated=True,
            result=outcome.estimate,
            truth=outcome.truth,
            error=outcome.error,
            completeness=float("nan"),
            latency=outcome.read_time,
            core_size=0,
            **common,
        )
    if isinstance(outcome, DisseminationOutcome):
        return TrialResult.from_spec(
            spec,
            ok=outcome.ok,
            terminated=True,
            result=outcome.coverage,
            truth=outcome.population_coverage,
            error=1.0 - outcome.coverage,
            completeness=outcome.coverage,
            latency=float("nan"),
            core_size=len(outcome.verdict.obligation),
            **common,
        )
    raise ConfigurationError(
        f"cannot summarise outcome type {type(outcome).__name__}"
    )


def execute_trial_guarded(
    spec: TrialSpec, watchdog: float | None = None, retries: int = 0
) -> TrialResult:
    """Run :func:`execute_trial` under a wall-clock watchdog.

    The trial runs on a daemon thread with ``watchdog`` seconds per
    attempt.  A trial that overruns is retried from scratch (determinism
    makes retries exact re-runs, so they only help against *environmental*
    stalls — an overloaded worker, a paging storm — never against a
    genuinely divergent simulation).  After ``retries + 1`` overruns the
    trial is **quarantined**: a schema-compatible failure record with
    ``status="quarantined"`` takes its place, the hung thread is abandoned
    (daemon threads die with the worker process), and the rest of the plan
    proceeds.  A trial that *errors* re-raises immediately — the watchdog
    guards time, not correctness.

    With ``watchdog=None`` this is exactly :func:`execute_trial`.
    """
    if watchdog is None:
        return execute_trial(spec)
    if watchdog <= 0:
        raise ConfigurationError(f"watchdog must be > 0 seconds, got {watchdog}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    attempts = retries + 1
    for _ in range(attempts):
        box: dict[str, Any] = {}

        def attempt() -> None:
            try:
                box["result"] = execute_trial(spec)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["error"] = exc

        thread = threading.Thread(
            target=attempt, name=f"trial-{spec.index}", daemon=True
        )
        thread.start()
        thread.join(watchdog)
        if "error" in box:
            raise box["error"]
        if "result" in box:
            return box["result"]
        # Timed out: the daemon thread is abandoned and the attempt retried.
    return _quarantined_result(spec, watchdog * attempts)


def _quarantined_result(spec: TrialSpec, wall_time: float) -> TrialResult:
    """The placeholder record (``status="quarantined"``) for a trial that
    never finished: one every watchdog attempt lost (``wall_time`` is the
    budget it burnt), or a poison trial — one that killed its worker
    outright (segfault, OOM kill) until the self-healing pool gave up on
    it.  A poison trial's ``wall_time`` is pinned to 0.0: a deterministic
    value keeps ``include_timing`` documents reproducible.  One schema for
    both, so downstream consumers need no second case."""
    return TrialResult.from_spec(
        spec,
        ok=False,
        terminated=False,
        result=None,
        truth=None,
        error=float("inf"),
        completeness=0.0,
        latency=float("inf"),
        messages=0,
        core_size=0,
        events_executed=0,
        wall_time=wall_time,
        metrics={},
        status="quarantined",
    )


@dataclass
class _ChunkTask:
    """Parent-side bookkeeping for one in-flight worker task.

    ``deaths`` counts how many pool breaks this task has been in flight
    for; ``solo`` marks a suspect task that must run with nothing else in
    flight so a further break attributes precisely.
    """

    batch: tuple[TrialSpec, ...]
    submitted: float = 0.0
    deaths: int = 0
    solo: bool = False


# ----------------------------------------------------------------------
# Compact result transport (worker -> parent)
# ----------------------------------------------------------------------

#: Positional payload layout shipped back per trial.  Identity fields
#: (index / kind / seed / trial / point) are *not* transported — the
#: parent already holds the spec and reattaches them deterministically —
#: so the wire cost per trial is the verdict fields, the metrics block
#: and the timings, nothing else.
PAYLOAD_FIELDS: tuple[str, ...] = (
    "ok",
    "terminated",
    "result",
    "truth",
    "error",
    "completeness",
    "latency",
    "messages",
    "core_size",
    "events_executed",
    "wall_time",
    "metrics",
    "status",
    "coverage",
)


def _pack_result(result: TrialResult) -> tuple:
    """Flatten a result to the slim positional wire payload."""
    return tuple(getattr(result, name) for name in PAYLOAD_FIELDS)


def _unpack_result(payload: Sequence[Any], spec: TrialSpec) -> TrialResult:
    """Reassemble the full :class:`TrialResult` from a wire payload plus
    the parent's copy of the spec.  Exactly inverts :func:`_pack_result`:
    ``_unpack_result(_pack_result(r), spec)`` reproduces ``r`` field for
    field whenever ``r`` came from ``spec``."""
    if len(payload) != len(PAYLOAD_FIELDS):
        raise ConfigurationError(
            f"executor wire payload has {len(payload)} fields, expected "
            f"{len(PAYLOAD_FIELDS)} — worker/parent version mismatch?"
        )
    return TrialResult.from_spec(spec, **dict(zip(PAYLOAD_FIELDS, payload)))


#: A heartbeat slot holds the trial's plan index twice: a worker killed
#: between the two stores leaves halves that differ, which reads as no mark.
_HEARTBEAT = struct.Struct("<qq")
#: This process's slot, ``(directory, mapping or None)``.
_heartbeat_slot: tuple[Any, Any] = (None, None)


def _mark_heartbeat(directory: str, index: int) -> None:
    """Worker-side heartbeat: record "this worker is about to run trial
    ``index``" in ``<directory>/<pid>.hb``.  The file is created and
    memory-mapped at the worker's first mark (again only if ``directory``
    changes); every later mark is two stores into the mapping — no system
    call — and, the mapping being shared and file-backed, it outlives a
    SIGKILLed worker.  After a pool break the parent reads the dead
    workers' last marks to attribute the break to specific in-flight
    trials (poison-trial detection); a slot that cannot be opened only
    costs attribution precision, never correctness."""
    global _heartbeat_slot
    where, slot = _heartbeat_slot
    if where != directory:
        slot = None
        with contextlib.suppress(OSError, ValueError):
            path = os.path.join(directory, f"{os.getpid()}.hb")
            with open(path, "w+b", buffering=0) as handle:
                handle.write(_HEARTBEAT.pack(index, index))
                slot = mmap.mmap(handle.fileno(), _HEARTBEAT.size)
        _heartbeat_slot = (directory, slot)
    elif slot is not None:
        _HEARTBEAT.pack_into(slot, 0, index, index)


def _run_chunk(
    specs: Sequence[TrialSpec],
    watchdog: float | None = None,
    retries: int = 0,
    heartbeat: str | None = None,
) -> tuple[tuple[tuple, ...], dict[str, Any]]:
    """The worker-side task: run a batch of specs, return slim payloads.

    One pool task per *chunk* instead of per trial: submission overhead,
    future bookkeeping and result pickling are paid once per batch.  The
    payloads come back in batch order (which is plan order — chunks are
    contiguous plan slices), so the parent's merge is a zip.

    Alongside the payloads, every chunk ships a small telemetry ``meta``
    dict — worker pid, chunk endpoints, per-trial endpoints (Unix epoch
    seconds, comparable across same-host processes) and the worker's peak
    RSS.  It is always measured (a handful of clock reads per chunk) and
    simply discarded by the parent when no telemetry recorder is
    attached; it never reaches result documents, so it cannot perturb
    byte-identity.

    ``heartbeat`` (a directory path) enables the self-healing pool's
    death-attribution channel: the worker marks each trial it is about to
    run (:func:`_mark_heartbeat`), so a crash points at its trial.  The
    healthy path makes no system call per trial for it.
    """
    t0 = time.time()
    out = []
    trial_times: list[tuple[float, float]] = []
    for spec in specs:
        if heartbeat is not None:
            _mark_heartbeat(heartbeat, spec.index)
        trial_start = time.time()
        if watchdog is None:
            result = execute_trial(spec)
        else:
            result = execute_trial_guarded(spec, watchdog=watchdog, retries=retries)
        trial_times.append((trial_start, time.time()))
        out.append(_pack_result(result))
    meta = {
        "pid": os.getpid(),
        "t0": t0,
        "t1": time.time(),
        "trials": trial_times,
        "rss_kb": _peak_rss_kb(),
    }
    return tuple(out), meta


def _warm_worker() -> None:
    """Pool initializer: pre-import the trial layer so the first real task
    on every worker pays no import cost (a no-op under the ``fork`` start
    method, where workers inherit the parent's modules; load-bearing under
    ``spawn``/``forkserver``)."""
    import repro.engine.trials  # noqa: F401 - imported for the side effect


def _shutdown_pool(pool: _ProcessPool) -> None:
    """GC-time cleanup for a pool whose executor was never closed."""
    pool.shutdown(wait=False, cancel_futures=True)


class TrialExecutor(abc.ABC):
    """Runs a plan's trial specs; backends differ only in *where* they run."""

    #: Worker count the backend will use (1 for serial).
    jobs: int = 1
    #: Per-trial wall-clock timeout in seconds (``None`` disables the
    #: watchdog entirely — the historical code path, byte-identical).
    watchdog: float | None = None
    #: Watchdog retries per trial before quarantining it.
    retries: int = 0
    #: Task batches submitted / drained during the most recent
    #: :meth:`stream` (0/0 for unchunked backends).
    chunks_dispatched: int = 0
    chunks_completed: int = 0
    #: Telemetry recorder for the current plan, attached by
    #: :func:`run_plan` / :func:`stream_plan` (``telemetry=...``) and
    #: detached when the call finishes.  ``None`` — the default — is the
    #: historical code path; attaching a recorder adds wall-clock span
    #: records to a side stream and never touches results.
    telemetry: "TelemetryRecorder | None" = None

    def _trial_fn(self) -> Callable[[TrialSpec], TrialResult]:
        """The per-spec work function, honouring the watchdog settings."""
        if self.watchdog is None:
            return execute_trial
        return functools.partial(
            execute_trial_guarded, watchdog=self.watchdog, retries=self.retries
        )

    def _instrumented_trial_fn(self) -> Callable[[TrialSpec], TrialResult]:
        """The work function, wrapped to emit one ``trial`` span per call
        when a telemetry recorder is attached (parent-side execution:
        the serial backend and degraded 1-job parallel paths)."""
        fn = self._trial_fn()
        tel = self.telemetry
        if tel is None:
            return fn

        def timed(spec: TrialSpec) -> TrialResult:
            t0 = time.time()
            result = fn(spec)
            tel.record_trial(spec, result, t0, time.time())
            return result

        return timed

    def _notify_chunks(self, progress: Optional[ProgressFn]) -> None:
        """Push the chunk counters to a progress callback that wants them."""
        update = getattr(progress, "chunk_update", None)
        if callable(update):
            update(self.chunks_dispatched, self.chunks_completed)

    def run_specs(
        self,
        specs: Sequence[TrialSpec],
        progress: Optional[ProgressFn] = None,
    ) -> list[TrialResult]:
        """Execute an explicit spec list, preserving input order.

        Batch execution is "stream, then collect" on every backend:
        :meth:`stream` consumes strictly in plan order, so the list needs
        no re-ordering and ``progress`` fires in plan order too.
        """
        results: list[TrialResult] = []
        self.stream(specs, results.append, progress=progress)
        return results

    @abc.abstractmethod
    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        progress: Optional[ProgressFn] = None,
    ) -> list[R]:
        """Apply ``fn`` over ``items``, preserving input order.

        The generic escape hatch for harnesses (like ``repro.bench.sweep``)
        whose work units are callables rather than trial specs.  With the
        parallel backend, ``fn`` and every item must be picklable; generic
        items are dispatched one per task (chunking applies only to trial
        specs, where the work function is known).
        """

    def stream(
        self,
        specs: Sequence[TrialSpec],
        consume: Callable[[TrialResult], None],
        progress: Optional[ProgressFn] = None,
    ) -> int:
        """Execute specs and hand each result to ``consume`` in plan order,
        retaining nothing — the engine's one dispatch loop, behind
        :meth:`run_specs`, :func:`run_plan` and :func:`stream_plan` alike.
        Returns how many trials ran.  ``progress`` fires after each result
        has been consumed (plan order here, unlike :meth:`map`).
        """
        fn = self._instrumented_trial_fn()
        specs = list(specs)
        done = 0
        for spec in specs:
            result = fn(spec)
            done += 1
            consume(result)
            if progress is not None:
                progress(done, len(specs), result)
        return done

    def close(self) -> None:
        """Release backend resources (a no-op for in-process backends)."""

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SerialExecutor(TrialExecutor):
    """In-process, strictly sequential execution (the reference backend)."""

    jobs = 1

    def __init__(
        self, watchdog: float | None = None, retries: int = 0
    ) -> None:
        self.watchdog = watchdog
        self.retries = retries

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        progress: Optional[ProgressFn] = None,
    ) -> list[R]:
        items = list(items)
        results: list[R] = []
        for item in items:
            results.append(fn(item))
            if progress is not None:
                progress(len(results), len(items), results[-1])
        return results

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor(TrialExecutor):
    """Fans trials out over a persistent warm process pool.

    Trials are independent simulations, so process-level parallelism is
    safe; results are re-ordered to plan order, making the backend
    observationally identical to :class:`SerialExecutor` (modulo wall
    time).  ``jobs`` defaults to the machine's CPU count.

    The pool is created lazily on first use and **reused across calls**
    (``run_specs`` / ``stream`` / ``map``) until :meth:`close`
    — fork once per plan, not once per invocation.  Trial specs are
    dispatched in contiguous plan-order *chunks* (``chunk`` trials per
    task, or adaptively sized from a calibration trial to carry about
    ``chunk_target`` seconds each); workers return compact payloads that
    the parent reassembles deterministically, so the canonical result
    document is byte-identical at every chunk size, worker count and
    backend.
    """

    def __init__(
        self,
        jobs: int | None = None,
        watchdog: float | None = None,
        retries: int = 0,
        chunk: int | None = None,
        chunk_target: float = 0.25,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if chunk is not None and chunk < 1:
            raise ConfigurationError(
                f"chunk must be >= 1 trials per task, got {chunk}"
            )
        if chunk_target <= 0.0:
            raise ConfigurationError(
                f"chunk_target must be > 0 seconds, got {chunk_target}"
            )
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.watchdog = watchdog
        self.retries = retries
        self.chunk = chunk
        self.chunk_target = chunk_target
        self.chunks_dispatched = 0
        self.chunks_completed = 0
        #: Worker pools respawned during the most recent stream (0 on a
        #: healthy run).
        self.respawns = 0
        self._pool: _ProcessPool | None = None
        self._pool_finalizer: weakref.finalize | None = None
        self._heartbeat_dir: str | None = None
        self._hb_finalizer: weakref.finalize | None = None
        self._kills: dict[int, int] = {}
        self._respawn_streak = 0

    # ------------------------------------------------------------------
    # Warm pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> _ProcessPool:
        """The persistent pool, created on first use and kept warm."""
        if self._pool is None:
            warm_start = time.time()
            self._pool = _ProcessPool(
                max_workers=self.jobs, initializer=_warm_worker
            )
            # If the executor is dropped without close(), shut the pool
            # down at GC instead of leaking worker processes.
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
            if self.telemetry is not None:
                self.telemetry.record_warmup(
                    warm_start, time.time(), jobs=self.jobs
                )
        return self._pool

    @property
    def pool_active(self) -> bool:
        """Whether the warm pool currently holds live workers."""
        return self._pool is not None

    def worker_pids(self) -> list[int]:
        """Pids of the current pool's live worker processes (sorted;
        empty when no pool is warm).  The chaos suite uses this to pick a
        victim; operators can use it to correlate with ``ps``."""
        if self._pool is None:
            return []
        processes = getattr(self._pool, "_processes", None) or {}
        return sorted(processes)

    def close(self) -> None:
        """Shut the warm pool down; the next use forks a fresh one."""
        if self._pool is not None:
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._heartbeat_dir is not None:
            if self._hb_finalizer is not None:
                self._hb_finalizer.detach()
                self._hb_finalizer = None
            shutil.rmtree(self._heartbeat_dir, ignore_errors=True)
            self._heartbeat_dir = None

    # ------------------------------------------------------------------
    # Self-healing (worker death mid-chunk) — see docs/RECOVERY.md
    # ------------------------------------------------------------------

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting on its corpse."""
        if self._pool is not None:
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _ensure_heartbeat_dir(self) -> str:
        """The per-executor directory workers write trial heartbeats to."""
        if self._heartbeat_dir is None:
            self._heartbeat_dir = tempfile.mkdtemp(prefix="repro-hb-")
            self._hb_finalizer = weakref.finalize(
                self, shutil.rmtree, self._heartbeat_dir, True
            )
        return self._heartbeat_dir

    def _read_heartbeats(self) -> dict[int, int]:
        """Consume every worker heartbeat slot: pid → last started trial.

        Files are deleted as they are read so each pool break sees only
        marks written since the last one; a short, torn or unreadable slot
        simply yields no mark (attribution then falls back to whole-task
        death counting).
        """
        marks: dict[int, int] = {}
        directory = self._heartbeat_dir
        if directory is None or not os.path.isdir(directory):
            return marks
        for name in os.listdir(directory):
            path = os.path.join(directory, name)
            with contextlib.suppress(OSError, ValueError, struct.error):
                with open(path, "rb") as handle:
                    first, second = _HEARTBEAT.unpack(handle.read())
                if first == second and name.endswith(".hb"):
                    marks[int(name[:-3])] = first
            with contextlib.suppress(OSError):
                os.unlink(path)
        return marks

    def _respawn_pool(self, incomplete: Iterable[int]) -> set[int]:
        """Absorb one pool break: discard the corpse, back off, fork a
        fresh pool, and return the *suspect* trial indices.

        Attribution: with exactly one trial in flight the break is
        precisely attributed — its kill count increments (and only such
        isolated kills ever count toward quarantine).  Otherwise the dead
        workers' heartbeat marks name the trials that were running; those
        suspects are re-run in isolation so a repeat offence *is* precise.
        Raises :class:`WorkerPoolError` after
        :func:`max_consecutive_respawns` breaks with no completed chunk in
        between (the streak resets on every healthy chunk).
        """
        broke = time.time()
        self._discard_pool()
        self.respawns += 1
        self._respawn_streak += 1
        limit = max_consecutive_respawns(self.retries)
        if self._respawn_streak > limit:
            raise WorkerPoolError(
                f"worker pool broke {self._respawn_streak} consecutive "
                f"times with no completed chunk in between; giving up "
                f"after {limit} respawns (see docs/RECOVERY.md)"
            )
        incomplete_set = set(incomplete)
        marks = self._read_heartbeats()
        if len(incomplete_set) == 1:
            lone = next(iter(incomplete_set))
            self._kills[lone] = self._kills.get(lone, 0) + 1
            suspects = {lone}
        else:
            suspects = {i for i in marks.values() if i in incomplete_set}
        delay = respawn_backoff(self._respawn_streak)
        time.sleep(delay)
        self._ensure_pool()
        if self.telemetry is not None:
            self.telemetry.record_respawn(
                broke,
                time.time(),
                jobs=self.jobs,
                backoff_s=delay,
                consecutive=self._respawn_streak,
            )
        return suspects

    def _partition(
        self, task: _ChunkTask, suspects: set[int]
    ) -> list[tuple[Any, ...]]:
        """Decide a dead task's fate trial by trial, preserving order.

        Returns an ordered entry list: ``("done", spec, result)`` for
        trials quarantined as poison (kill count reached
        :func:`quarantine_threshold`), ``("run", _ChunkTask)`` for
        everything that re-executes — suspects as isolated single-trial
        tasks, clean trials regrouped into contiguous runs.  A task that
        has been in flight for :data:`SPLIT_AFTER_DEATHS` breaks splits
        entirely into isolated singles (the heartbeat-less fallback).
        """
        threshold = quarantine_threshold(self.retries)
        task.deaths += 1
        split_all = len(task.batch) > 1 and task.deaths >= SPLIT_AFTER_DEATHS
        entries: list[tuple[Any, ...]] = []
        group: list[TrialSpec] = []

        def flush() -> None:
            if group:
                entries.append(
                    ("run", _ChunkTask(batch=tuple(group), deaths=task.deaths))
                )
                group.clear()

        for spec in task.batch:
            if self._kills.get(spec.index, 0) >= threshold:
                flush()
                entries.append(("done", spec, _quarantined_result(spec, 0.0)))
            elif split_all or spec.index in suspects:
                flush()
                entries.append(("run", _ChunkTask(
                    batch=(spec,), deaths=task.deaths, solo=True,
                )))
            else:
                group.append(spec)
        flush()
        if self.telemetry is not None:
            for entry in entries:
                if entry[0] == "run":
                    redispatched: _ChunkTask = entry[1]
                    self.telemetry.record_redispatch(
                        len(redispatched.batch),
                        redispatched.deaths,
                        split=redispatched.solo,
                    )
        return entries

    # ------------------------------------------------------------------
    # Chunked trial dispatch
    # ------------------------------------------------------------------

    def _chunk_size_for(self, calibration_wall: float, remaining: int) -> int:
        """Adaptive chunk size: about ``chunk_target`` seconds per task,
        but never so large that the plan's remainder fills fewer than
        :data:`CHUNKS_PER_WORKER` tasks per worker — plans are ordered by
        grid point and cost rises along the grid, so one chunk per worker
        leaves the pool idle while the last chunk runs the dear trials."""
        per_trial = max(calibration_wall, 1e-6)
        size = max(1, round(self.chunk_target / per_trial))
        cap = remaining // (self.jobs * CHUNKS_PER_WORKER)
        return max(1, min(size, cap))

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        progress: Optional[ProgressFn] = None,
    ) -> list[R]:
        items = list(items)
        if not items:
            return []
        if self.jobs == 1 or len(items) == 1:
            return SerialExecutor().map(fn, items, progress=progress)
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item) for item in items]
        if progress is not None:
            # Progress fires in completion order; result collection
            # below still reads in submission order.
            done = 0
            for future in as_completed(futures):
                done += 1
                progress(done, len(futures), future.result())
        # Collect in submission order: completion order never leaks
        # into the result list.
        return [future.result() for future in futures]

    def stream(
        self,
        specs: Sequence[TrialSpec],
        consume: Callable[[TrialResult], None],
        progress: Optional[ProgressFn] = None,
    ) -> int:
        """Chunked streaming over the warm pool with windowed submission.

        At most ``jobs × CHUNKS_PER_WORKER`` chunks are in flight or
        awaiting consumption at any moment, so memory stays flat no matter
        how long the plan is.  Chunks are contiguous plan slices submitted
        and drained FIFO, so results are consumed strictly in plan order
        (the stream file then matches the serial backend's byte for byte).

        A pool break flips the drain into **cautious mode**: the lost
        window re-executes one task at a time, in plan order (suspects as
        isolated singles, repeat offenders quarantined in place), before
        windowed submission resumes — plan-order consumption is preserved
        across any number of worker deaths.  ``BrokenProcessPool`` is
        absorbed, never raised; only a pool that keeps dying with no
        completed chunk in between gives up (:class:`WorkerPoolError`).
        """
        specs = list(specs)
        self.chunks_dispatched = 0
        self.chunks_completed = 0
        self.respawns = 0
        self._kills = {}
        self._respawn_streak = 0
        if not specs:
            return 0
        if self.jobs == 1 or len(specs) == 1:
            return super().stream(specs, consume, progress=progress)
        tel = self.telemetry
        self._ensure_pool()
        total = len(specs)
        done = 0
        start = 0
        if self.chunk is not None:
            chunk = self.chunk
        else:
            calib_start = time.time()
            first = self._trial_fn()(specs[0])
            if tel is not None:
                tel.record_trial(
                    specs[0], first, calib_start, time.time(),
                    calibration=True,
                )
            done = 1
            start = 1
            consume(first)
            if progress is not None:
                progress(done, total, first)
            chunk = self._chunk_size_for(first.wall_time, total - 1)
        dispatch = tel.begin_dispatch(total, chunk) if tel is not None else None
        heartbeat = self._ensure_heartbeat_dir()
        batches = (
            _ChunkTask(batch=tuple(specs[offset:offset + chunk]))
            for offset in range(start, total, chunk)
        )
        window = self.jobs * CHUNKS_PER_WORKER
        pending: deque = deque()
        cautious: deque = deque()

        def submit(task: _ChunkTask) -> Any:
            task.submitted = time.time()
            future = self._ensure_pool().submit(
                _run_chunk, task.batch, self.watchdog, self.retries, heartbeat
            )
            self.chunks_dispatched += 1
            return future

        def enqueue(task: _ChunkTask) -> None:
            pending.append((submit(task), task))

        def finish(
            task: _ChunkTask, payloads: Sequence[tuple], meta: dict[str, Any]
        ) -> None:
            nonlocal done
            self.chunks_completed += 1
            self._respawn_streak = 0
            self._notify_chunks(progress)
            batch_results: list[TrialResult] = []
            for spec, payload in zip(task.batch, payloads):
                result = _unpack_result(payload, spec)
                batch_results.append(result)
                self._kills.pop(spec.index, None)
                done += 1
                consume(result)
                if progress is not None:
                    progress(done, total, result)
            if tel is not None:
                tel.record_chunk(
                    task.batch, batch_results, meta, task.submitted,
                    parent=dispatch,
                )

        def settle(spec: TrialSpec, result: TrialResult) -> None:
            nonlocal done
            done += 1
            if tel is not None:
                tel.record_poison(spec.index, self._kills.get(spec.index, 0))
                now = time.time()
                tel.record_trial(spec, result, now, now)
            consume(result)
            if progress is not None:
                progress(done, total, result)

        def absorb_break(first_dead: _ChunkTask) -> None:
            """Convert the whole in-flight window into cautious entries,
            in plan order, harvesting chunks that finished pre-break."""
            tail: list[tuple[str, Any, Any]] = [("dead", first_dead, None)]
            for future2, task2 in pending:
                outcome = None
                if future2.done():
                    try:
                        outcome = future2.result()
                    except BrokenProcessPool:
                        outcome = None
                else:
                    future2.cancel()
                if outcome is not None:
                    tail.append(("ready", task2, outcome))
                else:
                    tail.append(("dead", task2, None))
            pending.clear()
            suspects = self._respawn_pool(
                spec.index
                for kind, task2, _ in tail if kind == "dead"
                for spec in task2.batch
            )
            for kind, task2, outcome in reversed(tail):
                if kind == "ready":
                    cautious.appendleft(("ready", task2, outcome))
                else:
                    for entry in reversed(self._partition(task2, suspects)):
                        cautious.appendleft(entry)
            self._notify_chunks(progress)

        for task in itertools.islice(batches, window):
            enqueue(task)
        self._notify_chunks(progress)
        while pending or cautious:
            if pending:
                future, task = pending.popleft()
                try:
                    payloads, meta = future.result()
                except BrokenProcessPool:
                    absorb_break(task)
                    continue
                finish(task, payloads, meta)
                for task in itertools.islice(batches, 1):
                    enqueue(task)
                self._notify_chunks(progress)
                continue
            # Cautious mode: replay the lost window strictly one entry at
            # a time — order is consumption order, isolation is precise
            # attribution for any further break.
            entry = cautious.popleft()
            if entry[0] == "done":
                settle(entry[1], entry[2])
            elif entry[0] == "ready":
                finish(entry[1], *entry[2])
            else:
                task = entry[1]
                future = submit(task)
                try:
                    payloads, meta = future.result()
                except BrokenProcessPool:
                    absorb_break(task)
                    continue
                finish(task, payloads, meta)
            if not cautious:
                # Lost window fully replayed: back to full speed.
                for task in itertools.islice(batches, window):
                    enqueue(task)
                self._notify_chunks(progress)
        if tel is not None:
            tel.end_dispatch(dispatch, chunks=self.chunks_completed)
        return done

    def __repr__(self) -> str:
        chunk = self.chunk if self.chunk is not None else "adaptive"
        return (
            f"ParallelExecutor(jobs={self.jobs}, chunk={chunk}, "
            f"warm={self.pool_active})"
        )


def _describe_backend(backend: TrialExecutor) -> dict[str, Any]:
    """A manifest-ready description of a hand-built backend instance."""
    desc: dict[str, Any] = {
        "backend": "parallel" if isinstance(backend, ParallelExecutor)
        else "serial",
        "jobs": backend.jobs,
        "watchdog": backend.watchdog,
        "trial_retries": backend.retries,
    }
    if isinstance(backend, ParallelExecutor):
        desc["chunk"] = backend.chunk
        desc["chunk_target"] = backend.chunk_target
    return desc


def _resolve_backend(
    executor: "TrialExecutor | ExecutorSpec | str | None",
) -> tuple[TrialExecutor, bool, dict[str, Any]]:
    """Normalise the ``executor=`` argument of :func:`run_plan` and
    :func:`stream_plan` to a backend instance.

    Returns ``(backend, owned, description)``: ``owned`` backends were
    built here from a spec / preset / the default and are closed when the
    call finishes; caller-supplied :class:`TrialExecutor` instances stay
    open so their warm pool survives for the next plan.  ``description``
    is the executor block of the run manifest — the spec's lossless wire
    dict when a spec/preset selected the backend, or a best-effort
    instance description otherwise.
    """
    if isinstance(executor, TrialExecutor):
        return executor, False, _describe_backend(executor)
    spec = ExecutorSpec.resolve(executor)
    return spec.make(), True, spec.to_dict()


class _ResumeEmitter:
    """Interleaves preloaded (journalled) results with freshly executed
    ones so a downstream consumer sees strict plan order — the resumed
    stream file is then byte-identical to an uninterrupted run's.

    Fresh results arrive in plan order restricted to the missing indices
    (the executor's streaming contract), so emitting each fresh result
    then draining any journalled successors restores the full order.
    """

    def __init__(
        self,
        specs: Sequence[TrialSpec],
        preloaded: dict[int, TrialResult],
        emit: Callable[[TrialResult], None],
    ) -> None:
        self.order = [spec.index for spec in specs]
        self.preloaded = dict(preloaded)
        self.emit = emit
        self.cursor = 0
        self._drain()

    def _drain(self) -> None:
        while self.cursor < len(self.order):
            index = self.order[self.cursor]
            if index not in self.preloaded:
                break
            self.emit(self.preloaded.pop(index))
            self.cursor += 1

    def __call__(self, result: TrialResult) -> None:
        self.emit(result)
        self.cursor += 1
        self._drain()


def _drive(
    plan: ExperimentPlan,
    sink: Any,
    executor: "TrialExecutor | ExecutorSpec | str | None",
    progress: Optional[ProgressFn],
    telemetry: "TelemetryRecorder | str | None",
    checkpoint: "CheckpointWriter | str | None",
    resume_from: "CheckpointState | str | None",
) -> int:
    """The one run driver behind :func:`run_plan` and :func:`stream_plan`.

    ``sink`` is a context manager yielding an object with an
    ``append(result)`` method.  It is entered only after every argument
    has been resolved and verified — a checkpoint journal that belongs to
    a different plan raises :class:`CheckpointError` before an existing
    stream file is touched.  Each fresh trial is journalled, then
    appended, then reported to ``progress``: the checkpoint is the durable
    record, the sink is reconstructable from it, and an interrupt raised
    by the progress hook never loses the trial that just finished.
    Journalled results are interleaved with fresh ones in plan order
    (:class:`_ResumeEmitter`).  Returns how many trials the sink received.
    """
    backend, owned, desc = _resolve_backend(executor)
    recorder, tel_owned = resolve_recorder(telemetry)
    writer, preloaded, ckpt_path = resolve_checkpoint(
        checkpoint, resume_from, plan, executor=desc,
        run_id=recorder.run_id if recorder is not None else None,
    )
    todo = [spec for spec in plan.specs if spec.index not in preloaded]
    if recorder is not None:
        recorder.open_run(
            plan, executor=desc, checkpoint=ckpt_path,
            resumed_trials=len(preloaded) or None,
        )
        backend.telemetry = recorder
    failed = False
    try:
        with sink as target:
            emit: Callable[[TrialResult], None] = target.append
            if preloaded:
                emit = _ResumeEmitter(plan.specs, preloaded, emit)

            def consume(result: TrialResult) -> None:
                if writer is not None:
                    writer.append(result)
                emit(result)

            ran = backend.stream(todo, consume, progress=progress)
            return ran + len(preloaded)
    except BaseException:
        failed = True
        raise
    finally:
        if writer is not None:
            writer.close()
        if recorder is not None:
            backend.telemetry = None
            if tel_owned:
                if failed:
                    # No summary line: the run ledger reports the stream
                    # as "interrupted", and `repro resume` can finish it.
                    recorder.abort()
                else:
                    recorder.close()
        if owned:
            backend.close()


def run_plan(
    plan: ExperimentPlan,
    executor: "TrialExecutor | ExecutorSpec | str | None" = None,
    progress: Optional[ProgressFn] = None,
    telemetry: "TelemetryRecorder | str | None" = None,
    checkpoint: "CheckpointWriter | str | None" = None,
    resume_from: "CheckpointState | str | None" = None,
) -> ResultStore:
    """Execute ``plan`` and aggregate the results into a
    :class:`ResultStore` — the one-call form of the three-layer pipeline.

    ``executor`` accepts an :class:`~repro.engine.spec.ExecutorSpec`, a
    builtin preset name (``"serial"``, ``"parallel"``, …), an
    already-built :class:`TrialExecutor` (whose warm pool is reused and
    left open), or ``None`` for the serial default.

    ``progress`` fires once per executed trial, in plan order on every
    backend, after the trial has been journalled.

    ``telemetry`` accepts a :class:`~repro.engine.telemetry.TelemetryRecorder`
    (left open for the caller to close) or a path string (a recorder is
    opened there and closed when the run finishes).  Telemetry observes
    the run but never alters it: the result document is byte-identical
    with telemetry on or off.

    ``checkpoint`` (a path or :class:`CheckpointWriter`) journals every
    completed trial to a crash-safe ``repro-run-checkpoint`` file as the
    run progresses; ``resume_from`` (a path or loaded
    :class:`CheckpointState`) preloads completed trials from such a
    journal so only the missing ones re-execute.  A resumed run's
    document is byte-identical to an uninterrupted one.  Passing the same
    path as ``checkpoint=`` across invocations is the idempotent resume
    idiom (an existing journal for the same plan auto-resumes).
    """
    results: list[TrialResult] = []
    _drive(
        plan, contextlib.nullcontext(results), executor, progress,
        telemetry, checkpoint, resume_from,
    )
    return ResultStore.from_run(plan, results)


def stream_plan(
    plan: ExperimentPlan,
    path: str,
    executor: "TrialExecutor | ExecutorSpec | str | None" = None,
    progress: Optional[ProgressFn] = None,
    include_timing: bool = False,
    telemetry: "TelemetryRecorder | str | None" = None,
    checkpoint: "CheckpointWriter | str | None" = None,
    resume_from: "CheckpointState | str | None" = None,
) -> int:
    """Execute ``plan`` straight into a JSONL stream at ``path``.

    The memory-flat counterpart of :func:`run_plan`: each trial is written
    by :class:`~repro.engine.results.StreamingResultStore` the moment it
    finishes, so peak memory is one window of in-flight chunks rather than
    the whole plan.  ``load_document(path)`` later reassembles the exact
    canonical document.  ``executor``, ``progress`` and ``telemetry``
    accept the same forms as :func:`run_plan`.  Returns the number of
    trials written.

    ``checkpoint`` / ``resume_from`` follow :func:`run_plan`'s contract.
    On resume the stream file is rewritten from the start — journalled
    results are interleaved with fresh ones in plan order, so the
    finished file is byte-identical to an uninterrupted run's.  Each
    trial is journalled *before* it is streamed: a crash between the two
    writes loses stream bytes (rewritten on resume), never journal state.
    The file at ``path`` is created only once every argument has been
    verified, so a rejected call leaves an existing file untouched.
    """
    meta = plan.meta() if hasattr(plan, "meta") else {}
    return _drive(
        plan,
        StreamingResultStore(path, plan=meta, include_timing=include_timing),
        executor, progress, telemetry, checkpoint, resume_from,
    )
