"""The TrialExecutor layer: interchangeable serial / parallel backends.

:func:`execute_trial` is the single unit of work — a module-level function
taking a picklable :class:`~repro.engine.plan.TrialSpec` and returning a
picklable :class:`~repro.engine.results.TrialResult`.

There is **one dispatch loop**, :func:`_run_loop`: it takes results in
plan order from a *source* and journals, consumes and reports each one.
The sources are the trial run in process (the serial backend, and the
pool's calibration trial), the warm pool (:class:`ParallelExecutor`,
healed by :class:`~repro.engine.recovery.healing.PoolHealer`) and the
checkpoint (:func:`_resumed`, interleaving journalled results).
:meth:`TrialExecutor.stream`, :func:`run_plan` and :func:`stream_plan` all
run through it — the last two via one private run driver
(:func:`_drive`) — so healing, checkpointing and telemetry attach in
exactly one place and a plan's result document is identical under
``SerialExecutor`` and ``ParallelExecutor``: parallelism changes
wall-clock time, never results.

The parallel hot path — a persistent warm pool, chunked windowed
dispatch (:func:`_run_chunk`) and a compact result transport
(:func:`_pack_result`) — is described in docs/ENGINE.md.  Configuration
lives in the frozen, picklable
:class:`~repro.engine.spec.ExecutorSpec` (``run_plan(plan,
executor=ExecutorSpec.parallel(jobs=4))`` or a preset name).
"""

from __future__ import annotations

import abc
import contextlib
import functools
import itertools
import math
import os
import threading
import time
import weakref
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence, TypeVar,
)

from repro.engine.plan import ExperimentPlan, TrialSpec
from repro.engine.recovery.checkpoint import (
    CheckpointState,
    CheckpointWriter,
    resolve_checkpoint,
)
from repro.engine.recovery.healing import (
    ChunkTask,
    PoolHealer,
    _mark_heartbeat,
    respawn_backoff,
)
from repro.engine.recovery.healing import quarantined_result as _quarantined_result
from repro.engine.results import (
    ResultStore,
    StreamingResultStore,
    TrialResult,
    jsonable,
)
from repro.engine.spec import ExecutorSpec
from repro.engine.telemetry import TelemetryRecorder, resolve_recorder
from repro.engine.trials import (
    KINDS,
    DisseminationOutcome,
    GossipOutcome,
    QueryOutcome,
)
from repro.sim.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor as _ProcessPool

#: A source: ``(result, fresh)`` pairs in plan order; ``fresh`` is false
#: only for a result resumed from a checkpoint journal.
Source = Iterator[tuple[TrialResult, bool]]

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
    config = spec.to_config()  # rejects an unknown kind
    _, runner = KINDS[spec.kind]
    outcome = runner(config)
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
            terminated=outcome.verdict.issued,
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
    attempt.  A trial that overruns is retried from scratch (an exact
    re-run, so it only helps against *environmental* stalls).  After
    ``retries + 1`` overruns the trial is **quarantined**: a
    ``status="quarantined"`` record takes its place, the hung thread is
    abandoned (daemon threads die with the worker process), and the plan
    proceeds.  A trial that *errors* re-raises immediately — the watchdog
    guards time, not correctness.  With ``watchdog=None`` this is exactly
    :func:`execute_trial`.
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


# ----------------------------------------------------------------------
# Compact result transport (worker -> parent)
# ----------------------------------------------------------------------

#: Positional payload layout shipped back per trial.  Identity fields
#: (index / kind / seed / trial / point) are *not* transported — the
#: parent already holds the spec and reattaches them deterministically —
#: so the wire cost per trial is the verdict fields, the metrics block
#: and the timings, nothing else.
PAYLOAD_FIELDS: tuple[str, ...] = (
    "ok", "terminated", "result", "truth", "error", "completeness", "latency",
    "messages", "core_size", "events_executed", "wall_time", "metrics",
    "status", "coverage",
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


def _run_chunk(
    specs: Sequence[TrialSpec],
    watchdog: float | None = None,
    retries: int = 0,
    heartbeat: str | None = None,
) -> tuple[tuple[tuple, ...], dict[str, Any]]:
    """The worker-side task: run a batch of specs, return slim payloads.

    One pool task per *chunk* instead of per trial: submission overhead,
    future bookkeeping and result pickling are paid once per batch.  The
    payloads come back in batch (= plan) order, so the parent's merge is
    a zip.  Every chunk also ships a small telemetry ``meta`` dict —
    worker pid, chunk and per-trial endpoints (Unix epoch seconds) and
    the worker's peak RSS — which the parent drops unless a telemetry
    recorder is attached; it never reaches result documents.
    ``heartbeat`` (a directory) is the self-healing pool's
    death-attribution channel: the worker marks each trial it is about to
    run (:func:`_mark_heartbeat`), with no system call per trial.
    """
    t0 = time.time()
    out = []
    trial_times: list[tuple[float, float]] = []
    for spec in specs:
        if heartbeat is not None:
            _mark_heartbeat(heartbeat, spec.index)
        trial_start = time.time()
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
    #: :func:`run_plan` / :func:`stream_plan` for the call's duration; it
    #: adds wall-clock span records to a side stream, never to results.
    telemetry: "TelemetryRecorder | None" = None

    def _trial_fn(
        self, calibration: bool = False
    ) -> Callable[[TrialSpec], TrialResult]:
        """The per-spec work function in this process: honours the
        watchdog settings and, with a telemetry recorder attached, emits
        one ``trial`` (or ``calibration``) span per call."""
        fn = functools.partial(
            execute_trial_guarded, watchdog=self.watchdog, retries=self.retries
        )
        tel = self.telemetry
        if tel is None:
            return fn

        def timed(spec: TrialSpec) -> TrialResult:
            t0 = time.time()
            result = fn(spec)
            tel.record_trial(spec, result, t0, time.time(), calibration=calibration)
            return result

        return timed

    def _notify_chunks(self, progress: Optional[ProgressFn]) -> None:
        """Push the chunk counters to a progress callback that wants them."""
        update = getattr(progress, "chunk_update", None)
        if callable(update):
            update(self.chunks_dispatched, self.chunks_completed)

    def _results(
        self, specs: list[TrialSpec], progress: Optional[ProgressFn]
    ) -> Source:
        """This backend's source: every spec run in this process, in order."""
        fn = self._trial_fn()
        return ((fn(spec), True) for spec in specs)

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
        items = list(items)
        results: list[R] = []
        for item in items:
            results.append(fn(item))
            if progress is not None:
                progress(len(results), len(items), results[-1])
        return results

    def stream(
        self,
        specs: Sequence[TrialSpec],
        consume: Callable[[TrialResult], None],
        progress: Optional[ProgressFn] = None,
    ) -> int:
        """Execute specs and hand each result to ``consume`` in plan order,
        retaining nothing — :func:`_run_loop` over this backend's source.
        Returns how many trials ran.  ``progress`` fires after each result
        has been consumed (plan order here, unlike :meth:`map`).
        """
        specs = list(specs)
        return _run_loop(
            self._results(specs, progress), consume, progress, len(specs)
        )

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

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor(TrialExecutor):
    """Fans trials out over a persistent warm process pool.

    Trials are independent simulations, so process-level parallelism is
    safe; results are re-ordered to plan order, making the backend
    observationally identical to :class:`SerialExecutor` (modulo wall
    time).  ``jobs`` defaults to the machine's CPU count.

    The pool is created lazily on first use and **reused across calls**
    (``run_specs`` / ``stream`` / ``map``) until :meth:`close`.  Trial
    specs go out in contiguous plan-order *chunks* (``chunk`` trials per
    task, or sized from a calibration trial to carry about
    ``chunk_target`` seconds each), so the document is byte-identical at
    every chunk size and worker count.  Worker death is absorbed by a
    :class:`~repro.engine.recovery.healing.PoolHealer`, which reaches the
    pool through :meth:`submit_chunk` and :meth:`replace_pool`.
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
        self._pool: _ProcessPool | None = None
        self._pool_finalizer: weakref.finalize | None = None
        self._healer = PoolHealer(self, retries)

    @property
    def respawns(self) -> int:
        """Worker pools respawned during the most recent stream (0 on a
        healthy run)."""
        return self._healer.respawns

    # ------------------------------------------------------------------
    # Warm pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> _ProcessPool:
        """The persistent pool, created on first use and kept warm."""
        if self._pool is None:
            # Imported where a pool starts: ``concurrent.futures.process``
            # loads ``multiprocessing``, ``pickle`` and ``socket``, which a
            # serial run never needs.
            from concurrent.futures import ProcessPoolExecutor as _ProcessPool

            warm_start = time.time()
            self._pool = _ProcessPool(
                max_workers=self.jobs, initializer=_warm_worker
            )
            # If the executor is dropped without close(), shut the pool
            # down at GC instead of leaking worker processes.
            self._pool_finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=False, cancel_futures=True
            )
            if self.telemetry is not None:
                self.telemetry.record_warmup(
                    warm_start, time.time(), jobs=self.jobs
                )
        return self._pool

    def _drop_pool(self, wait: bool) -> None:
        """Shut the pool down — waiting for it, or (a broken pool) not
        waiting on its corpse."""
        if self._pool is not None:
            self._pool_finalizer.detach()
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None

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
        self._drop_pool(wait=True)
        self._healer.close()

    # ------------------------------------------------------------------
    # The pool as the healer reaches it — see docs/RECOVERY.md
    # ------------------------------------------------------------------

    def submit_chunk(self, task: ChunkTask, heartbeat: str) -> Any:
        """Submit one chunk to the warm pool; its worker marks each trial
        in the ``heartbeat`` directory before running it."""
        task.submitted = time.time()
        future = self._ensure_pool().submit(
            _run_chunk, task.batch, self.watchdog, self.retries, heartbeat
        )
        self.chunks_dispatched += 1
        return future

    def replace_pool(self, streak: int | None) -> None:
        """Discard a broken pool; unless giving up (``streak`` is
        ``None``), back off for the ``streak``-th respawn in a row
        (:func:`respawn_backoff`) and fork a fresh one."""
        broke = time.time()
        self._drop_pool(wait=False)
        if streak is None:
            return
        delay = respawn_backoff(streak)
        time.sleep(delay)
        self._ensure_pool()
        if self.telemetry is not None:
            self.telemetry.record_respawn(
                broke, time.time(), jobs=self.jobs, backoff_s=delay,
                consecutive=streak,
            )

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
        if self.jobs == 1 or len(items) <= 1:
            return super().map(fn, items, progress=progress)
        from concurrent.futures import as_completed

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

    def _results(
        self, specs: list[TrialSpec], progress: Optional[ProgressFn]
    ) -> Source:
        """The warm pool as a source — or this process, when one spec or
        one job leaves nothing to share out."""
        self.chunks_dispatched = 0
        self.chunks_completed = 0
        self._healer.reset(self.telemetry)
        if self.jobs == 1 or len(specs) <= 1:
            return super()._results(specs, progress)
        return self._pool_results(specs, progress)

    def _pool_results(
        self, specs: list[TrialSpec], progress: Optional[ProgressFn]
    ) -> Source:
        """Chunked streaming over the warm pool with windowed submission.

        Without a fixed ``chunk``, the first spec is the calibration
        trial, run in this process; its wall time sizes the chunks.  At
        most ``jobs × CHUNKS_PER_WORKER`` chunks are in flight or awaiting
        consumption, so memory stays flat however long the plan is.  The
        healer hands chunk outcomes back FIFO — strictly plan order — and
        after a pool break nothing new is submitted until it has replayed
        the lost window (``BrokenProcessPool`` is absorbed, never raised).
        """
        tel = self.telemetry
        healer = self._healer
        self._ensure_pool()
        start, chunk = 0, self.chunk
        if chunk is None:
            first = self._trial_fn(calibration=True)(specs[0])
            yield first, True
            start, chunk = 1, self._chunk_size_for(first.wall_time, len(specs) - 1)
        dispatch = tel.begin_dispatch(len(specs), chunk) if tel is not None else None
        tasks = (
            ChunkTask(batch=tuple(specs[offset:offset + chunk]))
            for offset in range(start, len(specs), chunk)
        )
        cap = self.jobs * CHUNKS_PER_WORKER
        while True:
            if not healer.replay:
                for task in itertools.islice(tasks, cap - len(healer.window)):
                    healer.dispatch(task)
                self._notify_chunks(progress)
            if not healer.pending:
                break
            outcome = healer.step()
            if outcome is None:  # a break: the lost window is queued
                self._notify_chunks(progress)
            elif isinstance(outcome, TrialResult):  # quarantined poison
                yield outcome, True
            else:
                task, payloads, meta = outcome
                self.chunks_completed += 1
                self._notify_chunks(progress)
                results = [
                    _unpack_result(payload, spec)
                    for spec, payload in zip(task.batch, payloads)
                ]
                for result in results:
                    yield result, True
                if tel is not None:
                    tel.record_chunk(
                        task.batch, results, meta, task.submitted, parent=dispatch
                    )
        if tel is not None:
            tel.end_dispatch(dispatch, chunks=self.chunks_completed)

    def __repr__(self) -> str:
        chunk = self.chunk if self.chunk is not None else "adaptive"
        return (
            f"ParallelExecutor(jobs={self.jobs}, chunk={chunk}, "
            f"warm={self.pool_active})"
        )


def _run_loop(
    source: Source,
    consume: Callable[[TrialResult], None],
    progress: Optional[ProgressFn],
    total: int,
    journal: "CheckpointWriter | None" = None,
) -> int:
    """The engine's one loop body, whatever the backend and the run.

    Takes ``(result, fresh)`` pairs from ``source`` in plan order;
    journals each result, hands it to ``consume``, then — if ``fresh``,
    i.e. executed now rather than resumed — reports it as
    ``progress(done, total, result)``.  The journal is the durable record
    and comes first, so an interrupt raised by the progress hook never
    loses the trial it was told about; a resumed result is journalled
    already, and the writer skips it.  Returns how many fresh results
    went through.
    """
    done = 0
    for result, fresh in source:
        if journal is not None:
            journal.append(result)
        consume(result)
        if fresh:
            done += 1
            if progress is not None:
                progress(done, total, result)
    return done


def _resumed(
    specs: Sequence[TrialSpec], preloaded: dict[int, TrialResult], fresh: Source
) -> Source:
    """The checkpoint as a source: every journalled result of ``specs``,
    interleaved in plan order with ``fresh`` — the missing specs' results,
    which arrive in plan order among themselves — so a resumed stream is
    byte-identical to an uninterrupted run's."""
    for spec in specs:
        if spec.index in preloaded:
            yield preloaded[spec.index], False
        else:
            yield next(fresh)
    # Nothing is left, but the pool records its last chunk after yielding it.
    yield from fresh


def _resolve_backend(
    executor: "TrialExecutor | ExecutorSpec | str | None",
) -> tuple[TrialExecutor, bool, dict[str, Any]]:
    """Normalise the ``executor=`` argument of :func:`run_plan` and
    :func:`stream_plan` to ``(backend, owned, description)``.  ``owned``
    backends were built here (from a spec, a preset or the default) and
    are closed when the call finishes; a caller's :class:`TrialExecutor`
    stays open so its warm pool survives.  ``description`` is the run
    manifest's executor block: the spec's wire dict, or a best-effort
    description of the instance."""
    if not isinstance(executor, TrialExecutor):
        spec = ExecutorSpec.resolve(executor)
        return spec.make(), True, spec.to_dict()
    parallel = isinstance(executor, ParallelExecutor)
    desc: dict[str, Any] = {
        "backend": "parallel" if parallel else "serial",
        "jobs": executor.jobs,
        "watchdog": executor.watchdog,
        "trial_retries": executor.retries,
    }
    if parallel:
        desc.update(chunk=executor.chunk, chunk_target=executor.chunk_target)
    return executor, False, desc


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
    ``append(result)`` method, entered only once every argument has been
    resolved and verified (a checkpoint journal of another plan raises
    :class:`CheckpointError` before an existing stream file is touched).
    The missing trials run through :func:`_run_loop` into the sink, with
    journalled results interleaved in plan order (:func:`_resumed`).
    Returns how many trials the sink received.
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
            source = backend._results(todo, progress)
            if preloaded:
                source = _resumed(plan.specs, preloaded, source)
            ran = _run_loop(
                source, target.append, progress, len(todo), journal=writer
            )
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
    backend, after the trial has been journalled.  ``telemetry`` accepts
    a :class:`~repro.engine.telemetry.TelemetryRecorder` (left open for
    the caller to close) or a path (opened there, closed at the end);
    the document is byte-identical with telemetry on or off.

    ``checkpoint`` (a path or :class:`CheckpointWriter`) journals every
    completed trial to a crash-safe ``repro-run-checkpoint`` file;
    ``resume_from`` (a path or loaded :class:`CheckpointState`) preloads
    completed trials from such a journal so only the missing ones
    re-execute, to a byte-identical document.  Passing the same path as
    ``checkpoint=`` again is the idempotent resume idiom (an existing
    journal for the same plan auto-resumes).
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
    finishes, and ``load_document(path)`` later reassembles the exact
    canonical document.  The other arguments are :func:`run_plan`'s.
    Returns the number of trials written.

    On resume the stream file is rewritten from the start, journalled
    results interleaved with fresh ones in plan order, so the finished
    file is byte-identical to an uninterrupted run's.  Each trial is
    journalled *before* it is streamed, so a crash between the two writes
    loses stream bytes, never journal state.  The file at ``path`` is
    created only once every argument has been verified.
    """
    meta = plan.meta() if hasattr(plan, "meta") else {}
    return _drive(
        plan,
        StreamingResultStore(path, plan=meta, include_timing=include_timing),
        executor, progress, telemetry, checkpoint, resume_from,
    )
