"""Self-healing for the warm worker pool: the policy and the state machine.

When a worker process dies (SIGKILL, OOM, a hard crash inside native
code), :class:`concurrent.futures.ProcessPoolExecutor` breaks the whole
pool: every in-flight future raises ``BrokenProcessPool`` and the pool
is unusable.  :class:`~repro.engine.executor.ParallelExecutor` recovers
by forking a fresh pool and re-dispatching the incomplete chunks.  This
module holds everything about that recovery that needs no fork:

* the policy — the backoff schedule, the redispatch bounds and the
  poison-trial quarantine threshold;
* the heartbeat slot workers mark before each trial
  (:func:`_mark_heartbeat`), the death-attribution channel;
* :class:`PoolHealer`, the break → suspects → replay state machine the
  parallel source drives, which reaches the pool only through
  ``submit_chunk`` and ``replace_pool`` and so is unit-tested with a
  stand-in pool.

Poison-trial semantics: a worker death is attributed to the trial the
dead worker had most recently *started* (its heartbeat mark).  Because
a single co-incident death is never proof (the chaos suite SIGKILLs
perfectly innocent workers), a suspect always gets ``trial_retries + 1``
clean re-runs: a trial is quarantined only once its kill count reaches
:func:`quarantine_threshold` (``trial_retries + 2``).  When no heartbeat
survives the crash, attribution falls back to whole-task death counts:
a chunk that has died :data:`SPLIT_AFTER_DEATHS` times is split into
single-trial tasks so the poison isolates itself.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import shutil
import struct
import tempfile
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.engine.results import TrialResult
from repro.sim.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import TrialSpec
    from repro.engine.telemetry import TelemetryRecorder

#: First respawn delay; doubles per consecutive respawn without progress.
RESPAWN_BACKOFF_S = 0.05

#: Backoff ceiling — a flapping pool never waits longer than this.
MAX_RESPAWN_BACKOFF_S = 2.0

#: A multi-trial chunk that has died this many times is split into
#: single-trial tasks (heartbeat-less poison isolation).
SPLIT_AFTER_DEATHS = 2


class WorkerPoolError(ConfigurationError):
    """The warm pool kept dying with no forward progress — respawning was
    abandoned after :func:`max_consecutive_respawns` consecutive
    failures.  Subclasses :class:`~repro.sim.errors.ConfigurationError`
    so existing broad handlers keep working."""


def respawn_backoff(consecutive: int) -> float:
    """Delay before the ``consecutive``-th respawn in a row (1-based):
    exponential from :data:`RESPAWN_BACKOFF_S`, capped at
    :data:`MAX_RESPAWN_BACKOFF_S`."""
    if consecutive < 1:
        raise ConfigurationError(
            f"consecutive respawn count must be >= 1, got {consecutive}"
        )
    return min(MAX_RESPAWN_BACKOFF_S, RESPAWN_BACKOFF_S * 2 ** (consecutive - 1))


def max_consecutive_respawns(trial_retries: int) -> int:
    """How many respawns without a single completed chunk are tolerated
    before the run aborts with :class:`WorkerPoolError`.  High enough
    that a lone poison trial can burn through its quarantine budget
    (split + ``trial_retries + 1`` single-task kills) even when it is
    the only trial left."""
    return max(6, trial_retries + 4)


def quarantine_threshold(trial_retries: int) -> int:
    """The kill count at which a trial is quarantined:
    ``trial_retries + 2``.  The first death is never proof (the chaos
    suite SIGKILLs perfectly innocent workers), so every suspect gets
    ``trial_retries + 1`` clean re-runs before being declared poison."""
    if trial_retries < 0:
        raise ConfigurationError(
            f"trial_retries must be >= 0, got {trial_retries}"
        )
    return trial_retries + 2


def quarantined_result(spec: "TrialSpec", wall_time: float) -> TrialResult:
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


# ----------------------------------------------------------------------
# The heartbeat slot (worker side writes, healer reads)
# ----------------------------------------------------------------------

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
    SIGKILLed worker.  After a pool break the healer reads the dead
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


# ----------------------------------------------------------------------
# Break -> suspects -> replay
# ----------------------------------------------------------------------


@dataclass
class ChunkTask:
    """One worker task — a contiguous plan slice — and its bookkeeping.

    ``deaths`` counts how many pool breaks this task has been in flight
    for; ``solo`` marks a suspect task that must run with nothing else in
    flight so a further break attributes precisely.
    """

    batch: tuple["TrialSpec", ...]
    submitted: float = 0.0
    deaths: int = 0
    solo: bool = False


class PoolHealer:
    """The plan-order queue of a breakable worker pool, with its recovery.

    The parallel source feeds it tasks (:meth:`dispatch`) and takes their
    outcomes back strictly in plan order (:meth:`step`).  It has two
    states.  *Windowed* (``replay`` empty): tasks run concurrently and
    the source keeps the window full.  *Replaying*, entered on a pool
    break: the lost window re-runs one entry at a time, in plan order,
    with nothing else in flight, and the source submits nothing new until
    ``replay`` drains.  A break is absorbed in four moves — harvest the
    chunks that finished before it, attribute it (:meth:`_respawn_pool`),
    respawn, and decide each lost trial's fate (:meth:`_partition`).

    ``pool`` is the only way out: ``pool.submit_chunk(task, heartbeat)``
    returns a future of the chunk's ``(payloads, meta)``, and
    ``pool.replace_pool(streak)`` discards the broken pool and — unless
    ``streak`` is ``None``, meaning give up — backs off and forks a fresh
    one.  Kill counts and the respawn streak live here; so does the
    heartbeat directory the workers mark, removed by :meth:`close`.
    """

    def __init__(self, pool: Any, retries: int = 0) -> None:
        self.pool = pool
        self.retries = retries
        self.telemetry: "TelemetryRecorder | None" = None
        #: ``(future, task)`` pairs in flight, in plan order.
        self.window: deque[tuple[Any, ChunkTask]] = deque()
        #: The lost window awaiting replay: ``("run", task)``,
        #: ``("ready", task, (payloads, meta))`` or ``("done", spec, result)``.
        self.replay: deque[tuple[Any, ...]] = deque()
        #: Pools replaced since the last :meth:`reset` (0 on a healthy run).
        self.respawns = 0
        self._kills: dict[int, int] = {}
        self._streak = 0
        self._heartbeat_dir: str | None = None
        self._hb_finalizer: weakref.finalize | None = None

    def reset(self, telemetry: "TelemetryRecorder | None" = None) -> None:
        """Start a stream: nothing in flight, no kills, no streak."""
        self.telemetry = telemetry
        self.window.clear()
        self.replay.clear()
        self.respawns = 0
        self._kills = {}
        self._streak = 0

    @property
    def pending(self) -> bool:
        """Whether any outcome is still to come."""
        return bool(self.window or self.replay)

    def dispatch(self, task: ChunkTask) -> None:
        """Submit ``task`` behind everything in flight.  A pool that broke
        since the last step refuses the submission; the task then waits
        as a failed future, and the break is absorbed in plan order."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        try:
            future = self.pool.submit_chunk(task, self._ensure_heartbeat_dir())
        except BrokenProcessPool as exc:
            future = Future()
            future.set_exception(exc)
        self.window.append((future, task))

    def step(self) -> Any:
        """The next outcome in plan order: ``(task, payloads, meta)`` for
        a chunk that ran, a quarantined :class:`TrialResult` for a poison
        trial, or ``None`` when a pool break was absorbed instead (its
        lost window is then queued on ``replay``)."""
        if not self.window:
            entry = self.replay.popleft()
            if entry[0] == "done":
                return self._settle(entry[1], entry[2])
            if entry[0] == "ready":
                return self._completed(entry[1], *entry[2])
            self.dispatch(entry[1])
        # Imported where a pool runs: a serial run loads no process pool.
        from concurrent.futures.process import BrokenProcessPool

        future, task = self.window.popleft()
        try:
            payloads, meta = future.result()
        except BrokenProcessPool:
            self._absorb(task)
            return None
        return self._completed(task, payloads, meta)

    def _completed(
        self, task: ChunkTask, payloads: Any, meta: Any
    ) -> tuple[ChunkTask, Any, Any]:
        """A chunk finished: the streak ends and its trials' kills clear."""
        self._streak = 0
        for spec in task.batch:
            self._kills.pop(spec.index, None)
        return task, payloads, meta

    def _settle(self, spec: "TrialSpec", result: TrialResult) -> TrialResult:
        """A poison trial leaves the queue as its quarantine record."""
        if self.telemetry is not None:
            self.telemetry.record_poison(spec.index, self._kills.get(spec.index, 0))
            now = time.time()
            self.telemetry.record_trial(spec, result, now, now)
        return result

    def _absorb(self, first_dead: ChunkTask) -> None:
        """Absorb a break: harvest, attribute and respawn, then queue the
        whole window for replay, in plan order, ahead of anything already
        queued.  Chunks that finished before the break keep their results;
        only genuinely lost ones re-run."""
        from concurrent.futures.process import BrokenProcessPool

        lost: list[tuple[ChunkTask, Any]] = [(first_dead, None)]
        for future, task in self.window:
            outcome = None
            if future.done():
                with contextlib.suppress(BrokenProcessPool):
                    outcome = future.result()
            else:
                future.cancel()
            lost.append((task, outcome))
        self.window.clear()
        suspects = self._respawn_pool(
            spec.index
            for task, outcome in lost if outcome is None
            for spec in task.batch
        )
        entries: list[tuple[Any, ...]] = []
        for task, outcome in lost:
            if outcome is None:
                entries.extend(self._partition(task, suspects))
            else:
                entries.append(("ready", task, outcome))
        self.replay.extendleft(reversed(entries))

    def _respawn_pool(self, incomplete: Iterable[int]) -> set[int]:
        """Attribute one pool break, replace the pool, and return the
        *suspect* trial indices.

        With exactly one trial in flight the break is precisely
        attributed — its kill count increments (and only such isolated
        kills ever count toward quarantine).  Otherwise the dead workers'
        heartbeat marks name the trials that were running; those suspects
        are re-run in isolation so a repeat offence *is* precise.  Raises
        :class:`WorkerPoolError` after :func:`max_consecutive_respawns`
        breaks with no completed chunk in between (the streak resets on
        every completed chunk).
        """
        self.respawns += 1
        self._streak += 1
        limit = max_consecutive_respawns(self.retries)
        if self._streak > limit:
            self.pool.replace_pool(None)
            raise WorkerPoolError(
                f"worker pool broke {self._streak} consecutive "
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
        self.pool.replace_pool(self._streak)
        return suspects

    def _partition(
        self, task: ChunkTask, suspects: set[int]
    ) -> list[tuple[Any, ...]]:
        """Decide a dead task's fate trial by trial, preserving order.

        Returns an ordered entry list: ``("done", spec, result)`` for
        trials quarantined as poison (kill count reached
        :func:`quarantine_threshold`), ``("run", ChunkTask)`` for
        everything that re-executes — suspects as isolated single-trial
        tasks, clean trials regrouped into contiguous runs.  A task that
        has been in flight for :data:`SPLIT_AFTER_DEATHS` breaks splits
        entirely into isolated singles (the heartbeat-less fallback).
        """
        threshold = quarantine_threshold(self.retries)
        task.deaths += 1
        split_all = len(task.batch) > 1 and task.deaths >= SPLIT_AFTER_DEATHS
        entries: list[tuple[Any, ...]] = []
        group: list["TrialSpec"] = []
        for spec in task.batch:
            if self._kills.get(spec.index, 0) >= threshold:
                entry: tuple[Any, ...] = (
                    "done", spec, quarantined_result(spec, 0.0)
                )
            elif split_all or spec.index in suspects:
                entry = ("run", ChunkTask(
                    batch=(spec,), deaths=task.deaths, solo=True,
                ))
            else:
                group.append(spec)
                continue
            if group:
                entries.append(
                    ("run", ChunkTask(batch=tuple(group), deaths=task.deaths))
                )
                group = []
            entries.append(entry)
        if group:
            entries.append(
                ("run", ChunkTask(batch=tuple(group), deaths=task.deaths))
            )
        if self.telemetry is not None:
            for entry in entries:
                if entry[0] == "run":
                    self.telemetry.record_redispatch(
                        len(entry[1].batch), entry[1].deaths, split=entry[1].solo
                    )
        return entries

    # ------------------------------------------------------------------
    # The heartbeat directory (one per healer, marked by its pool's workers)
    # ------------------------------------------------------------------

    def _ensure_heartbeat_dir(self) -> str:
        """The private directory workers write trial heartbeats to."""
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

    def close(self) -> None:
        """Remove the heartbeat directory (the next dispatch makes another)."""
        if self._heartbeat_dir is not None:
            self._hb_finalizer.detach()
            self._hb_finalizer = None
            shutil.rmtree(self._heartbeat_dir, ignore_errors=True)
            self._heartbeat_dir = None
