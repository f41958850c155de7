"""Self-healing warm pool: the pieces, unit by unit.

The pure policy (backoff schedule, respawn bounds, quarantine threshold),
kill attribution, partition and replay order run on a stand-in pool, and
the heartbeat slot on real files; none of them needs a worker to die.
That a SIGKILLed bystander or a poison trial never perturbs the document
is the ``kill`` / ``lethal`` disruption of
``tests/engine/test_conformance.py``; a plan where every trial is lethal
aborts here.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.engine.executor as executor_module
import repro.engine.recovery.healing as healing
from repro.engine.executor import ParallelExecutor, run_plan
from repro.engine.recovery.healing import (
    MAX_RESPAWN_BACKOFF_S,
    RESPAWN_BACKOFF_S,
    SPLIT_AFTER_DEATHS,
    ChunkTask,
    PoolHealer,
    WorkerPoolError,
    max_consecutive_respawns,
    quarantine_threshold,
    respawn_backoff,
)
from repro.sim.errors import ConfigurationError
from tests.engine.conftest import PLAN, fork_only


class TestPolicy:
    """The pure policy pieces, no forking involved."""

    def test_backoff_doubles_from_floor_to_ceiling(self):
        assert respawn_backoff(1) == RESPAWN_BACKOFF_S
        assert respawn_backoff(2) == 2 * RESPAWN_BACKOFF_S
        assert respawn_backoff(3) == 4 * RESPAWN_BACKOFF_S
        assert respawn_backoff(100) == MAX_RESPAWN_BACKOFF_S
        schedule = [respawn_backoff(n) for n in range(1, 10)]
        assert schedule == sorted(schedule)
        with pytest.raises(ConfigurationError, match=">= 1"):
            respawn_backoff(0)

    def test_respawn_bound_scales_with_retries(self):
        assert max_consecutive_respawns(0) == 6
        assert max_consecutive_respawns(2) == 6
        assert max_consecutive_respawns(5) == 9
        # Always room for a poison trial to burn its quarantine budget.
        for retries in range(8):
            assert max_consecutive_respawns(retries) > quarantine_threshold(
                retries
            )

    def test_quarantine_threshold_is_retries_plus_two(self):
        assert quarantine_threshold(0) == 2
        assert quarantine_threshold(3) == 5
        with pytest.raises(ConfigurationError, match=">= 0"):
            quarantine_threshold(-1)


def mark_as(pid, directory, index):
    """Write a mark the way a worker does (:func:`_mark_heartbeat`), as
    the worker ``pid`` that has not marked anything yet."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "getpid", lambda: pid)
        mp.setattr(healing, "_heartbeat_slot", (None, None))
        healing._mark_heartbeat(directory, index)


class StubPool:
    """The two calls a :class:`PoolHealer` makes on its pool, with no pool
    behind them: every chunk finishes at submission (its payloads are its
    trials' plan indices), except the submissions numbered in ``broken``,
    which die with the pool, and in ``refused``, which a pool that already
    broke turns away."""

    def __init__(self, broken=(), refused=()):
        self.broken = set(broken)
        self.refused = set(refused)
        self.submitted = []
        self.replaced = []

    def submit_chunk(self, task, heartbeat):
        if len(self.submitted) in self.refused:
            self.refused.discard(len(self.submitted))
            raise BrokenProcessPool("the pool broke before this submission")
        future = Future()
        if len(self.submitted) in self.broken:
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(([spec.index for spec in task.batch], {}))
        self.submitted.append(task)
        return future

    def replace_pool(self, streak):
        self.replaced.append(streak)


class TestAttribution:
    """Kill attribution and redispatch partitioning, unit-level: the
    healer drives a stand-in pool, so nothing forks."""

    @pytest.fixture()
    def executor(self, monkeypatch, no_backoff):
        ex = PoolHealer(StubPool())
        yield ex
        ex.close()

    def test_lone_flight_break_counts_a_kill(self, executor):
        assert executor._respawn_pool([5]) == {5}
        assert executor._respawn_pool([5]) == {5}
        assert executor._kills[5] == 2
        assert executor.respawns == 2

    def test_multi_flight_break_uses_heartbeat_marks(self, executor):
        mark_as(12345, executor._ensure_heartbeat_dir(), 7)
        suspects = executor._respawn_pool([5, 7, 9])
        # The heartbeat names trial 7; a multi-flight break is never
        # proof, so no kill is counted yet — 7 just re-runs in isolation.
        assert suspects == {7}
        assert executor._kills == {}

    def test_heartbeats_are_consumed_per_break(self, executor):
        mark_as(1, executor._ensure_heartbeat_dir(), 3)
        assert executor._respawn_pool([3, 4]) == {3}
        # The mark was consumed: the next break sees a clean slate.
        assert executor._respawn_pool([3, 4]) == set()

    def test_respawn_streak_bound_raises(self, executor):
        limit = max_consecutive_respawns(executor.retries)
        for _ in range(limit):
            executor._respawn_pool([0])
        with pytest.raises(WorkerPoolError, match="giving up"):
            executor._respawn_pool([0])

    def test_partition_isolates_suspects_and_groups_the_rest(self, executor):
        specs = PLAN.specs[2:7]
        task = ChunkTask(batch=tuple(specs))
        entries = executor._partition(task, suspects={specs[2].index})
        kinds = [entry[0] for entry in entries]
        assert kinds == ["run", "run", "run"]
        first, solo, rest = (entry[1] for entry in entries)
        assert [s.index for s in first.batch] == [specs[0].index,
                                                  specs[1].index]
        assert solo.solo and [s.index for s in solo.batch] == [specs[2].index]
        assert [s.index for s in rest.batch] == [specs[3].index,
                                                 specs[4].index]

    def test_partition_quarantines_at_threshold(self, executor):
        spec = PLAN.specs[3]
        executor._kills[spec.index] = quarantine_threshold(executor.retries)
        task = ChunkTask(batch=(spec,))
        entries = executor._partition(task, suspects=set())
        assert len(entries) == 1
        kind, done_spec, result = entries[0]
        assert (kind, done_spec) == ("done", spec)
        assert result.status == "quarantined"
        assert result.ok is False and result.wall_time == 0.0
        assert result.error == float("inf")
        assert result.point == tuple(spec.point_dict().items())

    def test_heartbeat_less_fallback_splits_after_deaths(self, executor):
        specs = PLAN.specs[0:3]
        task = ChunkTask(batch=tuple(specs))
        entries = executor._partition(task, suspects=set())
        assert [e[0] for e in entries] == ["run"]  # first death: regrouped
        survivor = entries[0][1]
        assert survivor.deaths == 1
        entries = executor._partition(survivor, suspects=set())
        # Death number SPLIT_AFTER_DEATHS: no heartbeat ever named a
        # suspect, so the whole chunk splits into isolated singles.
        assert survivor.deaths == SPLIT_AFTER_DEATHS
        assert [e[0] for e in entries] == ["run", "run", "run"]
        assert all(e[1].solo and len(e[1].batch) == 1 for e in entries)


class TestReplayOrder:
    """What happens after a break, stepped by hand on a stand-in pool."""

    def test_a_chunk_finished_behind_the_dead_one_follows_its_rerun(self):
        pool = StubPool(broken={0})
        healer = PoolHealer(pool)
        try:
            dead = ChunkTask(batch=tuple(PLAN.specs[0:3]))
            finished = ChunkTask(batch=tuple(PLAN.specs[3:5]))
            healer.dispatch(dead)
            healer.dispatch(finished)
            assert healer.step() is None  # the break, absorbed
            assert [entry[0] for entry in healer.replay] == ["run", "ready"]
            outcomes = []
            while healer.pending:
                outcomes.append(healer.step())
        finally:
            healer.close()
        rerun, harvested = (task for task, _, _ in outcomes)
        assert [s.index for s in rerun.batch] == [0, 1, 2]
        assert rerun.deaths == 1 and not rerun.solo
        assert harvested is finished
        consumed = [index for _, payloads, _ in outcomes for index in payloads]
        assert consumed == [0, 1, 2, 3, 4]
        # Only the dead chunk ran again; the harvested one kept its result.
        assert pool.submitted == [dead, finished, rerun]
        assert pool.replaced == [1] and healer.respawns == 1


    def test_a_refused_submission_is_absorbed_as_a_break(self):
        pool = StubPool(refused={1})
        healer = PoolHealer(pool)
        try:
            healer.dispatch(ChunkTask(batch=tuple(PLAN.specs[0:2])))
            healer.dispatch(ChunkTask(batch=tuple(PLAN.specs[2:4])))
            outcomes = [healer.step() for _ in range(3)]
            assert not healer.pending
        finally:
            healer.close()
        assert outcomes[1] is None  # the break, absorbed in plan order
        consumed = [i for outcome in outcomes if outcome for i in outcome[1]]
        assert consumed == [0, 1, 2, 3]
        assert pool.replaced == [1] and healer.respawns == 1


class TestHeartbeatSlot:
    """The death-attribution channel itself: one memory-mapped slot per
    worker pid.  Counted, never timed."""

    @pytest.fixture()
    def executor(self, monkeypatch):
        # Every test starts as a worker that has not marked anything.
        monkeypatch.setattr(healing, "_heartbeat_slot", (None, None))
        ex = PoolHealer(StubPool())
        yield ex
        ex.close()

    def test_marks_after_the_first_make_no_system_call(
        self, executor, monkeypatch
    ):
        hb = executor._ensure_heartbeat_dir()
        healing._mark_heartbeat(hb, 0)
        calls = {"os.open": 0, "open": 0, "os.replace": 0, "os.rename": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as mp:
            mp.setattr(os, "open", counted("os.open", os.open))
            mp.setattr("builtins.open", counted("open", open))
            mp.setattr(os, "replace", counted("os.replace", os.replace))
            mp.setattr(os, "rename", counted("os.rename", os.rename))
            for index in range(1, 1001):
                healing._mark_heartbeat(hb, index)
        assert calls == {"os.open": 0, "open": 0, "os.replace": 0, "os.rename": 0}
        assert os.listdir(hb) == [f"{os.getpid()}.hb"]
        assert executor._read_heartbeats() == {os.getpid(): 1000}

    @fork_only
    def test_mark_outlives_a_sigkilled_worker(self, executor):
        hb = executor._ensure_heartbeat_dir()
        child = os.fork()
        if child == 0:  # the worker: mark 0..999, then die mid-"trial"
            try:
                for index in range(1000):
                    healing._mark_heartbeat(hb, index)
                os.kill(os.getpid(), signal.SIGKILL)
            finally:
                os._exit(1)
        _, status = os.waitpid(child, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        assert executor._read_heartbeats() == {child: 999}
        assert os.listdir(hb) == []

    def test_torn_short_and_empty_slots_yield_no_mark(self, executor):
        hb = executor._ensure_heartbeat_dir()
        pack = healing._HEARTBEAT.pack
        for name, content in {
            "11.hb": pack(3, 4),        # killed between the two stores
            "12.hb": b"abc",            # short
            "13.hb": b"",               # created, never written
            "14.hb": pack(5, 5) + b"x",  # long
            "15.hb": pack(6, 6),        # the one whole mark
            "stray": pack(7, 7),        # not a slot at all
        }.items():
            with open(os.path.join(hb, name), "wb") as handle:
                handle.write(content)
        assert executor._read_heartbeats() == {15: 6}
        assert os.listdir(hb) == []
        assert executor._read_heartbeats() == {}

    def test_unreadable_directory_is_no_marks(self, executor):
        hb = executor._ensure_heartbeat_dir()
        os.rmdir(hb)
        assert executor._read_heartbeats() == {}
        # ... and a worker that cannot open its slot just goes unmarked.
        healing._mark_heartbeat(hb, 1)
        healing._mark_heartbeat(hb, 2)
        assert not os.path.exists(hb)

    def test_a_change_of_directory_reopens_the_slot(self, executor):
        first = executor._ensure_heartbeat_dir()
        other = PoolHealer(StubPool())
        try:
            second = other._ensure_heartbeat_dir()
            healing._mark_heartbeat(first, 1)
            healing._mark_heartbeat(first, 2)
            healing._mark_heartbeat(second, 8)
            healing._mark_heartbeat(second, 9)
            assert executor._read_heartbeats() == {os.getpid(): 2}
            assert other._read_heartbeats() == {os.getpid(): 9}
            # Back again: a fresh file, not the consumed (unlinked) one.
            healing._mark_heartbeat(first, 3)
            assert executor._read_heartbeats() == {os.getpid(): 3}
        finally:
            other.close()

    def test_close_removes_the_directory(self, executor):
        hb = executor._ensure_heartbeat_dir()
        healing._mark_heartbeat(hb, 4)
        assert os.path.isdir(hb)
        executor.close()
        assert not os.path.exists(hb)
        assert executor._read_heartbeats() == {}


@fork_only
def test_everything_poison_aborts_with_worker_pool_error(monkeypatch, no_backoff):
    def lethal(spec):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(executor_module, "execute_trial", lethal)
    executor = ParallelExecutor(jobs=2, chunk=2)
    try:
        with pytest.raises(WorkerPoolError, match="giving up"):
            run_plan(PLAN, executor=executor)
    finally:
        executor.close()
