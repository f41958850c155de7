"""Tests for the simulator core (repro.sim.scheduler)."""

from __future__ import annotations

import pytest

from repro.sim.errors import SchedulingError
from repro.sim.events import EventQueue
from repro.sim.latency import ConstantDelay
from repro.sim.node import Process
from repro.sim.scheduler import Simulator


class TestClockAndScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_relative(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_at_absolute(self, sim):
        fired = []
        sim.at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)

    def test_at_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.at(2.0, lambda: None)

    def test_call_soon_runs_at_current_time(self, sim):
        fired = []
        sim.schedule(2.0, lambda: sim.call_soon(lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.0]

    def test_run_until_stops_clock(self, sim):
        sim.schedule(10.0, lambda: None)
        end = sim.run(until=4.0)
        assert end == 4.0
        assert sim.now == 4.0
        # The pending event survives and fires on the next run.
        assert len(sim.queue) == 1

    def test_run_until_includes_boundary_events(self, sim):
        fired = []
        sim.schedule(4.0, lambda: fired.append(True))
        sim.run(until=4.0)
        assert fired == [True]

    def test_run_advances_to_until_when_queue_drains(self, sim):
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events_guard(self, sim):
        def reschedule():
            sim.schedule(0.1, reschedule)

        sim.schedule(0.1, reschedule)
        with pytest.raises(SchedulingError, match=r"exceeded max_events=100; runaway"):
            sim.run(max_events=100)
        assert sim.events_executed == 100

    def test_events_executed_counter(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_executed == 2

    def test_max_events_budget_is_per_call(self, sim):
        """A resumed run gets a fresh ``max_events`` budget: the guard is
        per call, while ``events_executed`` keeps the lifetime total."""
        def tick():
            if sim.now < 20.0:
                sim.schedule(0.1, tick)

        sim.schedule(0.1, tick)
        sim.run(until=6.0, max_events=100)
        first_leg = sim.events_executed
        assert first_leg <= 100
        # The second leg executes about as many events again; it must NOT
        # raise even though the lifetime total exceeds the per-call budget.
        sim.run(until=12.0, max_events=100)
        assert sim.events_executed > 100
        assert sim.events_executed > first_leg

    def test_max_events_exhausted_on_single_call(self, sim):
        def tick():
            sim.schedule(0.1, tick)

        sim.schedule(0.1, tick)
        with pytest.raises(SchedulingError):
            sim.run(until=1000.0, max_events=50)

    def test_step_returns_false_on_empty(self, sim):
        assert sim.step() is False

    def test_nested_scheduling_ordering(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(1.0, lambda: order.append("b"))
        sim.schedule(0.5, lambda: order.append("c"))
        sim.run()
        assert order == ["c", "a", "b"]


@pytest.fixture(params=["heap", "calendar"])
def any_sim(request):
    """A simulator on either queue backend (the calendar one holding six
    far-future events)."""
    sim = Simulator(seed=1)
    if request.param == "calendar":
        sim.queue = EventQueue(calendar_threshold=4)
        for i in range(6):
            sim.schedule(50.0 + i, lambda: None)
        assert sim.queue.backend == "calendar"
    return sim


class TestBareEventCancel:
    """``sim.schedule(...).cancel()`` with no ``note_cancelled()``: the run
    must end normally on both queue backends (it used to die with ``pop
    from empty event queue`` once only cancelled entries were left)."""

    def test_only_event_cancelled(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(1.0, lambda: fired.append(1)).cancel()
        assert sim.run() == 0.0
        assert fired == [] and len(sim.queue) == 0
        assert sim.step() is False

    def test_only_event_cancelled_with_until(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: None).cancel()
        assert sim.run(until=5.0) == 5.0
        assert len(sim.queue) == 0

    def test_head_and_middle_cancelled(self, any_sim):
        sim, fired = any_sim, []
        events = [
            sim.schedule(float(t), lambda t=t: fired.append(t))
            for t in range(1, 6)
        ]
        events[0].cancel()
        events[2].cancel()
        events[2].cancel()
        sim.run()
        assert fired == [2, 4, 5]
        assert len(sim.queue) == 0

    def test_cancelled_from_inside_an_event(self, any_sim):
        sim, fired = any_sim, []
        last = sim.schedule(3.0, lambda: fired.append("last"))
        sim.schedule(1.0, last.cancel)
        sim.schedule(2.0, lambda: fired.append("kept"))
        sim.run(until=100.0)
        assert fired == ["kept"]
        assert len(sim.queue) == 0

    def test_step_loop_ends_on_cancelled_tail(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        steps = 0
        while sim.step():
            steps += 1
        assert steps == 1 and len(sim.queue) == 0


class TestCancel:
    """``Simulator.cancel``, the one cancellation path: it takes a pending
    event out of ``len(queue)`` at once, and a fired, cancelled or cleared
    event is left alone."""

    def test_cancel_skips_and_uncounts_the_event(self, any_sim):
        sim, fired = any_sim, []
        pending = len(sim.queue)
        event = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        sim.cancel(event)
        sim.cancel(event)  # a second cancel counts nothing
        assert len(sim.queue) == pending + 1
        assert event.cancelled and event.action is None
        sim.run(until=3.0)
        assert fired == ["kept"]

    def test_a_fired_event_holds_nothing_and_cancels_to_nothing(self, any_sim):
        sim = any_sim
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert fired.action is None and not fired.cancelled
        pending = len(sim.queue)
        sim.cancel(fired)
        assert len(sim.queue) == pending and not fired.cancelled

    def test_cancel_from_inside_its_own_action_is_a_noop(self):
        sim = Simulator(seed=1)
        handle = []
        handle.append(sim.schedule(1.0, lambda: sim.cancel(handle[0])))
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert len(sim.queue) == 1

    def test_cancel_after_close_is_a_noop(self):
        sim = Simulator(seed=1)
        event = sim.schedule(1.0, lambda: None)
        sim.close()
        sim.cancel(event)
        assert len(sim.queue) == 0 and not event.cancelled


class TestRandomStreams:
    def test_rng_for_is_cached(self, sim):
        assert sim.rng_for("x") is sim.rng_for("x")

    def test_rng_for_distinct_names(self, sim):
        a = sim.rng_for("a")
        b = sim.rng_for("b")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_process_rng_deterministic_across_sims(self):
        s1, s2 = Simulator(seed=9), Simulator(seed=9)
        assert s1.process_rng(3).random() == s2.process_rng(3).random()

    def test_seed_changes_streams(self):
        s1, s2 = Simulator(seed=1), Simulator(seed=2)
        assert s1.rng_for("x").random() != s2.rng_for("x").random()


class TestMembership:
    def test_new_pid_monotonic(self, sim):
        pids = [sim.new_pid() for _ in range(5)]
        assert pids == sorted(pids)
        assert len(set(pids)) == 5

    def test_new_qid_independent_of_pid(self, sim):
        assert sim.new_qid() == 0
        sim.new_pid()
        assert sim.new_qid() == 1

    def test_spawn_assigns_pid_and_attaches(self, sim):
        proc = sim.spawn(Process(value=7))
        assert proc.pid >= 0
        assert proc.alive
        assert sim.network.is_present(proc.pid)

    def test_spawn_with_explicit_pid(self, sim):
        proc = sim.spawn(Process(), pid=99)
        assert proc.pid == 99

    def test_kill_removes(self, sim):
        proc = sim.spawn(Process())
        sim.kill(proc.pid)
        assert not proc.alive
        assert not sim.network.is_present(proc.pid)

    def test_schedule_join_uses_chooser(self, sim):
        anchor = sim.spawn(Process())
        chosen = []

        def choose(present):
            chosen.append(set(present))
            return [anchor.pid]

        sim.schedule_join(2.0, Process, choose)
        sim.run()
        assert chosen == [{anchor.pid}]
        assert len(sim.network.present()) == 2

    def test_schedule_leave_noop_if_gone(self, sim):
        proc = sim.spawn(Process())
        sim.schedule_leave(1.0, proc.pid)
        sim.schedule_leave(2.0, proc.pid)  # second leave is a no-op
        sim.run()
        assert not sim.network.is_present(proc.pid)

    def test_join_leave_traced(self, sim):
        proc = sim.spawn(Process(value=3))
        sim.kill(proc.pid)
        joins = sim.trace.events("join")
        leaves = sim.trace.events("leave")
        assert len(joins) == 1 and joins[0]["entity"] == proc.pid
        assert joins[0]["value"] == 3
        assert len(leaves) == 1 and leaves[0]["entity"] == proc.pid


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        def run(seed: int):
            simulator = Simulator(seed=seed, delay_model=ConstantDelay(1.0))
            from tests.conftest import spawn_line

            pids = spawn_line(simulator, 5)
            node = simulator.network.process(pids[0])
            node.issue_query()
            simulator.run(until=100)
            return [(e.time, e.kind, tuple(sorted(e.data.items()))) for e in simulator.trace]

        assert run(7) == run(7)

    def test_different_seeds_differ(self):
        def run(seed: int):
            simulator = Simulator(seed=seed)  # uniform delays -> randomness
            from tests.conftest import spawn_line

            pids = spawn_line(simulator, 5)
            simulator.network.process(pids[0]).issue_query()
            simulator.run(until=100)
            return [(e.time, e.kind) for e in simulator.trace]

        assert run(1) != run(2)
