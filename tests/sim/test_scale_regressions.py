"""Regression tests for the scale refactor's specific hot-path guarantees.

Each test pins one of the O(n)-scan eliminations or memory bounds the
10⁵-entity work depends on, so a later "harmless" refactor cannot quietly
reintroduce a linear cost:

* ``Network.remove_process`` must not materialise the whole present set on
  a silent departure from a complete graph;
* cancelled events must not accumulate in either queue backend (tombstone
  compaction bounds storage by the live count);
* slot recycling keeps the slot arrays bounded by the peak population;
* ``sample_present`` / ``sample_neighbor`` draw uniformly without
  enumerating the population;
* building a population is linear: ``add_process`` validates attachment
  points in O(|neighbors|), ``schedule_join`` hands its chooser a view
  instead of a per-join copy of the membership, and ``process_rng``
  derives its seed namespace once — none of which may move a draw;
* a churn join or leave draws from the always-sorted membership index:
  no event copies or sorts the population.

Everything here is structural (traps, counts, bounds).  The two *timing*
shapes these mechanisms buy — per-entity spawn cost and per-replacement
cost flat in n — are asserted by ``benchmarks/emit_scale.py --check``,
never by tier-1: a wall-clock ratio is a property of the box too.
"""

from __future__ import annotations

import random

import pytest

from repro.churn.lifetimes import ExponentialLifetime
from repro.churn.models import ArrivalDepartureChurn, ReplacementChurn
from repro.obs.sinks import CountingSink
from repro.sim.errors import MembershipError
from repro.sim.events import (
    CalendarEventQueue,
    EventQueue,
    HeapEventQueue,
    _COMPACT_FLOOR,
)
from repro.sim.network import Network
from repro.sim.node import Process
from repro.sim.rng import SeedSequence
from repro.sim.scheduler import Simulator
from repro.sim.trace import TraceLog


class _Null(Process):
    pass


class _IterationTrap(dict):
    """A pid->slot mapping that forbids whole-table iteration.

    ``remove_process`` with ``notify_leaves=False`` on a complete graph
    must be O(degree-of-change), so it has no business walking every
    present pid.  Lookups and mutation stay legal; iteration raises.
    """

    def __iter__(self):
        raise AssertionError(
            "remove_process iterated the whole present-pid table"
        )

    def keys(self):
        raise AssertionError(
            "remove_process materialised the present-pid key view"
        )


class TestSilentLeaveIsSublinear:
    def test_complete_graph_silent_leave_never_scans_population(self):
        sim = Simulator(seed=1, complete=True, notify_leaves=False)
        pids = [sim.spawn(_Null(0)).pid for _ in range(64)]
        # Arm the trap after setup: joins may enumerate, leaves must not.
        sim.network._slot_of = _IterationTrap(sim.network._slot_of)
        sim.network.remove_process(pids[10])
        sim.network.remove_process(pids[20])
        assert sim.network.population() == 62

    def test_notifying_leave_still_reaches_everyone(self):
        seen = []

        class Watcher(Process):
            def on_neighbor_leave(self, pid):
                seen.append((self.pid, pid))

        sim = Simulator(seed=1, complete=True)
        pids = [sim.spawn(Watcher(0)).pid for _ in range(5)]
        sim.network.remove_process(pids[0])
        assert sorted(p for p, _ in seen) == sorted(pids[1:])


class TestTombstoneBound:
    @pytest.mark.parametrize("factory", [
        HeapEventQueue,
        CalendarEventQueue,
        lambda: EventQueue(calendar_threshold=None),
        lambda: EventQueue(calendar_threshold=1000),
    ])
    def test_cancelling_10k_events_keeps_storage_bounded(self, factory):
        queue = factory()
        keep = [queue.push(float(i), lambda: None) for i in range(100)]
        for i in range(10_000):
            event = queue.push(100.0 + i * 0.01, lambda: None)
            event.cancel()
            queue.note_cancelled()
            # Storage holds the live events plus at most max(live, floor)
            # tombstones: cancellation can never leak.
            assert queue.storage_size() <= 2 * max(len(queue), _COMPACT_FLOOR) + 1
        assert len(queue) == len(keep)
        times = [queue.pop().time for _ in range(len(keep))]
        assert times == sorted(times)

    def test_scheduler_timer_churn_does_not_leak(self):
        class Rearm(Process):
            def on_start(self):
                self.spare = self.set_timer(50.0, "spare")
                self.set_timer(1.0, "t")

            def on_timer(self, name, payload):
                # On every fire, cancel a pending timer and set a fresh one:
                # the spare never fires, and 10⁴ cancelled spares pass
                # through the queue.
                assert name == "t"
                self.cancel_timer(self.spare)
                self.spare = self.set_timer(50.0, "spare")
                self.set_timer(1.0, "t")

        sim = Simulator(seed=3)
        for _ in range(20):
            sim.spawn(Rearm(0))
        sim.run(until=500.0)
        assert len(sim.queue) == 2 * 20  # one tick and one spare each
        assert sim.queue.storage_size() <= 2 * max(len(sim.queue), _COMPACT_FLOOR) + 1


class TestSlotRecycling:
    def test_slots_bounded_by_peak_population(self):
        sim = Simulator(seed=5, complete=True, notify_leaves=False,
                        notify_joins=False)
        peak = 50
        pids = [sim.spawn(_Null(0)).pid for _ in range(peak)]
        for _ in range(10):  # 10 full churn generations
            for pid in pids:
                sim.network.remove_process(pid)
            pids = [sim.spawn(_Null(0)).pid for _ in range(peak)]
        assert sim.network.population() == peak
        assert len(sim.network._procs) <= peak + 1

    def test_recycled_slots_do_not_alias_old_neighbors(self):
        sim = Simulator(seed=6)
        a = sim.spawn(_Null(0)).pid
        b = sim.spawn(_Null(0), neighbors=[a]).pid
        sim.network.remove_process(a)
        c = sim.spawn(_Null(0)).pid  # reuses a's slot
        assert sim.network.neighbors(c) == frozenset()
        assert sim.network.neighbors(b) == frozenset()


class TestUniformSampling:
    def test_sample_present_uniform_and_excluding(self):
        sim = Simulator(seed=7, complete=True)
        pids = [sim.spawn(_Null(0)).pid for _ in range(8)]
        rng = random.Random(99)
        draws = {sim.network.sample_present(rng) for _ in range(400)}
        assert draws == set(pids)
        for _ in range(200):
            assert sim.network.sample_present(rng, exclude=pids[0]) != pids[0]

    def test_sample_neighbor_matches_membership(self):
        sim = Simulator(seed=8)
        a = sim.spawn(_Null(0)).pid
        b = sim.spawn(_Null(0), neighbors=[a]).pid
        c = sim.spawn(_Null(0), neighbors=[a]).pid
        rng = random.Random(1)
        draws = {sim.network.sample_neighbor(a, rng) for _ in range(100)}
        assert draws == {b, c}
        assert sim.network.sample_neighbor(b, rng) == a

    def test_random_neighbor_on_process(self):
        sim = Simulator(seed=9, complete=True)
        procs = [sim.spawn(_Null(0)) for _ in range(4)]
        target = procs[0].random_neighbor()
        assert target in {p.pid for p in procs[1:]}
        assert procs[0].degree() == 3
        sim.kill(procs[1].pid)
        with pytest.raises(MembershipError, match="is not present"):
            procs[1].random_neighbor()
        lone = Simulator(seed=11, complete=True).spawn(_Null(0))
        assert lone.random_neighbor() is None

    @pytest.mark.parametrize("seed", range(8))
    def test_random_neighbor_draws_as_randrange(self, seed):
        # ``random_neighbor`` draws ``rng.randrange(last)`` inline: the
        # same index, the same stream state after, for every ``last``.
        sim = Simulator(seed=seed, complete=True, notify_joins=False)
        network = sim.network
        procs = [sim.spawn(_Null(0))]
        shadow = random.Random()
        for last in range(1, 301):
            procs.append(sim.spawn(_Null(0)))
            for proc in (procs[0], procs[last // 2], procs[-1]):
                rng = proc.rng
                shadow.setstate(rng.getstate())
                other = network._slot_pid[network._dense[shadow.randrange(last)]]
                expected = (network._slot_pid[network._dense[last]]
                            if other == proc.pid else other)
                assert proc.random_neighbor() == expected
                assert rng.getstate() == shadow.getstate()


class TestPopulationBuildIsLinear:
    def test_absent_attachment_point_rejected_and_network_unchanged(self):
        sim = Simulator(seed=1)
        a = sim.spawn(_Null(0)).pid
        b = sim.spawn(_Null(0), neighbors=[a]).pid
        gone = sim.spawn(_Null(0)).pid
        sim.kill(gone)
        before = (sim.network.present(), sim.network.edges(), len(sim.trace))
        newcomer = _Null(0)
        newcomer.pid = 50
        with pytest.raises(MembershipError) as err:
            sim.network.add_process(newcomer, [99, b, gone, 7, a])
        assert str(err.value) == (
            f"cannot attach 50 to absent processes [{gone}, 7, 99]"
        )
        assert (sim.network.present(), sim.network.edges(),
                len(sim.trace)) == before
        assert not newcomer.alive
        # The same call with the absent pids dropped goes through.
        sim.network.add_process(newcomer, [b, a])
        assert sim.network.neighbors(50) == {a, b}

    def test_chooser_receives_a_read_only_view_of_the_membership(self):
        sim = Simulator(seed=4)
        pids = [sim.spawn(_Null(0)).pid for _ in range(5)]
        immortal = {pids[0]}
        seen = {}

        def choose(present):
            seen["snapshot"] = sim.network.present()
            seen["equal"] = present == seen["snapshot"]
            seen["sorted"] = sorted(present)
            seen["len"] = len(present)
            seen["in"] = (pids[1] in present, pids[2] in present, 99 in present)
            seen["minus"] = present - immortal
            seen["mutators"] = [
                name for name in ("add", "discard", "remove", "pop",
                                  "clear", "update", "__ior__", "__isub__")
                if hasattr(present, name)
            ]
            return [max(present)]

        sim.schedule_leave(1.0, pids[2])
        sim.schedule_join(2.0, lambda: _Null(0), choose)
        sim.run()
        expected = frozenset(pids) - {pids[2]}
        assert seen["snapshot"] == expected and seen["equal"]
        assert seen["sorted"] == sorted(expected)
        assert seen["len"] == 4
        assert seen["in"] == (True, False, False)
        assert seen["minus"] == expected - immortal
        assert isinstance(seen["minus"], (set, frozenset))
        assert seen["mutators"] == []
        newest = max(sim.network.present())
        assert sim.network.neighbors(newest) == {pids[-1]}

    @pytest.mark.parametrize("seed", [0, 7, 2007, 2**63 + 5])
    def test_process_rng_draws_match_the_seed_derivation(self, seed):
        sim = Simulator(seed=seed)
        for pid in (0, 1, 31, 99_999):
            reference = SeedSequence(seed).spawn("process").stream(pid)
            stream = sim.process_rng(pid)
            assert [stream.random() for _ in range(5)] == [
                reference.random() for _ in range(5)
            ]
            assert sim.process_rng(pid) is stream


class TestMembershipEventsNeverCopyThePopulation:
    """A join or a leave draws from ``Network.present_sorted()``; the O(n)
    ``present()`` snapshot belongs to set-up and analysis, not to events."""

    @staticmethod
    def _population(n: int) -> tuple[Simulator, list[int]]:
        sim = Simulator(seed=2007, trace_sink=CountingSink())
        pids = [sim.spawn(_Null(0)).pid]
        for _ in range(n - 1):
            pids.append(sim.spawn(_Null(0), neighbors=[pids[-1]]).pid)
        return sim, pids

    @pytest.mark.parametrize("make_churn", [
        lambda: ReplacementChurn(lambda: _Null(0), rate=20.0),
        lambda: ArrivalDepartureChurn(
            lambda: _Null(0), arrival_rate=20.0,
            lifetimes=ExponentialLifetime(2.0), doom_initial=True,
        ),
    ], ids=["replacement", "arrival-departure"])
    def test_churn_run_never_snapshots_the_membership(self, monkeypatch, make_churn):
        sim, pids = self._population(64)
        churn = make_churn()
        churn.immortal.add(pids[0])

        def trap(self):
            raise AssertionError("Network.present() called from an event")

        monkeypatch.setattr(Network, "present", trap)
        churn.install(sim)
        sim.run(until=10.0)
        assert churn.joins > 100 and churn.leaves > 100
        assert sim.network.is_present(pids[0])
