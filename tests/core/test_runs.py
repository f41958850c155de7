"""Tests for the run formalism (repro.core.runs)."""

from __future__ import annotations

import math
import pickle

import pytest

from repro.core.runs import FOREVER, Interval, Run, union_entities
from repro.sim.trace import TraceEvent, TraceLog


def make_run() -> Run:
    """Entities: 0 in [0, inf); 1 in [0, 5); 2 in [2, 8); 3 in [6, inf)."""
    return Run(
        {
            0: Interval(0.0),
            1: Interval(0.0, 5.0),
            2: Interval(2.0, 8.0),
            3: Interval(6.0),
        },
        horizon=10.0,
    )


class TestInterval:
    def test_contains_half_open(self):
        iv = Interval(1.0, 3.0)
        assert iv.contains(1.0)
        assert iv.contains(2.9)
        assert not iv.contains(3.0)
        assert not iv.contains(0.5)

    def test_covers(self):
        iv = Interval(1.0, 5.0)
        assert iv.covers(1.0, 4.0)
        assert not iv.covers(0.5, 4.0)
        assert not iv.covers(2.0, 5.0)  # leave is exclusive

    def test_overlaps(self):
        iv = Interval(2.0, 4.0)
        assert iv.overlaps(3.0, 10.0)
        assert iv.overlaps(0.0, 2.0)
        assert not iv.overlaps(4.0, 5.0)
        assert not iv.overlaps(0.0, 1.0)

    def test_forever_interval(self):
        iv = Interval(1.0)
        assert iv.leave == FOREVER
        assert iv.contains(1e12)
        assert iv.covers(1.0, 1e12)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5.0, 3.0)

    def test_length(self):
        assert Interval(1.0, 4.0).length == 3.0
        assert math.isinf(Interval(1.0).length)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_an_immutable_value(self, protocol):
        iv = Interval(1.0, 4.0)
        assert pickle.loads(pickle.dumps(iv, protocol=protocol)) == iv
        assert type(pickle.loads(pickle.dumps(iv, protocol=protocol))) is Interval
        assert {iv: 1}[Interval(1.0, 4.0)] == 1
        assert repr(Interval(1.0)) == "Interval(join=1.0, leave=inf)"
        with pytest.raises(AttributeError):
            iv.join = 0.0  # type: ignore[misc]


class TestRunConstruction:
    def test_from_trace(self):
        log = TraceLog()
        log.record(0.0, "join", entity=0, value=1)
        log.record(1.0, "join", entity=1, value=2)
        log.record(4.0, "leave", entity=1)
        run = Run.from_trace(log, horizon=10.0)
        assert run.entities() == {0, 1}
        assert run.interval(0) == Interval(0.0, FOREVER)
        assert run.interval(1) == Interval(1.0, 4.0)

    def test_from_trace_default_horizon(self):
        log = TraceLog()
        log.record(0.0, "join", entity=0)
        log.record(7.0, "leave", entity=0)
        assert Run.from_trace(log).horizon == 7.0

    def test_double_join_rejected(self):
        log = TraceLog()
        log.record(0.0, "join", entity=0)
        log.record(1.0, "join", entity=0)
        with pytest.raises(ValueError):
            Run.from_trace(log)

    def test_rejoin_after_leave_rejected(self):
        # Entity ids are never reused: a re-join is malformed.
        log = TraceLog()
        log.record(0.0, "join", entity=0)
        log.record(1.0, "leave", entity=0)
        log.record(2.0, "join", entity=0)
        with pytest.raises(ValueError):
            Run.from_trace(log)

    def test_leave_without_join_rejected(self):
        log = TraceLog()
        log.record(1.0, "leave", entity=0)
        with pytest.raises(ValueError):
            Run.from_trace(log)

    def test_leave_before_join_rejected(self):
        events = [TraceEvent(5.0, "join", {"entity": 0}),
                  TraceEvent(3.0, "leave", {"entity": 0})]
        with pytest.raises(ValueError, match="leave 3.0 before join 5.0"):
            Run.from_trace(events)

    def test_static_constructor(self):
        run = Run.static(5, horizon=100.0)
        assert len(run) == 5
        assert run.present_at(50.0) == frozenset(range(5))

    def test_join_values_and_event_iterables(self):
        events = [
            TraceEvent(0.0, "join", {"entity": 0, "value": 3}),
            TraceEvent(1.0, "join", {"entity": 1}),
            TraceEvent(2.0, "edge_up", {"a": 0, "b": 1}),
        ]
        run = Run.from_trace(iter(events))
        assert run.values == {0: 3, 1: None}
        assert run.horizon == 1.0  # the last membership event
        assert run.edges() == [(0, 1)]  # a one-shot iterator is kept

    def test_a_run_without_events_has_no_edges(self):
        run = Run.static(3, horizon=1.0)
        assert run.edges() == []
        assert run.reachable(0, 0.0, deadline=1.0) == {0}
        assert run.snapshot(0.5).edge_count() == 0


class TestLazyEdgeIntervals:
    """Checking a trial's specification reads presence only: the edge
    intervals are built on the first edge, journey or snapshot query."""

    def test_a_checked_trial_builds_no_edge_intervals(self):
        from repro.engine.trials import QueryConfig, run_query

        outcome = run_query(QueryConfig(n=12, topology="ring", seed=3))
        assert outcome.verdict.terminated
        assert outcome.run._adjacency is None
        assert outcome.run.edges()  # the first query builds them ...
        built = outcome.run._adjacency
        assert outcome.run.snapshot(1.0).is_connected()
        assert outcome.run._adjacency is built  # ... once


class TestMembershipQueries:
    def test_present_at(self):
        run = make_run()
        assert run.present_at(0.0) == {0, 1}
        assert run.present_at(3.0) == {0, 1, 2}
        assert run.present_at(5.0) == {0, 2}  # [join, leave)
        assert run.present_at(7.0) == {0, 2, 3}
        assert run.present_at(9.0) == {0, 3}

    def test_stable_core(self):
        run = make_run()
        assert run.stable_core(0.0, 4.0) == {0, 1}
        assert run.stable_core(2.0, 7.0) == {0, 2}
        assert run.stable_core(6.5, 9.0) == {0, 3}

    def test_stable_core_empty_window_rejected(self):
        with pytest.raises(ValueError):
            make_run().stable_core(5.0, 4.0)

    def test_transients(self):
        run = make_run()
        assert run.transients(0.0, 6.0) == {1, 2, 3}
        assert run.transients(0.0, 1.0) == frozenset()

    def test_contains(self):
        run = make_run()
        assert 0 in run
        assert 99 not in run


class TestDynamicsMeasures:
    def test_concurrency(self):
        run = make_run()
        assert run.concurrency(3.0) == 3
        assert run.concurrency(9.0) == 2

    def test_max_concurrency(self):
        assert make_run().max_concurrency() == 3

    def test_max_concurrency_back_to_back(self):
        # Leave at t and join at t must not double count (half-open).
        run = Run({0: Interval(0.0, 5.0), 1: Interval(5.0, 9.0)}, horizon=10.0)
        assert run.max_concurrency() == 1

    def test_max_concurrency_empty(self):
        assert Run({}, horizon=1.0).max_concurrency() == 0

    def test_arrival_count(self):
        run = make_run()
        assert run.arrival_count() == 4
        assert run.arrival_count(up_to=2.0) == 3

    def test_last_arrival_time(self):
        assert make_run().last_arrival_time() == 6.0
        assert Run({}, horizon=1.0).last_arrival_time() == 0.0

    def test_quiescent_from(self):
        assert make_run().quiescent_from() == 8.0

    def test_churn_events(self):
        run = make_run()
        # joins at 0,0,2,6; leaves at 5,8
        assert run.churn_events(0.0, 10.0) == 6
        assert run.churn_events(1.0, 5.5) == 2

    def test_churn_rate(self):
        run = make_run()
        assert run.churn_rate(0.0, 10.0) == pytest.approx(0.6)
        with pytest.raises(ValueError):
            run.churn_rate(3.0, 3.0)

    def test_mean_session_length(self):
        run = make_run()
        # departed sessions: [0,5) length 5 and [2,8) length 6
        assert run.mean_session_length() == pytest.approx(5.5)

    def test_mean_session_length_no_departures(self):
        run = Run.static(3, horizon=5.0)
        assert math.isinf(run.mean_session_length())

    def test_repr(self):
        assert "entities=4" in repr(make_run())


def test_union_entities():
    a = Run({0: Interval(0.0)}, horizon=1.0)
    b = Run({1: Interval(0.0)}, horizon=1.0)
    assert union_entities([a, b]) == {0, 1}
