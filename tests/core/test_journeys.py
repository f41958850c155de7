"""Tests for time-varying graphs and journeys (repro.core.runs)."""

from __future__ import annotations

import pytest

from repro.core.runs import FOREVER, Run
from repro.sim.trace import TraceLog


def static_line_log(n: int = 4) -> TraceLog:
    """A line 0-1-2-...-(n-1), all present from t=0."""
    log = TraceLog()
    for i in range(n):
        neighbors = (i - 1,) if i > 0 else ()
        log.record(0.0, "join", entity=i, value=1.0, neighbors=neighbors)
    return log


class TestReconstruction:
    def test_static_edges(self):
        graph = Run.from_trace(static_line_log(4))
        assert graph.edges() == [(0, 1), (1, 2), (2, 3)]
        assert graph.edge_present(0, 1, 5.0)
        assert graph.presence(0, 1)[0].leave == FOREVER

    def test_leave_closes_edges(self):
        log = static_line_log(3)
        log.record(5.0, "leave", entity=1)
        graph = Run.from_trace(log)
        assert graph.edge_present(0, 1, 4.0)
        assert not graph.edge_present(0, 1, 5.0)
        assert not graph.edge_present(1, 2, 6.0)

    def test_edge_events(self):
        log = static_line_log(3)
        log.record(2.0, "edge_up", a=0, b=2)
        log.record(7.0, "edge_down", a=0, b=2)
        graph = Run.from_trace(log)
        assert not graph.edge_present(0, 2, 1.0)
        assert graph.edge_present(0, 2, 4.0)
        assert not graph.edge_present(0, 2, 7.5)

    def test_join_attachment_to_absent_ignored(self):
        log = TraceLog()
        log.record(0.0, "join", entity=0, neighbors=())
        log.record(1.0, "join", entity=1, neighbors=(0, 99))  # 99 absent
        graph = Run.from_trace(log)
        assert graph.edges() == [(0, 1)]

    def test_snapshot(self):
        log = static_line_log(3)
        log.record(5.0, "leave", entity=2)
        graph = Run.from_trace(log)
        assert graph.snapshot(1.0).edge_count() == 2
        assert graph.snapshot(6.0).edge_count() == 1

    def test_edges_at(self):
        graph = Run.from_trace(static_line_log(3))
        assert set(graph.edges_at(1.0)) == {(0, 1), (1, 2)}


class TestJourneys:
    def test_static_reachability(self):
        graph = Run.from_trace(static_line_log(5))
        arrivals = graph.earliest_arrivals(0, start=0.0, hop_time=1.0)
        assert arrivals == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}

    def test_deadline_truncates(self):
        graph = Run.from_trace(static_line_log(5))
        assert graph.reachable(0, 0.0, deadline=2.5, hop_time=1.0) == {0, 1, 2}

    def test_zero_hop_time(self):
        graph = Run.from_trace(static_line_log(5))
        assert graph.reachable(0, 0.0, deadline=0.0) == {0, 1, 2, 3, 4}

    def test_negative_hop_rejected(self):
        graph = Run.from_trace(static_line_log(2))
        with pytest.raises(ValueError):
            graph.earliest_arrivals(0, 0.0, hop_time=-1.0)

    def test_waiting_for_an_edge(self):
        """A journey may wait at a node for a future edge."""
        log = TraceLog()
        log.record(0.0, "join", entity=0, neighbors=())
        log.record(0.0, "join", entity=1, neighbors=())
        log.record(5.0, "edge_up", a=0, b=1)
        graph = Run.from_trace(log)
        arrivals = graph.earliest_arrivals(0, start=0.0, hop_time=1.0)
        assert arrivals[1] == 6.0  # waited until the edge appeared

    def test_broken_relay_blocks_journey(self):
        """If the middle of the line leaves before the hop can happen, the
        far end is unreachable — the canonical completeness failure."""
        log = static_line_log(3)
        log.record(0.5, "leave", entity=1)
        graph = Run.from_trace(log)
        # hop_time 1.0: the first hop 0->1 cannot complete inside [0, 0.5).
        assert not graph.journey_exists(0, 2, start=0.0, deadline=100.0,
                                        hop_time=1.0)

    def test_journey_through_transient_relay(self):
        """A relay that stays just long enough carries the journey."""
        log = static_line_log(3)
        log.record(2.5, "leave", entity=1)
        graph = Run.from_trace(log)
        # hops at [0,1] and [1,2]: both complete before 1 leaves at 2.5.
        assert graph.journey_exists(0, 2, start=0.0, deadline=10.0,
                                    hop_time=1.0)

    def test_only_a_zero_hop_crosses_a_contact_at_its_closing_instant(self):
        log = static_line_log(1)
        log.record(1.0, "join", entity=1, neighbors=(0,))
        log.record(1.0, "edge_down", a=0, b=1)        # the contact [1, 1)
        log.record(2.0, "edge_up", a=0, b=1)
        log.record(4.0, "edge_down", a=0, b=1)
        graph = Run.from_trace(log)
        assert graph.journey_exists(0, 1, 0.0, 1.0)
        assert not graph.journey_exists(0, 1, 1.5, 1.9)
        assert graph.journey_exists(0, 1, 2.5, 5.0, hop_time=1.0)
        assert not graph.journey_exists(0, 1, 3.0, 5.0, hop_time=1.0)

    def test_complete_flagged_run_reaches_every_copresent_entity(self):
        log = TraceLog()
        for entity in range(3):
            log.record(0.0, "join", entity=entity, complete=True)
        log.record(1.0, "leave", entity=1)
        log.record(2.0, "join", entity=3, complete=True)
        graph = Run.from_trace(log)
        assert graph.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
        assert graph.reachable(3, 2.0, deadline=2.0) == {0, 2, 3}

    def test_directionality_of_time(self):
        """Journeys are not symmetric: an edge that exists early helps
        early hops only."""
        log = TraceLog()
        log.record(0.0, "join", entity=0, neighbors=())
        log.record(0.0, "join", entity=1, neighbors=())
        log.record(0.0, "join", entity=2, neighbors=())
        log.record(0.0, "edge_up", a=0, b=1)
        log.record(2.0, "edge_down", a=0, b=1)
        log.record(3.0, "edge_up", a=1, b=2)
        graph = Run.from_trace(log)
        # 0 -> 1 (early) then wait, then 1 -> 2 (late): journey exists.
        assert graph.journey_exists(0, 2, 0.0, 10.0, hop_time=1.0)
        # 2 -> 1 possible only after t=3, but 1 -> 0 edge died at 2: no
        # journey 2 -> 0.
        assert not graph.journey_exists(2, 0, 0.0, 10.0, hop_time=1.0)


class TestAuditQueryMisses:
    def test_impossible_miss_classified(self):
        log = static_line_log(3)
        log.record(0.5, "leave", entity=1)
        audit = Run.from_trace(log).audit_query_misses(
            querier=0, issue_time=0.0, return_time=10.0,
            missing=frozenset({2}), hop_time=1.0,
        )
        assert audit.impossible == {2}
        assert audit.unexplained_misses == frozenset()

    def test_unexplained_miss_classified(self):
        log = static_line_log(3)  # fully connected forever
        audit = Run.from_trace(log).audit_query_misses(
            querier=0, issue_time=0.0, return_time=10.0,
            missing=frozenset({2}), hop_time=1.0,
        )
        assert audit.impossible == frozenset()
        assert audit.unexplained_misses == {2}

    def test_wave_misses_are_topologically_explained(self):
        """End-to-end: every stable-core member the wave misses under churn
        lacks a fast journey (with hop_time = the constant message delay,
        journey reachability upper-bounds the wave's forward progress)."""
        from repro.engine.trials import QueryConfig, run_query
        from repro.churn.models import ReplacementChurn
        from repro.sim.latency import ConstantDelay

        found_miss = False
        for seed in range(12):
            outcome = run_query(QueryConfig(
                n=20, topology="ring", aggregate="COUNT", seed=seed,
                horizon=200.0, delay=ConstantDelay(1.0),
                churn=lambda f: ReplacementChurn(f, rate=2.0),
            ))
            if not outcome.terminated or not outcome.verdict.missing_core:
                continue
            found_miss = True
            audit = outcome.run.audit_query_misses(
                querier=outcome.querier,
                issue_time=outcome.record.issue_time,
                return_time=outcome.record.return_time,
                missing=outcome.verdict.missing_core,
                hop_time=1.0,
            )
            # Everything the wave counted was journey-reachable with the
            # true per-hop delay (sanity of the upper bound).
            assert outcome.verdict.contributors <= audit.reachable | {
                outcome.querier
            }
        assert found_miss  # the scenario produced at least one miss
