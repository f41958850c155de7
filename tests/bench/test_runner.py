"""Tests for the single-trial runners (run_query / run_gossip)."""

from __future__ import annotations

import pytest

from repro.api import (
    GossipConfig,
    QueryConfig,
    reachable_now,
    run_gossip,
    run_query,
)
from repro.churn.models import ReplacementChurn
from repro.sim.errors import ConfigurationError
from repro.sim.latency import ConstantDelay
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.topology.generators import line


class TestReachableNow:
    def test_component(self):
        sim = Simulator(seed=0)
        a = sim.spawn(Process())
        b = sim.spawn(Process(), neighbors=[a.pid])
        c = sim.spawn(Process())  # isolated
        assert reachable_now(sim.network, a.pid) == {a.pid, b.pid}
        assert reachable_now(sim.network, c.pid) == {c.pid}

    def test_absent_start(self):
        sim = Simulator(seed=0)
        assert reachable_now(sim.network, 42) == frozenset()


class TestRunQueryStatic:
    def test_wave_echo_ok(self):
        outcome = run_query(QueryConfig(n=12, topology="er", aggregate="SUM",
                                        seed=5, horizon=100))
        assert outcome.ok
        assert outcome.completeness == 1.0
        assert outcome.error == 0.0
        assert outcome.truth == sum(range(12))

    def test_wave_ttl_ok(self):
        outcome = run_query(QueryConfig(n=10, topology="ring", aggregate="COUNT",
                                        ttl=5, seed=5, horizon=100))
        assert outcome.ok
        assert outcome.record.result == 10

    def test_request_collect_ok(self):
        outcome = run_query(QueryConfig(n=10, protocol="request_collect",
                                        aggregate="AVG", seed=5, horizon=100))
        assert outcome.ok
        assert outcome.record.result == pytest.approx(4.5)

    def test_prebuilt_topology(self):
        outcome = run_query(QueryConfig(n=5, topology=line(5), aggregate="COUNT",
                                        seed=1, horizon=100))
        assert outcome.ok

    def test_prebuilt_topology_wrong_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            run_query(QueryConfig(n=4, topology=line(5)))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            run_query(QueryConfig(protocol="telepathy"))

    def test_value_function(self):
        outcome = run_query(QueryConfig(n=6, topology="star", aggregate="SUM",
                                        value_of=lambda i: 10.0, seed=2, horizon=100))
        assert outcome.record.result == 60.0

    def test_deterministic(self):
        a = run_query(QueryConfig(n=10, topology="er", seed=42, horizon=100))
        b = run_query(QueryConfig(n=10, topology="er", seed=42, horizon=100))
        assert a.record.result == b.record.result
        assert a.messages == b.messages
        assert a.latency == b.latency

    def test_latency_and_messages_positive(self):
        outcome = run_query(QueryConfig(n=8, topology="ring", seed=1, horizon=100))
        assert outcome.latency > 0
        assert outcome.messages > 0


class TestRunQueryChurn:
    def test_completeness_degrades_with_rate(self):
        def run(rate: float):
            return run_query(QueryConfig(
                n=24, topology="er", aggregate="COUNT", seed=9, horizon=150,
                churn=lambda f: ReplacementChurn(f, rate=rate),
            ))

        calm, stormy = run(0.1), run(3.0)
        assert calm.completeness > stormy.completeness
        # The reach of the query (how many values it folded) also shrinks.
        assert calm.record.result > stormy.record.result

    def test_extreme_churn_collapses_stable_core(self):
        """At very high churn almost nobody is present for the whole query
        window: the obligation becomes vacuous while the count is tiny."""
        outcome = run_query(QueryConfig(
            n=24, topology="er", aggregate="COUNT", seed=9, horizon=150,
            churn=lambda f: ReplacementChurn(f, rate=10.0),
        ))
        assert len(outcome.verdict.stable_core) <= 3
        assert outcome.record.result <= 5

    def test_querier_protected_by_default(self):
        outcome = run_query(QueryConfig(
            n=10, topology="er", seed=3, horizon=200,
            churn=lambda f: ReplacementChurn(f, rate=5.0),
        ))
        assert outcome.record.qid != -1  # query was issued

    def test_churn_stop_allows_late_query(self):
        outcome = run_query(QueryConfig(
            n=16, topology="er", aggregate="COUNT", seed=3,
            query_at=60.0, horizon=300, churn_stop=50.0,
            churn=lambda f: ReplacementChurn(f, rate=3.0),
        ))
        # Churn frozen before the query: behaves like a static system.
        assert outcome.ok

    def test_loss_with_deadline_terminates(self):
        outcome = run_query(QueryConfig(
            n=12, topology="er", seed=3, horizon=100,
            loss_rate=0.3, deadline=30.0,
        ))
        assert outcome.terminated
        assert outcome.latency <= 30.0 + 1e-9


class TestRunGossip:
    def test_avg_accuracy(self):
        outcome = run_gossip(GossipConfig(n=16, topology="er", mode="avg",
                                          rounds=50, seed=4))
        assert outcome.error < 0.05
        assert outcome.truth == pytest.approx(7.5)

    def test_count_accuracy(self):
        outcome = run_gossip(GossipConfig(n=16, topology="er", mode="count",
                                          rounds=80, seed=4))
        assert outcome.error < 0.25

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            run_gossip(GossipConfig(mode="median"))

    def test_messages_counted(self):
        outcome = run_gossip(GossipConfig(n=8, rounds=10, seed=1))
        assert outcome.messages >= 8 * 9  # each node pushes each round
