"""Tests for extended runner options and under-covered helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis.metrics import message_cost_by_kind, wave_depth
from repro.engine.trials import QueryConfig, run_query
from repro.churn.models import ReplacementChurn
from repro.sim.errors import ConfigurationError
from repro.sim.latency import ConstantDelay


class TestFtWaveProtocol:
    def test_ft_wave_static(self):
        outcome = run_query(QueryConfig(
            n=10, topology="er", protocol="ft_wave", aggregate="COUNT",
            seed=3, horizon=100,
        ))
        assert outcome.ok
        assert outcome.record.result == 10

    def test_ft_wave_silent_churn_terminates(self):
        """Silent departures + detector: the query still terminates."""
        outcome = run_query(QueryConfig(
            n=16, topology="er", protocol="ft_wave", aggregate="COUNT",
            seed=3, horizon=300, notify_leaves=False, detector_timeout=3.0,
            churn=lambda f: ReplacementChurn(f, rate=1.0),
        ))
        assert outcome.terminated
        assert outcome.verdict.integral

    def test_plain_wave_silent_churn_can_stall(self):
        """The same scenario without a detector risks non-termination;
        across a few seeds at least one run must stall (else the detector
        would be pointless)."""
        stalled = 0
        for seed in range(6):
            outcome = run_query(QueryConfig(
                n=16, topology="er", protocol="wave", aggregate="COUNT",
                seed=seed, horizon=300, notify_leaves=False,
                delay=ConstantDelay(1.0), query_at=2.0,
                churn=lambda f: ReplacementChurn(f, rate=2.0),
            ))
            if not outcome.terminated:
                stalled += 1
        assert stalled >= 1

    def test_unknown_protocol_message_mentions_ft_wave(self):
        with pytest.raises(ConfigurationError, match="ft_wave"):
            run_query(QueryConfig(protocol="carrier-pigeon"))


class TestMetricsHelpers:
    def test_message_cost_by_kind(self):
        outcome = run_query(QueryConfig(n=10, topology="ring", seed=1,
                                        horizon=100, trace_sink="memory"))
        by_kind = message_cost_by_kind(outcome.trace)
        assert "WAVE_QUERY" in by_kind
        assert "WAVE_ECHO" in by_kind
        assert sum(by_kind.values()) == outcome.messages
        # Sorted descending by count.
        counts = list(by_kind.values())
        assert counts == sorted(counts, reverse=True)

    def test_wave_depth_counts_reach(self):
        outcome = run_query(QueryConfig(n=8, topology="line", seed=1,
                                        delay=ConstantDelay(1.0), horizon=100,
                                        trace_sink="memory"))
        depth = wave_depth(outcome.trace, qid=0)
        assert depth == 7  # every non-querier received the wave

    def test_outcome_latency_inf_when_unterminated(self):
        outcome = run_query(QueryConfig(
            n=8, topology="line", seed=0, horizon=50, loss_rate=1.0,
        ))
        assert not outcome.terminated
        assert math.isinf(outcome.latency)

    def test_outcome_truth_for_set_aggregate(self):
        outcome = run_query(QueryConfig(
            n=6, topology="star", aggregate="SET", seed=2, horizon=100,
        ))
        assert outcome.ok
        assert outcome.truth == frozenset(float(i) for i in range(6))
        assert outcome.error == 0.0  # Jaccard distance of identical sets
