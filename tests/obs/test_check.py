"""Trace invariant checkers and the CheckingSink decorator."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import (
    ChurnSpec,
    GossipConfig,
    QueryConfig,
    run_gossip,
    run_query,
)
from repro.obs.check import (
    CheckingSink,
    DeliveryLivenessChecker,
    QueryQuiescenceChecker,
    SendLivenessChecker,
    TimeMonotonicityChecker,
    check_trace,
    default_checkers,
)
from repro.obs.metrics import Metrics
from repro.obs.sinks import MemorySink
from repro.sim.trace import TraceEvent


def ev(time: float, kind: str, **data) -> TraceEvent:
    return TraceEvent(time, kind, data)


def feed(checker, events):
    for event in events:
        checker.observe(event)
    return checker.violations


def test_delivery_liveness_flags_departed_receiver():
    violations = feed(DeliveryLivenessChecker(), [
        ev(0.0, "join", entity=1),
        ev(1.0, "leave", entity=1),
        ev(2.0, "deliver", msg_id=7, msg_kind="X", sender=0, receiver=1),
    ])
    assert len(violations) == 1
    assert violations[0].invariant == "no_delivery_to_departed"
    assert "entity 1" in violations[0].message


def test_delivery_liveness_accepts_present_receiver():
    assert not feed(DeliveryLivenessChecker(), [
        ev(0.0, "join", entity=1),
        ev(2.0, "deliver", msg_id=7, msg_kind="X", sender=0, receiver=1),
    ])


def test_send_liveness_flags_zombie_send_and_timer():
    violations = feed(SendLivenessChecker(), [
        ev(0.0, "join", entity=3),
        ev(1.0, "leave", entity=3),
        ev(2.0, "send", msg_id=1, msg_kind="X", sender=3, receiver=0),
        ev(3.0, "timer", entity=3, name="heartbeat"),
    ])
    assert [v.invariant for v in violations] == ["no_send_from_departed"] * 2
    assert "sent by absent" in violations[0].message
    assert "timer" in violations[1].message


def test_time_monotonicity_flags_backwards_clock():
    violations = feed(TimeMonotonicityChecker(), [
        ev(1.0, "join", entity=0),
        ev(2.0, "timer", entity=0, name="t"),
        ev(1.5, "send", msg_id=1, msg_kind="X", sender=0, receiver=0),
        ev(1.5, "deliver", msg_id=1, msg_kind="X", sender=0, receiver=0),
    ])
    assert len(violations) == 1                     # equal times are fine
    assert violations[0].invariant == "time_monotonic"


def test_query_quiescence_flags_double_and_orphan_returns():
    checker = QueryQuiescenceChecker()
    feed(checker, [
        ev(0.0, "query_issued", entity=0, qid=0),
        ev(1.0, "query_returned", entity=0, qid=0, result=1),
        ev(2.0, "query_returned", entity=0, qid=0, result=1),
        ev(3.0, "query_returned", entity=0, qid=9, result=1),
        ev(4.0, "query_issued", entity=0, qid=0),
    ])
    messages = [v.message for v in checker.violations]
    assert any("returned twice" in m for m in messages)
    assert any("never issued" in m for m in messages)
    assert any("issued twice" in m for m in messages)
    assert len(checker.violations) == 3


def test_checking_sink_counts_violations_into_metrics():
    metrics = Metrics()
    sink = CheckingSink(MemorySink())
    sink.attach_metrics(metrics)
    sink.emit(ev(0.0, "join", entity=0))
    sink.emit(ev(1.0, "deliver", msg_id=1, msg_kind="X", sender=9, receiver=5))
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["check.violations"] == 1
    assert snapshot["counters"][
        "check.violations.no_delivery_to_departed"] == 1
    assert not sink.ok
    assert len(sink.violations) == 1


def test_checking_sink_explicit_metrics_wins_over_attach():
    explicit = Metrics()
    other = Metrics()
    sink = CheckingSink(metrics=explicit)
    sink.attach_metrics(other)                      # must not rebind
    sink.emit(ev(0.0, "deliver", msg_id=1, msg_kind="X", sender=0, receiver=5))
    assert explicit.snapshot()["counters"]["check.violations"] == 1
    assert "counters" not in other.snapshot() or \
        "check.violations" not in other.snapshot().get("counters", {})


def test_checking_sink_delegates_retention_to_inner():
    from repro.obs.sinks import NullSink

    checked_null = CheckingSink(NullSink())
    assert not checked_null.retains("send")
    assert not checked_null.retains("join")
    assert checked_null.retains("query_issued")
    checked_memory = CheckingSink(MemorySink())
    assert checked_memory.retains("send")


def test_check_trace_reads_jsonl_files(tmp_path):
    path = tmp_path / "trial.jsonl"
    run_query(QueryConfig(
        n=10, topology="er", aggregate="COUNT", horizon=80.0, seed=5,
        churn=ChurnSpec(kind="replacement", rate=2.0),
        trace_sink="jsonl", trace_path=str(path),
    ))
    assert check_trace(path) == []
    assert check_trace(str(path), checkers=default_checkers()) == []


def test_default_checkers_are_fresh_instances():
    first, second = default_checkers(), default_checkers()
    assert {c.name for c in first} == {
        "no_delivery_to_departed", "no_send_from_departed",
        "time_monotonic", "query_quiescence",
    }
    assert all(a is not b for a, b in zip(first, second))


# ----------------------------------------------------------------------
# Integration: real trials across the preset regimes run clean
# ----------------------------------------------------------------------

SCENARIO_NAMES = [
    "static-small", "steady-churn", "p2p-heavy-tail",
    "flash-crowd", "storm-and-calm",
]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_trials_satisfy_all_invariants(name):
    from repro.bench.scenarios import make_scenario

    config = replace(make_scenario(name, seed=2007), check_invariants=True)
    outcome = run_query(config)
    counters = outcome.metrics.get("counters", {})
    assert "check.violations" not in counters, counters


def test_gossip_trial_satisfies_all_invariants():
    outcome = run_gossip(GossipConfig(
        n=16, topology="er", mode="count", rounds=30, seed=2007,
        churn=ChurnSpec(kind="replacement", rate=1.0),
        check_invariants=True,
    ))
    counters = outcome.metrics.get("counters", {})
    assert "check.violations" not in counters, counters


def test_check_invariants_config_does_not_change_the_verdict():
    config = QueryConfig(
        n=12, topology="er", aggregate="COUNT", horizon=100.0, seed=2007,
        churn=ChurnSpec(kind="replacement", rate=2.0),
    )
    plain = run_query(config)
    checked = run_query(replace(config, check_invariants=True))
    assert plain.verdict == checked.verdict
    assert plain.messages == checked.messages
    assert plain.completeness == checked.completeness
