"""The happens-before kernel and the causal influence report."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import ChurnSpec, QueryConfig, run_query
from repro.core.runs import Run
from repro.obs.causal import InfluenceReport, _past_and_depth, happens_before
from repro.sim.errors import ConfigurationError
from repro.sim.trace import TraceEvent, TraceLog, lanes_of, owners_of


def ev(time: float, kind: str, **data) -> TraceEvent:
    return TraceEvent(time, kind, data)


# A small hand-built run: two initial entities, one message round trip,
# a third entity that joins before the verdict but never talks to anyone.
#
#   0: join 0                      5: send msg 2 (1 -> 0)
#   1: join 1 (neighbor of 0)      6: deliver msg 2 at 0
#   2: query_issued by 0 (qid 0)   7: join 2 (neighbor of 1)
#   3: send msg 1 (0 -> 1)         8: query_returned by 0 (qid 0)
#   4: deliver msg 1 at 1
SYNTHETIC = [
    ev(0.0, "join", entity=0, degree=0, value=1.0, neighbors=()),
    ev(0.0, "join", entity=1, degree=1, value=1.0, neighbors=(0,)),
    ev(1.0, "query_issued", entity=0, qid=0, aggregate="COUNT"),
    ev(1.0, "send", msg_id=1, msg_kind="WAVE_QUERY", sender=0, receiver=1),
    ev(2.0, "deliver", msg_id=1, msg_kind="WAVE_QUERY", sender=0, receiver=1),
    ev(2.0, "send", msg_id=2, msg_kind="WAVE_ECHO", sender=1, receiver=0),
    ev(3.0, "deliver", msg_id=2, msg_kind="WAVE_ECHO", sender=1, receiver=0),
    ev(3.5, "join", entity=2, degree=1, value=1.0, neighbors=(1,)),
    ev(4.0, "query_returned", entity=0, qid=0, result=2, contributors=(0, 1)),
]


def test_owners_and_threads():
    assert owners_of(SYNTHETIC[3]) == (0,)          # send -> sender
    assert owners_of(SYNTHETIC[4]) == (1,)          # deliver -> receiver
    assert owners_of(ev(1.0, "drop", msg_id=9)) == ()
    assert owners_of(ev(1.0, "edge_up", a=3, b=4)) == (3, 4)
    assert owners_of(SYNTHETIC[0]) == (0,)
    # A join threads into the lanes of the present neighbors it attaches to.
    assert lanes_of(SYNTHETIC[1], {0}) == (1, 0)
    assert lanes_of(SYNTHETIC[1], set()) == (1,)


def test_edge_down_threads_no_lane_but_keeps_its_owners():
    down = ev(1.0, "edge_down", a=3, b=4)
    assert owners_of(down) == (3, 4) and lanes_of(down, {3, 4}) == ()
    events = [ev(0.0, "join", entity=3), ev(0.0, "join", entity=4),
              ev(1.0, "query_issued", entity=3, qid=0), down,
              ev(1.0, "query_returned", entity=4, qid=0)]
    assert list(happens_before(events)) == [(0, 2, False), (1, 4, False)]


def test_complete_join_threads_every_present_entity_and_only_those():
    events = [ev(0.0, "join", entity=entity, complete=True) for entity in range(3)]
    events += [ev(1.0, "leave", entity=1), ev(2.0, "join", entity=3, complete=True)]
    assert lanes_of(events[4], {0, 2}) == (3, 0, 2)
    assert set(happens_before(events)) == {
        (0, 1, False), (1, 2, False), (2, 3, False), (2, 4, False)}


def test_dag_edge_families():
    edges = list(happens_before(SYNTHETIC))
    assert sum(message for *_, message in edges) == 2   # msg 1 and msg 2
    pairs = {(src, dst) for src, dst, _ in edges}
    assert (3, 4) in pairs and (5, 6) in pairs      # send -> deliver
    assert (0, 1) in pairs                          # join 1 observed by 0
    assert (6, 8) in pairs                          # querier program order
    assert len(edges) == 10 and pairs == {(0, 1), (1, 2), (1, 4), (2, 3), (3, 4),
                                          (3, 6), (4, 5), (5, 6), (5, 7), (6, 8)}
    # Every edge points forward, and edges come out in ``dst`` order.
    assert all(src < dst for src, dst, _ in edges)
    assert [dst for _, dst, _ in edges] == sorted(dst for _, dst, _ in edges)
    # Two lanes sharing their previous event repeat the edge.
    pair = [ev(0.0, "edge_up", a=3, b=4), ev(1.0, "edge_up", a=3, b=4)]
    assert list(happens_before(pair)) == [(0, 1, False), (0, 1, False)]


def test_causal_past_future_and_concurrency():
    past, _ = _past_and_depth(SYNTHETIC, 8)
    assert past == frozenset({0, 1, 2, 3, 4, 5, 6, 8})  # join 2 not seen
    assert _past_and_depth(SYNTHETIC, 0) == (frozenset({0}), 0)
    for index in (-1, 99):
        with pytest.raises(ConfigurationError, match="out of range 0..8"):
            _past_and_depth(SYNTHETIC, index)


def test_depth_is_longest_chain():
    # 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 6 -> 8: seven edges.
    assert _past_and_depth(SYNTHETIC, 8)[1] == 7
    assert InfluenceReport.from_trace(SYNTHETIC).causal_depth == 7


def test_influence_report_flags_unseen_live_entity():
    report = InfluenceReport.from_trace(SYNTHETIC)
    assert report.qid == 0 and report.querier == 0
    assert report.issue_time == 1.0 and report.verdict_time == 4.0
    assert report.verdict_index == 8 and report.past_events == 8
    assert report.influencing_entities == frozenset({0, 1})
    assert report.present_at_verdict == frozenset({0, 1, 2})
    # Entity 2 is live at the verdict but causally invisible to it.
    assert report.outside_causal_past == frozenset({2})
    assert not report.covers_all_live
    assert "misses 1 live entities" in str(report)
    assert InfluenceReport.from_trace(SYNTHETIC, qid=0) == report


def test_live_at_half_open_intervals():
    events = [
        ev(0.0, "join", entity=0),
        ev(5.0, "join", entity=1),
        ev(9.0, "leave", entity=1),
    ]
    run = Run.from_trace(events)
    assert run.present_at(4.0) == frozenset({0})
    assert run.present_at(5.0) == frozenset({0, 1})
    assert run.present_at(9.0) == frozenset({0})    # [join, leave)


def test_verdict_index_errors_name_the_qid():
    with pytest.raises(ConfigurationError, match="no returned query"):
        InfluenceReport.from_trace(SYNTHETIC[:8])   # no query_returned
    with pytest.raises(ConfigurationError, match="query 7 never returned"):
        InfluenceReport.from_trace(SYNTHETIC, qid=7)


def test_static_trial_verdict_covers_all_live():
    outcome = run_query(QueryConfig(
        n=12, topology="er", aggregate="COUNT", horizon=100.0, seed=2007,
        trace_sink="memory",
    ))
    assert outcome.ok
    report = InfluenceReport.from_trace(outcome.trace)
    assert report.covers_all_live
    assert report.causal_depth >= 2                 # at least query round trip


def test_churn_trial_leaves_live_entities_outside_causal_past():
    # The paper's unsolvability regime (M_inf_bounded, fast churn): the
    # verdict cannot causally cover entities that joined behind the wave.
    outcome = run_query(QueryConfig(
        n=12, topology="er", aggregate="COUNT", horizon=120.0, seed=2007,
        churn=ChurnSpec(kind="replacement", rate=4.0), trace_sink="memory",
    ))
    report = InfluenceReport.from_trace(outcome.trace)
    assert len(report.outside_causal_past) >= 1
    assert not report.covers_all_live
    assert report.outside_causal_past <= report.present_at_verdict


def test_jsonl_and_memory_sinks_yield_identical_dag(tmp_path):
    config = QueryConfig(
        n=10, topology="er", aggregate="COUNT", horizon=80.0, seed=11,
        churn=ChurnSpec(kind="replacement", rate=2.0), trace_sink="memory",
    )
    memory_outcome = run_query(config)
    path = tmp_path / "trial.jsonl"
    run_query(replace(config, trace_sink="jsonl", trace_path=str(path)))

    assert list(happens_before(memory_outcome.trace)) == list(
        happens_before(TraceLog.load_jsonl(path))
    )
    # Influence reports are frozen dataclasses: exact equality holds.
    assert InfluenceReport.from_trace(memory_outcome.trace) == (
        InfluenceReport.from_jsonl(path)
    )
