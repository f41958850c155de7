"""Happens-before DAG construction and causal influence reports."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import ChurnSpec, QueryConfig, run_query
from repro.core.runs import Run
from repro.obs.causal import HappensBeforeDAG, owners_of, threads_of
from repro.sim.errors import ConfigurationError
from repro.sim.trace import TraceEvent


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
    # A join threads into the lanes of the neighbors that observe it.
    assert threads_of(SYNTHETIC[1]) == (1, 0)
    assert threads_of(SYNTHETIC[3]) == (0,)


def test_dag_edge_families():
    dag = HappensBeforeDAG(SYNTHETIC)
    assert len(dag) == 9
    assert dag.message_edges == 2                   # msg 1 and msg 2
    edges = dag.edge_set()
    assert (3, 4) in edges and (5, 6) in edges      # send -> deliver
    assert (0, 1) in edges                          # join 1 observed by 0
    assert (6, 8) in edges                          # querier program order
    # Every edge points forward in record order (DAG property).
    assert all(src < dst for src, dst in edges)


def test_causal_past_future_and_concurrency():
    dag = HappensBeforeDAG(SYNTHETIC)
    past = dag.causal_past(8)
    assert past == frozenset({0, 1, 2, 3, 4, 5, 6, 8})  # join 2 not seen
    assert dag.causal_future(3) >= {3, 4, 5, 6, 8}
    assert not dag.concurrent(3, 4)                 # message-ordered
    assert dag.concurrent(6, 7)                     # unrelated branches
    assert not dag.concurrent(6, 6)
    with pytest.raises(ConfigurationError):
        dag.causal_past(99)


def test_depth_is_longest_chain():
    dag = HappensBeforeDAG(SYNTHETIC)
    # 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 6 -> 8: seven edges.
    assert dag.depth(8) == 7
    assert dag.depth(0) == 0


def test_influence_report_flags_unseen_live_entity():
    dag = HappensBeforeDAG(SYNTHETIC)
    report = dag.influence()
    assert report.qid == 0 and report.querier == 0
    assert report.issue_time == 1.0 and report.verdict_time == 4.0
    assert report.influencing_entities == frozenset({0, 1})
    assert report.present_at_verdict == frozenset({0, 1, 2})
    # Entity 2 is live at the verdict but causally invisible to it.
    assert report.outside_causal_past == frozenset({2})
    assert not report.covers_all_live
    assert "misses 1 live entities" in str(report)


def test_live_at_half_open_intervals():
    events = [
        ev(0.0, "join", entity=0),
        ev(5.0, "join", entity=1),
        ev(9.0, "leave", entity=1),
    ]
    run = Run.from_trace(HappensBeforeDAG(events).events)
    assert run.present_at(4.0) == frozenset({0})
    assert run.present_at(5.0) == frozenset({0, 1})
    assert run.present_at(9.0) == frozenset({0})    # [join, leave)


def test_verdict_index_errors_name_the_qid():
    dag = HappensBeforeDAG(SYNTHETIC[:8])           # no query_returned
    with pytest.raises(ConfigurationError, match="no returned query"):
        dag.verdict_index()
    full = HappensBeforeDAG(SYNTHETIC)
    with pytest.raises(ConfigurationError, match="query 7 never returned"):
        full.verdict_index(7)


def test_static_trial_verdict_covers_all_live():
    outcome = run_query(QueryConfig(
        n=12, topology="er", aggregate="COUNT", horizon=100.0, seed=2007,
        trace_sink="memory",
    ))
    assert outcome.ok
    report = HappensBeforeDAG.from_trace(outcome.trace).influence()
    assert report.covers_all_live
    assert report.causal_depth >= 2                 # at least query round trip


def test_churn_trial_leaves_live_entities_outside_causal_past():
    # The paper's unsolvability regime (M_inf_bounded, fast churn): the
    # verdict cannot causally cover entities that joined behind the wave.
    outcome = run_query(QueryConfig(
        n=12, topology="er", aggregate="COUNT", horizon=120.0, seed=2007,
        churn=ChurnSpec(kind="replacement", rate=4.0), trace_sink="memory",
    ))
    report = HappensBeforeDAG.from_trace(outcome.trace).influence()
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

    from_memory = HappensBeforeDAG.from_trace(memory_outcome.trace)
    from_file = HappensBeforeDAG.from_jsonl(path)
    assert len(from_memory) == len(from_file)
    assert from_memory.edge_set() == from_file.edge_set()
    assert from_memory.program_edges == from_file.program_edges
    assert from_memory.message_edges == from_file.message_edges
    # Influence reports are frozen dataclasses: exact equality holds.
    assert from_memory.influence() == from_file.influence()
