"""Chrome Trace Format and ASCII timeline exporters."""

from __future__ import annotations

import json

import pytest

from repro.api import QueryConfig, run_query
from repro.obs.export import (
    NETWORK_LANE,
    ascii_timeline,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.sim.errors import ConfigurationError
from repro.sim.trace import TraceEvent


def ev(time: float, kind: str, **data) -> TraceEvent:
    return TraceEvent(time, kind, data)


EVENTS = [
    ev(0.0, "join", entity=0, degree=0, value=1.0, neighbors=()),
    ev(0.0, "join", entity=1, degree=1, value=1.0, neighbors=(0,)),
    ev(1.0, "send", msg_id=1, msg_kind="WAVE_QUERY", sender=0, receiver=1),
    ev(2.0, "deliver", msg_id=1, msg_kind="WAVE_QUERY", sender=0, receiver=1),
    ev(2.5, "send", msg_id=2, msg_kind="WAVE_ECHO", sender=1, receiver=9),
    ev(3.0, "drop", msg_id=2, msg_kind="WAVE_ECHO", sender=1, receiver=9,
       reason="receiver_absent"),
    ev(4.0, "query_returned", entity=0, qid=0, result=2, contributors=(0, 1)),
]


def test_chrome_trace_structure():
    document = to_chrome_trace(EVENTS)
    assert document["displayTimeUnit"] == "ms"
    records = document["traceEvents"]
    slices = [r for r in records if r["ph"] == "X"]
    # One slice per owner lane; the drop lands on the network lane.
    assert {r["tid"] for r in slices} == {0, 1, NETWORK_LANE}
    drop = next(r for r in slices if r["cat"] == "drop")
    assert drop["tid"] == NETWORK_LANE
    # Simulation time scales into microseconds (1 unit -> 1 ms).
    deliver = next(r for r in slices if r["cat"] == "deliver")
    assert deliver["ts"] == 2000.0
    assert deliver["name"] == "deliver:WAVE_QUERY"


def test_chrome_trace_flow_events_pair_send_to_deliver():
    records = to_chrome_trace(EVENTS)["traceEvents"]
    starts = [r for r in records if r["ph"] == "s"]
    finishes = [r for r in records if r["ph"] == "f"]
    # msg 1 delivered (flow pair); msg 2 dropped (start only).
    assert [r["id"] for r in starts] == [1, 2]
    assert [r["id"] for r in finishes] == [1]
    assert starts[0]["tid"] == 0 and finishes[0]["tid"] == 1
    assert finishes[0]["bp"] == "e"


def test_chrome_trace_metadata_names_every_lane():
    records = to_chrome_trace(EVENTS)["traceEvents"]
    names = {
        r["tid"]: r["args"]["name"]
        for r in records if r["ph"] == "M" and r["name"] == "thread_name"
    }
    assert names[0] == "node 0"
    assert names[NETWORK_LANE] == "network"


def test_write_chrome_trace_roundtrips_as_json(tmp_path):
    path = tmp_path / "out" / "trace.json"
    written = write_chrome_trace(EVENTS, path)
    assert written > 0
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert written == sum(
        1 for r in loaded["traceEvents"] if r.get("ph") != "M"
    )


def test_write_chrome_trace_on_a_real_trial(tmp_path):
    outcome = run_query(QueryConfig(
        n=8, topology="er", aggregate="COUNT", horizon=60.0, seed=3,
        trace_sink="memory",
    ))
    path = tmp_path / "trial.json"
    write_chrome_trace(outcome.trace, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    categories = {r.get("cat") for r in loaded["traceEvents"]}
    assert {"join", "send", "deliver", "message"} <= categories


def test_ascii_timeline_symbols_and_legend():
    text = ascii_timeline(EVENTS, width=24)
    lines = text.splitlines()
    assert "7 events" in lines[0]
    lanes = {line.split("|")[0].strip(): line for line in lines
             if "|" in line}
    assert lanes["0"].split("|")[1][0] == "J"       # join at t=0
    assert lanes["0"].rstrip("|").endswith("R")     # query_returned wins
    assert "x" in lanes["net"]                      # drop on network lane
    assert "legend:" in lines[-1]


def test_ascii_timeline_priority_resolves_shared_buckets():
    # Same instant, same lane: query_returned outranks deliver.
    text = ascii_timeline([
        ev(0.0, "deliver", msg_id=1, msg_kind="X", sender=1, receiver=0),
        ev(0.0, "query_returned", entity=0, qid=0, result=1),
    ], width=8)
    lane = next(line for line in text.splitlines() if line.startswith("   0"))
    assert "R" in lane and "d" not in lane


def test_ascii_timeline_clips_lanes_and_validates_width():
    events = [ev(float(i), "join", entity=i) for i in range(6)]
    text = ascii_timeline(events, width=16, max_lanes=4)
    assert "2 more lanes" in text
    with pytest.raises(ConfigurationError, match="width"):
        ascii_timeline(events, width=4)
    assert ascii_timeline([]) == "(empty trace)"
