"""Tests for trace recording (repro.sim.trace)."""

from __future__ import annotations

from repro.core.runs import Run
from repro.sim.trace import DELIVER, JOIN, LEAVE, SEND, TraceLog, merge_logs


def build_log() -> TraceLog:
    log = TraceLog()
    log.record(0.0, JOIN, entity=0, value=1.0)
    log.record(0.0, JOIN, entity=1, value=2.0)
    log.record(1.0, SEND, msg_id=0, msg_kind="PING", sender=0, receiver=1)
    log.record(2.0, DELIVER, msg_id=0, msg_kind="PING", sender=0, receiver=1)
    log.record(3.0, LEAVE, entity=1)
    return log


class TestTraceLog:
    def test_len(self):
        assert len(build_log()) == 5

    def test_record_returns_event(self):
        log = TraceLog()
        event = log.record(1.5, "custom", foo="bar")
        assert event.time == 1.5
        assert event.kind == "custom"
        assert event["foo"] == "bar"

    def test_event_get_default(self):
        log = TraceLog()
        event = log.record(0.0, "x")
        assert event.get("missing", 42) == 42

    def test_events_filter_by_kind(self):
        log = build_log()
        assert len(log.events(JOIN)) == 2
        assert len(log.events(SEND)) == 1
        assert len(log.events()) == 5

    def test_count(self):
        log = build_log()
        assert log.count(JOIN) == 2
        assert log.count("nonexistent") == 0

    def test_first_and_last(self):
        log = build_log()
        assert log.first(JOIN)["entity"] == 0
        assert log.last(JOIN)["entity"] == 1
        assert log.first("nope") is None
        assert log.last("nope") is None

    def test_between(self):
        log = build_log()
        assert len(log.between(0.5, 2.5)) == 2
        assert len(log.between(0.0, 3.0, kind=JOIN)) == 2
        assert log.between(10.0, 20.0) == []

    def test_membership_events_ordered(self):
        events = build_log().membership_events()
        assert [e.kind for e in events] == [JOIN, JOIN, LEAVE]

    def test_entities_ever(self):
        assert Run.from_trace(build_log()).entities() == {0, 1}

    def test_message_count(self):
        assert build_log().message_count() == 1

    def test_summary(self):
        summary = build_log().summary()
        assert summary[JOIN] == 2
        assert summary[SEND] == 1

    def test_iteration_in_order(self):
        times = [e.time for e in build_log()]
        assert times == sorted(times)


class TestMergeLogs:
    def test_merge_sorts_by_time(self):
        a = TraceLog()
        a.record(2.0, "x")
        b = TraceLog()
        b.record(1.0, "y")
        merged = merge_logs([a, b])
        assert [e.kind for e in merged] == ["y", "x"]

    def test_merge_preserves_data(self):
        a = TraceLog()
        a.record(1.0, "x", payload=7)
        merged = merge_logs([a])
        assert merged.events("x")[0]["payload"] == 7

    def test_merge_empty(self):
        assert len(merge_logs([])) == 0
