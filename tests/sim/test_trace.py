"""Tests for trace recording (repro.sim.trace)."""

from __future__ import annotations

import pickle

import pytest

from repro.core.runs import Run
from repro.obs.sinks import NullSink
from repro.sim.errors import ConfigurationError
from repro.sim.trace import (
    CLOSED, DELIVER, EDGE_DOWN, EDGE_UP, JOIN, JOINED, JOINED_ALL, LEAVE, LEFT,
    OPENED, SEND, MembershipFold, TraceEvent, TraceLog, merge_logs,
)


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

    def test_merge_refuses_a_log_that_folded_membership_away(self):
        """Merging would lose the null-sink log's join (only its fold
        holds it), so the merge raises instead."""
        kept = TraceLog()
        kept.record(0.0, JOIN, entity=0)
        folded = TraceLog(NullSink())
        folded.record(1.0, JOIN, entity=1)
        with pytest.raises(ConfigurationError, match="'join' events were recorded"):
            merge_logs([kept, folded])


class TestTraceEvent:
    """A ``TraceEvent`` is an immutable, tuple-backed value."""

    def test_fields(self):
        event = TraceEvent(time=1.5, kind=JOIN, data={"entity": 3})
        assert (event.time, event.kind, event["entity"]) == (1.5, JOIN, 3)
        assert event.get("value", "none") == "none"
        assert TraceEvent(0.0, LEAVE).data == {}

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        event = TraceEvent(2.0, JOIN, {"entity": 1, "neighbors": (0, 2)})
        restored = pickle.loads(pickle.dumps(event, protocol=protocol))
        assert type(restored) is TraceEvent
        assert restored == event

    def test_immutable_and_readable(self):
        event = TraceEvent(2.0, LEAVE, {"entity": 1})
        with pytest.raises(AttributeError):
            event.time = 3.0  # type: ignore[misc]
        assert repr(event) == (
            "TraceEvent(time=2.0, kind='leave', data={'entity': 1})"
        )

    def test_the_appended_membership_events_equal_recorded_ones(self):
        """The fold entries the network appends itself (a kind the sink
        only counts) equal the ones ``record`` folds from the events."""
        from repro.sim.node import Process
        from repro.sim.scheduler import Simulator

        def fold_of(sink, complete):
            sim = Simulator(seed=1, trace_sink=sink, complete=complete)
            for _ in range(4):
                sim.spawn(Process(value=7), [0] if sim.network.population() else [])
            sim.kill(1)
            sim.network.add_edge(2, 3)
            sim.network.remove_edge(0, 3)
            sim.network.remove_edge(2, 3)
            sim.kill(3)
            return sim.trace, sim.trace.membership

        for complete in (False, True):
            lean, appended = fold_of(NullSink(), complete)
            full, recorded = fold_of(None, complete)
            assert {JOIN, LEAVE, EDGE_UP, EDGE_DOWN} <= lean.count_only
            assert lean.retained == 0 and lean.summary() == full.summary()
            for column in MembershipFold.__slots__:
                assert getattr(appended, column) == getattr(recorded, column)
            joined = JOINED_ALL if complete else JOINED
            assert recorded.kinds == bytearray(
                [joined] * 4 + [LEFT, OPENED, CLOSED, CLOSED, LEFT])
            assert recorded.entities == [0, 1, 2, 3, 1, 2, 0, 2, 3]
            assert recorded.values == [7] * 4 + [None, 3, 3, 3, None]
            assert recorded.links == {1: (0,), 2: (0,), 3: (0,)}
