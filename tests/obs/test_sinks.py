"""Tests for pluggable trace sinks (repro.obs.sinks)."""

from __future__ import annotations

import pytest

from repro.obs.codec import decode_value, encode_value
from repro.obs.sinks import (
    SINK_NAMES,
    TRANSPORT_KINDS,
    CountingSink,
    JsonlStreamSink,
    MemorySink,
    NullSink,
    TraceSink,
    make_sink,
)
from repro.sim.errors import ConfigurationError
from repro.sim.trace import TraceLog


class TestMakeSink:
    @pytest.mark.parametrize("name", ["memory", "null", "counts"])
    def test_names_materialise(self, name):
        assert make_sink(name).name == name

    def test_none_defaults_to_memory(self):
        assert isinstance(make_sink(None), MemorySink)

    def test_instance_passes_through(self):
        sink = NullSink()
        assert make_sink(sink) is sink

    def test_jsonl_requires_path(self):
        with pytest.raises(ConfigurationError, match="trace path"):
            make_sink("jsonl")

    def test_jsonl_with_path(self, tmp_path):
        sink = make_sink("jsonl", path=tmp_path / "t.jsonl")
        assert isinstance(sink, JsonlStreamSink)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown trace sink"):
            make_sink("blackhole")

    def test_vocabulary_matches_classes(self):
        assert set(SINK_NAMES) == {"memory", "jsonl", "null", "counts"}


class TestRetentionPolicy:
    def test_memory_retains_everything(self):
        sink = MemorySink()
        assert all(sink.retains(kind) for kind in TRANSPORT_KINDS | {"join"})

    @pytest.mark.parametrize("sink_cls", [NullSink, CountingSink])
    def test_space_savers_drop_only_transport(self, sink_cls):
        sink = sink_cls()
        assert not any(sink.retains(kind) for kind in TRANSPORT_KINDS)
        for kind in ("join", "leave", "query_issued", "query_returned"):
            assert sink.retains(kind)

    def test_counts_stay_exact_under_every_sink(self):
        """TraceLog.count()/summary() agree across all sinks."""
        summaries = {}
        for name in ("memory", "null", "counts"):
            log = TraceLog(sink=make_sink(name))
            for i in range(50):
                log.record(float(i), "send", src=i, dst=i + 1, msg_kind="PING")
                log.record(float(i), "deliver", src=i, dst=i + 1)
            log.record(50.0, "join", entity=7)
            summaries[name] = (log.count("send"), log.count("deliver"),
                               log.count("join"), log.summary(), len(log))
        assert summaries["memory"] == summaries["null"] == summaries["counts"]

    def test_membership_retained_under_null_sink(self):
        log = TraceLog(sink=NullSink())
        log.record(0.0, "join", entity=1)
        log.record(1.0, "send", src=1, dst=2)
        assert [e.kind for e in log.membership_events()] == ["join"]
        assert log.events("send") == []
        assert log.count("send") == 1


class TestConstantMemory:
    def test_100k_transport_events_o1_memory(self):
        """>=100k transport events retain nothing beyond the low-volume
        kinds — the sink keeps TraceLog memory O(1) in the firehose."""
        log = TraceLog(sink=NullSink())
        log.record(0.0, "join", entity=0)
        for i in range(100_000):
            log.record(float(i), "send", src=0, dst=1, msg_kind="X")
        log.record(1.0, "query_issued", qid=1)
        assert len(log) == 100_002
        assert log.count("send") == 100_000
        assert log.retained == 2  # join + query_issued only

    def test_counting_sink_summarises_dropped_firehose(self):
        log = TraceLog(sink=CountingSink())
        for _ in range(3):
            log.record(0.0, "send", msg_kind="WAVE_QUERY")
        log.record(0.0, "send", msg_kind="WAVE_ECHO")
        log.record(0.0, "deliver", msg_kind="WAVE_QUERY")
        log.record(0.0, "join", entity=1)  # not transport: not summarised
        assert log.sink.summary() == {
            "deliver": {"WAVE_QUERY": 1},
            "send": {"WAVE_ECHO": 1, "WAVE_QUERY": 3},
        }
        assert log.retained == 1


class TestJsonlStreamSink:
    def test_streams_and_round_trips_nested_payloads(self, tmp_path):
        """Nested tuple/frozenset payloads survive the stream + load."""
        path = tmp_path / "stream.jsonl"
        log = TraceLog(sink=JsonlStreamSink(path))
        payload = {
            "contributors": (1, (2, 3), frozenset({4, 5})),
            "reachable": frozenset({(6, 7), (8, 9)}),
            "plain": [1, "two", None],
        }
        log.record(0.0, "join", entity=0)
        log.record(1.5, "query_returned", **payload)
        log.record(2.0, "send", src=0, dst=1)
        log.close()

        loaded = TraceLog.load_jsonl(path)
        assert len(loaded) == 3  # the stream keeps even dropped kinds
        event = loaded.events("query_returned")[0]
        assert event.time == 1.5
        assert event["contributors"] == (1, (2, 3), frozenset({4, 5}))
        assert event["reachable"] == frozenset({(6, 7), (8, 9)})
        assert event["plain"] == [1, "two", None]

    def test_retention_matches_space_savers(self, tmp_path):
        sink = JsonlStreamSink(tmp_path / "t.jsonl")
        assert not sink.retains("send")
        assert sink.retains("join")

    def test_close_idempotent_and_lazy_open(self, tmp_path):
        path = tmp_path / "lazy.jsonl"
        sink = JsonlStreamSink(path)
        assert not path.exists()  # opens on first event only
        sink.close()
        sink.close()
        log = TraceLog(sink=sink)
        log.record(0.0, "send", src=1, dst=2)
        log.close()
        log.close()
        assert path.exists()
        assert sink.events_written == 1


class TestCodec:
    def test_nested_round_trip(self):
        value = (1, frozenset({(2, 3), (4,)}), [5, {"k": (6,)}])
        assert decode_value(encode_value(value)) == value

    def test_unknown_objects_become_repr(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert encode_value(Odd()) == {"__repr__": "<odd>"}
        assert decode_value({"__repr__": "<odd>"}) == "<odd>"


class TestSinkEquivalence:
    """The acceptance contract: sinks never change results, only storage."""

    def _outcome(self, sink):
        from repro.api import ChurnSpec, QueryConfig, run_query

        return run_query(QueryConfig(
            n=16, topology="er", aggregate="COUNT", seed=11,
            churn=ChurnSpec(kind="replacement", rate=1.0),
            trace_sink=sink,
        ))

    def test_verdict_and_counts_identical_across_sinks(self, tmp_path):
        outcomes = {
            name: self._outcome(name) for name in ("memory", "null", "counts")
        }
        outcomes["jsonl"] = self._outcome(
            JsonlStreamSink(tmp_path / "trial.jsonl")
        )
        reference = outcomes["memory"]
        for name, outcome in outcomes.items():
            assert outcome.ok == reference.ok, name
            assert outcome.record.result == reference.record.result, name
            assert outcome.messages == reference.messages, name
            assert outcome.completeness == reference.completeness, name
            assert (
                outcome.trace.summary() == reference.trace.summary()
            ), name

    def test_space_saving_sink_retains_less(self):
        full = self._outcome("memory")
        lean = self._outcome("null")
        assert lean.trace.retained < full.trace.retained
        assert len(lean.trace) == len(full.trace)


class TestAbstractSink:
    def test_default_hooks_are_noops(self):
        class Probe(TraceSink):
            name = "probe"

        sink = Probe()
        sink.emit(None)
        sink.close()
        assert repr(sink) == "Probe()"


class TestEmitIsOnlyCalledWhenOverridden:
    """The TraceLog skips the inherited no-op ``emit`` (decided once per
    log); a sink class that overrides it sees every event, retained or
    not, in record order."""

    def test_inherited_noop_is_skipped(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            TraceSink, "emit", lambda self, event: calls.append(event)
        )
        for sink in (MemorySink(), NullSink()):
            log = TraceLog(sink=sink)
            log.record(0.0, "join", entity=1)
            log.record(1.0, "send", msg_id=0, msg_kind="X", sender=1, receiver=2)
            assert len(log) == 2
        assert calls == []

    def test_overriding_sinks_see_every_event(self):
        from repro.obs.check import CheckingSink

        seen = []

        class Spy(TraceSink):
            name = "spy"

            def emit(self, event):
                seen.append(event.kind)

        log = TraceLog(sink=CheckingSink(Spy()))
        log.record(0.0, "join", entity=1, neighbors=(), degree=0, value=None)
        log.record(1.0, "timer", entity=1, name="t")
        assert seen == ["join", "timer"]
        assert log.retained == 1

        counting = CountingSink()
        log = TraceLog(sink=counting)
        log.record(1.0, "send", msg_id=0, msg_kind="X", sender=1, receiver=2)
        log.record(1.0, "send", msg_id=1, msg_kind="X", sender=1, receiver=2)
        log.record(2.0, "timer", entity=1, name="t")
        assert counting.summary() == {"send": {"X": 2}}
