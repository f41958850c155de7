"""Tests for pluggable trace sinks (repro.obs.sinks)."""

from __future__ import annotations

import pytest

from repro.obs.check import CheckingSink
from repro.obs.codec import decode_value, encode_value
from repro.obs.sinks import (
    FOLDED_KINDS,
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
from repro.sim.trace import CONTACT, PRESENCE, TraceLog


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
        assert all(sink.retains(kind) for kind in TRANSPORT_KINDS | FOLDED_KINDS)

    def test_the_folded_kinds_are_the_contact_kinds(self):
        assert FOLDED_KINDS == set(CONTACT) >= set(PRESENCE)

    @pytest.mark.parametrize("sink_cls", [NullSink, CountingSink])
    def test_space_savers_drop_transport_and_folded_kinds(self, sink_cls):
        sink = sink_cls()
        assert not any(sink.retains(kind) for kind in TRANSPORT_KINDS)
        assert not any(sink.retains(kind) for kind in FOLDED_KINDS)
        for kind in ("query_issued", "query_returned", "partition_split"):
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

    def test_membership_folded_not_retained_under_null_sink(self):
        from repro.core.runs import Interval, Run

        log = TraceLog(sink=NullSink())
        log.record(0.0, "join", entity=1, value=3)
        log.record(1.0, "send", src=1, dst=2)
        log.record(2.0, "leave", entity=1)
        assert log.retained == 0
        run = Run.from_trace(log)
        assert run.interval(1) == Interval(0.0, 2.0) and run.values == {1: 3}
        with pytest.raises(ConfigurationError, match="'join'.*memory"):
            log.membership_events()
        with pytest.raises(ConfigurationError, match="'send'.*memory"):
            log.events("send")
        assert log.count("send") == 1


class TestDroppedIsLoud:
    """Reading a kind that was recorded but not retained is an error that
    names the kind and the remedy; a kind never recorded is just absent."""

    @pytest.fixture
    def lean(self):
        log = TraceLog(sink=NullSink())
        log.record(0.0, "query_issued", qid=0, entity=1)
        log.record(1.0, "send", msg_id=0, msg_kind="X", sender=1, receiver=2)
        log.record(2.0, "drop", msg_id=0, msg_kind="X", reason="loss")
        return log

    @pytest.mark.parametrize("read", [
        lambda log: log.events("send"),
        lambda log: log.first("send"),
        lambda log: log.last("drop"),
        lambda log: log.between(0.0, 9.0, kind="send"),
    ], ids=["events", "first", "last", "between"])
    def test_kind_reads_raise(self, lean, read):
        with pytest.raises(ConfigurationError,
                           match=r"'(send|drop)'.*trace_sink=\"memory\""):
            read(lean)

    def test_never_recorded_kinds_are_empty_not_errors(self, lean):
        assert lean.events("deliver") == []
        assert lean.first("timer") is None
        assert lean.last("retransmit") is None
        assert lean.between(0.0, 9.0, kind="msg_lost") == []

    def test_retained_kinds_and_unfiltered_reads_still_answer(self, lean):
        issued = "query_issued"
        assert [e.kind for e in lean.events(issued)] == [issued]
        assert lean.first(issued) is lean.last(issued)
        assert [e.kind for e in lean.events()] == [issued]
        assert [e.kind for e in lean.between(0.0, 9.0)] == [issued]

    def test_metrics_helpers_inherit_the_error(self, lean):
        from repro.analysis.metrics import (
            drop_reasons,
            message_cost,
            message_cost_by_kind,
            wave_depth,
        )

        assert message_cost(lean) == 1  # counts stay exact
        for helper in (message_cost_by_kind, drop_reasons,
                       lambda log: wave_depth(log, qid=0),
                       lambda log: message_cost(log, kind="X")):
            with pytest.raises(ConfigurationError, match="memory"):
                helper(lean)

    def test_whole_stream_readers_refuse_a_log_that_dropped_events(self, lean):
        from repro.obs.causal import InfluenceReport
        from repro.obs.check import check_trace
        from repro.obs.export import ascii_timeline, to_chrome_trace

        for reader in (InfluenceReport.from_trace, to_chrome_trace,
                       ascii_timeline, check_trace):
            with pytest.raises(ConfigurationError,
                               match="retained 1 of 3 events"):
                reader(lean)
        # The retained events, handed over as a plain iterable, are the
        # caller's own choice of stream.
        assert "1 events" in ascii_timeline(list(lean))

    def test_whole_stream_readers_accept_a_complete_log(self):
        from repro.obs.check import check_trace

        log = TraceLog(sink=NullSink())
        log.record(0.0, "partition_split", sides=(1, 1))
        assert log.retained == len(log)
        assert check_trace(log) == []
        log.record(1.0, "join", entity=1)  # folded, not retained
        with pytest.raises(ConfigurationError, match="retained 1 of 2"):
            check_trace(log)


class TestNoEventIsBuiltForNobody:
    """``record`` constructs a TraceEvent only when the sink retains the
    kind or observes the stream — counted, not timed."""

    @staticmethod
    def _constructions(monkeypatch, sink):
        import repro.sim.trace as trace_mod

        built = []

        # The construction point: a TraceEvent is one ``tuple.__new__``.
        def counting_event(cls, fields):
            built.append(fields[1])
            return real(cls, fields)

        real = trace_mod._new_event
        monkeypatch.setattr(trace_mod, "_new_event", counting_event)
        log = TraceLog(sink=sink)
        log.record(0.0, "join", entity=1)
        for i in range(20):
            log.record(float(i), "send", msg_id=i, msg_kind="X",
                       sender=1, receiver=2)
            log.record(float(i), "deliver", msg_id=i, msg_kind="X",
                       sender=1, receiver=2)
        log.record(21.0, "query_issued", qid=0, entity=1)
        return log, built

    def test_null_sink_builds_exactly_the_retained_events(self, monkeypatch):
        log, built = self._constructions(monkeypatch, NullSink())
        assert len(log) == 42
        assert log.retained == 1
        assert built == ["query_issued"]

    def test_counting_sink_builds_exactly_the_retained_events(
        self, monkeypatch
    ):
        """The counting sink observes neither ``send`` nor ``deliver``:
        ``record`` bumps its per-message-kind counter instead."""
        sink = CountingSink()
        log, built = self._constructions(monkeypatch, sink)
        assert len(log) == 42
        assert built == ["query_issued"]
        assert sink.summary() == {"deliver": {"X": 20}, "send": {"X": 20}}

    @pytest.mark.parametrize("make", [
        MemorySink,
        lambda: CheckingSink(NullSink()),
        lambda: CheckingSink(CountingSink()),
    ], ids=["memory", "checking(null)", "checking(counts)"])
    def test_observing_or_retaining_sinks_build_every_event(
        self, monkeypatch, make
    ):
        log, built = self._constructions(monkeypatch, make())
        assert len(built) == len(log) == 42

    def test_record_returns_none_only_for_an_unbuilt_event(self):
        log = TraceLog(sink=NullSink())
        assert log.record(0.0, "query_issued", entity=1).kind == "query_issued"
        assert log.record(1.0, "send", msg_id=0) is None
        assert log.record(2.0, "join", entity=1) is None
        assert TraceLog().record(1.0, "send", msg_id=0).kind == "send"

    def test_retains_is_asked_once_per_kind(self):
        asked = []

        class Probe(NullSink):
            def retains(self, kind):
                asked.append(kind)
                return super().retains(kind)

        log = TraceLog(sink=Probe())
        for i in range(5):
            log.record(float(i), "send", msg_id=i)
            log.record(float(i), "query_issued", entity=i)
        assert asked == ["send", "query_issued"]
        assert log.retained == 5


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
        assert log.retained == 1  # query_issued only: the join is folded

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
        assert log.retained == 0


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
        assert not sink.retains("join")
        assert sink.retains("query_issued")

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
        seen = []

        class Spy(TraceSink):
            name = "spy"

            def emit(self, event):
                seen.append(event.kind)

        log = TraceLog(sink=CheckingSink(Spy()))
        log.record(0.0, "join", entity=1, neighbors=(), degree=0, value=None)
        log.record(1.0, "timer", entity=1, name="t")
        assert seen == ["join", "timer"]
        assert log.retained == 0

        counting = CountingSink()
        log = TraceLog(sink=counting)
        log.record(1.0, "send", msg_id=0, msg_kind="X", sender=1, receiver=2)
        log.record(1.0, "send", msg_id=1, msg_kind="X", sender=1, receiver=2)
        log.record(2.0, "timer", entity=1, name="t")
        assert counting.summary() == {"send": {"X": 2}}


# ----------------------------------------------------------------------
# The count path: CountingSink counts send and deliver where they happen
# ----------------------------------------------------------------------


class EmitCounter(TraceSink):
    """The reference: a ``{kind: {msg_kind: n}}`` breakdown of the
    transport kinds, taken from every event in :meth:`emit`."""

    name = "emit-counter"

    def __init__(self):
        self.counts = {}

    def emit(self, event):
        msg_kind = event.data.get("msg_kind")
        if event.kind in TRANSPORT_KINDS and msg_kind is not None:
            by_msg_kind = self.counts.setdefault(event.kind, {})
            by_msg_kind[msg_kind] = by_msg_kind.get(msg_kind, 0) + 1

    def summary(self):
        return {
            kind: dict(sorted(counts.items()))
            for kind, counts in sorted(self.counts.items())
        }


def ping_storm(sink, arm: str, n: int = 40, horizon: float = 20.0):
    """A ping storm on a complete graph (each ping answered with a pong)
    under silent churn, so messages to departed receivers drop as
    ``receiver_absent``; ``arm`` adds Bernoulli loss, a duplicate + drop
    fault plan, or that plan under ``full`` resilience.  Built, not run."""
    from repro.faults.injector import install_plan
    from repro.faults.spec import FaultPlan, FaultSpec
    from repro.resilience.transport import install_resilience
    from repro.sim.latency import BernoulliLoss
    from repro.sim.node import Process
    from repro.sim.scheduler import Simulator

    class Ping(Process):
        def on_start(self):
            self.set_timer(self.rng.uniform(0.0, 1.0), "ping")

        def on_timer(self, name, payload):
            target = self.random_neighbor()
            if target is not None:
                self.send(target, "PING")
            self.set_timer(1.0, "ping")

        def on_message(self, message):
            if message.kind == "PING" and self.sim.network.is_present(
                message.sender
            ):
                self.send(message.sender, "PONG")

    sim = Simulator(
        seed=2007, complete=True, notify_leaves=False, notify_joins=False,
        loss_model=BernoulliLoss(0.1) if arm == "loss" else None,
        trace_sink=sink,
    )
    pids = [sim.spawn(Ping(1.0)).pid for _ in range(n)]
    if arm in ("faults", "resilience"):
        install_plan(FaultPlan.of(
            FaultSpec(kind="duplicate", start=2.0, duration=8.0,
                      probability=0.3, copies=2),
            FaultSpec(kind="drop_burst", start=6.0, duration=8.0,
                      probability=0.2),
        ), sim, factory=lambda: Ping(1.0), protected=(pids[0],))
    if arm == "resilience":
        install_resilience("full", sim)
    rng = sim.rng_for("churn")
    for _ in range(n // 4):
        at = rng.uniform(0.5, horizon)
        sim.schedule_leave(at, rng.choice(pids))
        sim.schedule_join(at, lambda: Ping(1.0), lambda present: ())
    return sim


class TestCountPathMatchesEmitPath:
    """``CountingSink`` counts ``send``/``deliver`` at the call sites and
    ``drop``/``msg_lost``/``retransmit`` through ``emit``; every event is
    counted once, exactly as a sink that counts everything in ``emit``."""

    @pytest.mark.parametrize("arm", ["plain", "loss", "faults", "resilience"])
    @pytest.mark.parametrize("wrapped", [False, True],
                             ids=["counts", "checking(counts)"])
    def test_same_breakdown_and_counts(self, arm, wrapped):
        reference = ping_storm(EmitCounter(), arm)
        reference.run(until=20.0)
        counting = CountingSink()
        sim = ping_storm(CheckingSink(counting) if wrapped else counting, arm)
        sim.run(until=20.0)
        expected = reference.trace.sink.summary()
        assert counting.summary() == expected
        assert sim.trace.summary() == reference.trace.summary()
        assert len(sim.trace) == len(reference.trace)
        for kind in TRANSPORT_KINDS:
            assert sim.trace.count(kind) == reference.trace.count(kind), kind
        # Each arm reaches the paths it is there for.
        counters = sim.metrics_snapshot()["counters"]
        assert {"PING", "PONG"} <= set(expected["deliver"])
        assert counters["net.dropped.receiver_absent"] > 0
        assert (arm == "loss") == ("net.dropped.loss" in counters)
        if arm in ("faults", "resilience"):
            assert counters["faults.duplicates"] > 0
            assert counters["net.dropped.fault"] > 0
        if arm == "resilience":
            assert expected["retransmit"]

    def test_send_deliver_and_timer_never_enter_record(self, monkeypatch):
        """Under the counting sink, once the first event of a kind has
        decided it, the storm's sends, deliveries and timer fires — and its
        joins and leaves, folded in place — are counted where they happen:
        ``TraceLog.record`` is not called for any of them again."""
        from repro.sim import trace as trace_mod

        sim = ping_storm(CountingSink(), "plain")
        sim.run(until=2.0)
        before = sim.trace.summary()
        recorded = []
        real = trace_mod.TraceLog.record

        def spy(self, time, kind, **data):
            recorded.append(kind)
            return real(self, time, kind, **data)

        monkeypatch.setattr(trace_mod.TraceLog, "record", spy)
        sim.run(until=20.0)
        after = sim.trace.summary()
        for kind in ("send", "deliver", "timer"):
            assert after[kind] - before[kind] > 500, kind
        assert after["join"] > before["join"] and after["leave"] > before["leave"]
        assert {"send", "deliver", "timer", "join", "leave"}.isdisjoint(recorded)
        assert "drop" in recorded
