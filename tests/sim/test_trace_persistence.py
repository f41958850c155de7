"""Tests for trace persistence and FIFO channels."""

from __future__ import annotations

import pytest

from repro.core.spec import OneTimeQuerySpec
from repro.sim.errors import ConfigurationError
from repro.sim.latency import UniformDelay
from repro.sim.messages import Message
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.sim.trace import TraceLog


class TestTracePersistence:
    def test_roundtrip_basic(self, tmp_path):
        log = TraceLog()
        log.record(0.0, "join", entity=0, value=1.5)
        log.record(1.0, "send", msg_id=0, msg_kind="X", sender=0, receiver=1)
        path = tmp_path / "trace.jsonl"
        assert log.save_jsonl(path) == 2
        loaded = TraceLog.load_jsonl(path)
        assert len(loaded) == 2
        assert loaded.events("join")[0]["value"] == 1.5
        assert loaded.events("send")[0]["msg_kind"] == "X"

    def test_roundtrip_tuples_and_frozensets(self, tmp_path):
        log = TraceLog()
        log.record(2.0, "query_returned", qid=0, entity=0, aggregate="SET",
                   result=frozenset({1.0, 2.0}), contributors=(0, 1, 2))
        path = tmp_path / "trace.jsonl"
        log.save_jsonl(path)
        loaded = TraceLog.load_jsonl(path)
        event = loaded.events("query_returned")[0]
        assert event["contributors"] == (0, 1, 2)
        assert event["result"] == frozenset({1.0, 2.0})

    def test_loaded_trace_spec_checkable(self, tmp_path):
        """A persisted simulation trace can be re-audited offline (a
        memory trace: the null sink folds membership without keeping it)."""
        from repro.engine.trials import QueryConfig, run_query

        outcome = run_query(QueryConfig(n=10, topology="er", aggregate="SUM",
                                        seed=4, horizon=100,
                                        trace_sink="memory"))
        path = tmp_path / "sim.jsonl"
        outcome.trace.save_jsonl(path)
        loaded = TraceLog.load_jsonl(path)
        verdicts = OneTimeQuerySpec().check(loaded, horizon=100)
        assert len(verdicts) == 1
        assert verdicts[0].ok

    def test_folded_membership_refuses_to_save(self, tmp_path):
        """A default (null-sink) trial trace folds its joins and leaves
        without keeping them; saving it would write a run with nobody in
        it, so it raises instead of writing a file."""
        from repro.engine.trials import QueryConfig, run_query

        outcome = run_query(QueryConfig(n=10, topology="er", aggregate="SUM",
                                        seed=4, horizon=100))
        path = tmp_path / "sim.jsonl"
        with pytest.raises(ConfigurationError, match="'join' events were recorded"):
            outcome.trace.save_jsonl(path)
        assert not path.exists()

    def test_unknown_objects_degrade_to_repr(self, tmp_path):
        log = TraceLog()
        log.record(0.0, "odd", payload=object())
        path = tmp_path / "trace.jsonl"
        log.save_jsonl(path)
        loaded = TraceLog.load_jsonl(path)
        assert isinstance(loaded.events("odd")[0]["payload"], str)

    def test_empty_log(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert TraceLog().save_jsonl(path) == 0
        assert len(TraceLog.load_jsonl(path)) == 0


class Collector(Process):
    def __init__(self):
        super().__init__()
        self.received: list[int] = []

    def on_message(self, message: Message) -> None:
        self.received.append(message.payload["n"])


class TestFifoChannels:
    def test_fifo_preserves_order(self):
        sim = Simulator(seed=3, delay_model=UniformDelay(0.1, 5.0), fifo=True)
        a = sim.spawn(Process())
        b = sim.spawn(Collector(), neighbors=[a.pid])
        for i in range(30):
            sim.at(float(i) * 0.01, lambda i=i: a.send(b.pid, "N", n=i))
        sim.run()
        assert b.received == list(range(30))

    def test_non_fifo_can_reorder(self):
        sim = Simulator(seed=3, delay_model=UniformDelay(0.1, 5.0), fifo=False)
        a = sim.spawn(Process())
        b = sim.spawn(Collector(), neighbors=[a.pid])
        for i in range(30):
            sim.at(float(i) * 0.01, lambda i=i: a.send(b.pid, "N", n=i))
        sim.run()
        assert b.received != list(range(30))  # highly likely with this seed
        assert sorted(b.received) == list(range(30))

    def test_fifo_is_per_directed_channel(self):
        sim = Simulator(seed=3, delay_model=UniformDelay(0.1, 5.0), fifo=True)
        a = sim.spawn(Collector())
        b = sim.spawn(Collector(), neighbors=[a.pid])
        a.send(b.pid, "N", n=1)
        b.send(a.pid, "N", n=2)
        sim.run()
        assert b.received == [1]
        assert a.received == [2]
