"""Tests for the process runtime (repro.sim.node)."""

from __future__ import annotations

import pytest

from repro.resilience.transport import install_resilience
from repro.sim.errors import ProtocolError, SchedulingError
from repro.sim.latency import ConstantDelay
from repro.sim.network import Network
from repro.sim.node import Process
from repro.sim.scheduler import Simulator


class TimerNode(Process):
    def __init__(self):
        super().__init__()
        self.fired: list[tuple[str, object, float]] = []

    def on_timer(self, name, payload):
        self.fired.append((name, payload, self.now))


class TestLifecycle:
    def test_unattached_process_has_no_sim(self):
        proc = Process()
        with pytest.raises(ProtocolError):
            _ = proc.sim
        for act in (lambda: proc.send(0, "X"), lambda: proc.set_timer(1.0, "t")):
            with pytest.raises(ProtocolError, match=r"process -1 is not attached to a simulator"):
                act()

    def test_alive_flag(self, sim):
        proc = sim.spawn(Process())
        assert proc.alive
        sim.kill(proc.pid)
        assert not proc.alive

    def test_value_stored(self, sim):
        proc = sim.spawn(Process(value="hello"))
        assert proc.value == "hello"

    def test_repr(self, sim):
        proc = sim.spawn(Process(value=3))
        assert str(proc.pid) in repr(proc)

    def test_membership_hooks_run_where_a_class_defines_them(self, sim):
        """The network skips the base class's no-op hooks, per class, and
        still calls every hook a class (or one of its bases) defines."""
        heard = []

        class Listener(Process):
            def on_start(self):
                heard.append(("start", self.pid))

            def on_neighbor_join(self, pid):
                heard.append(("join", self.pid, pid))

            def on_neighbor_leave(self, pid):
                heard.append(("leave", self.pid, pid))

            def on_message(self, message):
                heard.append(("message", self.pid))

        class Heir(Listener):
            def on_stop(self):
                heard.append(("stop", self.pid))

        assert not (Process._starts or Process._stops or Process._hears_messages
                    or Process._hears_joins or Process._hears_leaves)
        assert (Listener._starts, Listener._stops) == (True, False)
        assert Heir._stops and Heir._hears_joins and Heir._hears_leaves
        assert Listener._hears_messages and Heir._hears_messages  # inherited
        first = sim.spawn(Listener()).pid
        second = sim.spawn(Heir(), [first]).pid
        plain = sim.spawn(Process(), [first, second]).pid
        sim.kill(second)
        assert heard == [
            ("start", first), ("start", second), ("join", first, second),
            ("join", first, plain), ("join", second, plain),
            ("stop", second), ("leave", first, second),
        ]


class TestTimers:
    def test_timer_fires(self, sim):
        node = sim.spawn(TimerNode())
        node.set_timer(2.0, "tick", {"x": 1})
        sim.run()
        assert node.fired == [("tick", {"x": 1}, 2.0)]

    def test_timer_cancel(self, sim):
        node = sim.spawn(TimerNode())
        timer = node.set_timer(2.0, "tick")
        node.cancel_timer(timer)
        sim.run()
        assert node.fired == []

    def test_cancel_fired_timer_is_noop(self, sim):
        node = sim.spawn(TimerNode())
        timer = node.set_timer(1.0, "tick")
        sim.run()
        node.cancel_timer(timer)  # must not raise
        assert len(node.fired) == 1

    def test_cancel_fired_timer_leaves_the_queue_alone(self, sim):
        node = sim.spawn(TimerNode())
        fired = node.set_timer(1.0, "tick")
        node.set_timer(3.0, "later")
        sim.run(until=2.0)
        assert fired.action is None  # a fired handle holds nothing
        assert len(sim.queue) == 1
        node.cancel_timer(fired)
        assert len(sim.queue) == 1
        sim.run()
        assert [f[0] for f in node.fired] == ["tick", "later"]

    def test_cancel_counts_a_pending_timer_once(self, sim):
        node = sim.spawn(TimerNode())
        timer = node.set_timer(2.0, "tick")
        node.set_timer(3.0, "kept")
        node.cancel_timer(timer)
        node.cancel_timer(timer)
        assert len(sim.queue) == 1

    def test_foreign_handle_rejected(self, sim):
        node, other = sim.spawn(TimerNode()), sim.spawn(TimerNode())
        theirs = other.set_timer(1.0, "tick")
        event = sim.schedule(1.0, lambda: None)
        for handle in (theirs, event):
            with pytest.raises(ProtocolError, match=r"not one of its timers"):
                node.cancel_timer(handle)
        assert len(sim.queue) == 2
        sim.run()
        assert [f[0] for f in other.fired] == ["tick"]

    def test_cancel_through_a_wrapping_queue(self, sim):
        # A profiler that wraps each queued action (as the benchmark's
        # probes do) leaves the label to say that an event is a timer.
        push = sim.queue.push
        sim.queue.push = lambda time, action, **kw: push(
            time, lambda: action(), **kw)
        node = sim.spawn(TimerNode())
        timer = node.set_timer(1.0, "tick")
        with pytest.raises(ProtocolError, match=r"not one of its timers"):
            node.cancel_timer(sim.schedule(1.0, lambda: None))
        node.cancel_timer(timer)
        sim.run()
        assert node.fired == []

    def test_timer_suppressed_after_departure(self, sim):
        node = sim.spawn(TimerNode())
        node.set_timer(5.0, "tick")
        sim.schedule_leave(1.0, node.pid)
        sim.run()
        assert node.fired == []

    def test_negative_timer_rejected(self, sim):
        node = sim.spawn(TimerNode())
        with pytest.raises(ProtocolError, match=r"timer delay must be >= 0, got -1\.0"):
            node.set_timer(-1.0, "tick")
        with pytest.raises(SchedulingError, match=r"event time is NaN"):
            node.set_timer(float("nan"), "tick")

    def test_multiple_timers_ordered(self, sim):
        node = sim.spawn(TimerNode())
        node.set_timer(3.0, "late")
        node.set_timer(1.0, "early")
        sim.run()
        assert [f[0] for f in node.fired] == ["early", "late"]

    def test_timer_traced(self, sim):
        node = sim.spawn(TimerNode())
        node.set_timer(1.0, "tick")
        sim.run()
        timers = sim.trace.events("timer")
        assert len(timers) == 1
        assert timers[0]["name"] == "tick"


class TestActions:
    def test_broadcast_reaches_all_neighbors(self, sim):
        hub = sim.spawn(Process())
        leaves = [sim.spawn(Process(), neighbors=[hub.pid]) for _ in range(3)]
        sent = hub.broadcast("HELLO")
        assert sent == 3
        sim.run()
        assert sim.trace.count("deliver") == 3

    def test_broadcast_exclude(self, sim):
        hub = sim.spawn(Process())
        a = sim.spawn(Process(), neighbors=[hub.pid])
        b = sim.spawn(Process(), neighbors=[hub.pid])
        sent = hub.broadcast("HELLO", exclude=a.pid)
        assert sent == 1
        sim.run()
        deliver = sim.trace.events("deliver")[0]
        assert deliver["receiver"] == b.pid

    def test_broadcast_no_neighbors(self, sim):
        lone = sim.spawn(Process())
        assert lone.broadcast("HELLO") == 0

    def test_record_writes_to_trace(self, sim):
        proc = sim.spawn(Process())
        proc.record("custom_event", data=5)
        events = sim.trace.events("custom_event")
        assert len(events) == 1
        assert events[0]["entity"] == proc.pid
        assert events[0]["data"] == 5

    def test_per_process_rng_deterministic(self, sim):
        a = sim.spawn(Process())
        first = a.rng.random()
        other_sim = Simulator(seed=0)
        b = other_sim.spawn(Process())
        assert b.rng.random() == first


class TestFanOut:
    """``broadcast`` is one fan-out ``Network.send``: the sorted neighbors
    but ``exclude``, each with its own copy of the payload; a receiver that
    defines no ``on_message`` is not called."""

    def test_broadcast_is_one_call_into_the_network(self, sim, monkeypatch):
        hub = sim.spawn(Process())
        spokes = [sim.spawn(Process(), [hub.pid]).pid for _ in range(3)]
        calls, send = [], Network.send

        def counted(network, message, receivers=None):
            calls.append(receivers)
            return send(network, message, receivers)

        monkeypatch.setattr(Network, "send", counted)
        assert hub.broadcast("R", hops=1) == 3
        assert hub.broadcast("R", exclude=spokes[1], hops=1) == 2
        assert hub.broadcast("R", exclude=99, hops=1) == 3
        assert calls == [spokes, [spokes[0], spokes[2]], spokes]
        payloads = []
        while sim.queue:  # ``PendingDelivery(network, message, msg_id, counter)``
            payloads.append(sim.queue.pop().action[1].payload)
        assert payloads == [{"hops": 1}] * 8 and len(set(map(id, payloads))) == 8

    @pytest.mark.parametrize("resilience", [None, "full"])
    def test_a_deaf_receiver_is_counted_and_traced_but_never_called(
        self, monkeypatch, resilience
    ):
        class Deaf(Process):
            """Defines no ``on_message``."""

        class Pinger(Process):
            def on_start(self):
                self.set_timer(0.5, "ping")

            def on_timer(self, name, payload):
                self.broadcast("PING")
                self.set_timer(1.0, "ping")

        def called(self, message):
            raise AssertionError("inherited no-op on_message was called")

        assert not (Process._hears_messages or Deaf._hears_messages)
        monkeypatch.setattr(Process, "on_message", called)
        sim = Simulator(seed=2007, delay_model=ConstantDelay(1.0))
        deaf = sim.spawn(Deaf()).pid
        sim.spawn(Pinger(), [deaf])
        install_resilience(resilience, sim)
        sim.run(until=5.0)
        # Pings leave at 0.5, 1.5, 2.5 and 3.5 and take 1.0 each.
        delivered = [e for e in sim.trace.events("deliver") if e["receiver"] == deaf]
        assert len(delivered) == 4 and sim.metrics.value("net.delivered") >= 4
        assert sim.metrics.value("resilience.acks_sent") == (4 if resilience else 0)
