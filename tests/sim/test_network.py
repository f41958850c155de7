"""Tests for membership and transport (repro.sim.network)."""

from __future__ import annotations

import pytest

from repro.sim.errors import MembershipError, SchedulingError, TopologyError
from repro.sim.latency import BernoulliLoss, ConstantDelay
from repro.sim.messages import Message
from repro.sim.node import Process
from repro.sim.scheduler import Simulator


class Recorder(Process):
    """A process that records everything that happens to it."""

    def __init__(self, value=None):
        super().__init__(value)
        self.received: list[Message] = []
        self.joined_neighbors: list[int] = []
        self.left_neighbors: list[int] = []
        self.started = False
        self.stopped = False

    def on_start(self):
        self.started = True

    def on_stop(self):
        self.stopped = True

    def on_message(self, message):
        self.received.append(message)

    def on_neighbor_join(self, pid):
        self.joined_neighbors.append(pid)

    def on_neighbor_leave(self, pid):
        self.left_neighbors.append(pid)


class TestMembership:
    def test_add_and_present(self, sim):
        a = sim.spawn(Recorder())
        assert sim.network.present() == {a.pid}
        assert a.started

    def test_double_add_rejected(self, sim):
        a = sim.spawn(Recorder())
        with pytest.raises(MembershipError):
            sim.network.add_process(a)

    def test_attach_to_absent_rejected(self, sim):
        proc = Recorder()
        proc.pid = sim.new_pid()
        proc._sim = sim
        with pytest.raises(MembershipError):
            sim.network.add_process(proc, neighbors=[999])

    def test_remove_absent_rejected(self, sim):
        with pytest.raises(MembershipError):
            sim.network.remove_process(42)

    def test_neighbor_callbacks_on_join(self, sim):
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        assert a.joined_neighbors == [b.pid]
        assert b.neighbors() == {a.pid}

    def test_neighbor_callbacks_on_leave(self, sim):
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        sim.kill(b.pid)
        assert a.left_neighbors == [b.pid]
        assert b.stopped

    def test_leave_cleans_adjacency(self, sim):
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        sim.kill(b.pid)
        assert a.neighbors() == frozenset()


class TestTopologyOps:
    def test_add_edge_notifies_both(self, sim):
        a, b = sim.spawn(Recorder()), sim.spawn(Recorder())
        sim.network.add_edge(a.pid, b.pid)
        assert a.joined_neighbors == [b.pid]
        assert b.joined_neighbors == [a.pid]

    def test_add_edge_idempotent(self, sim):
        a, b = sim.spawn(Recorder()), sim.spawn(Recorder())
        sim.network.add_edge(a.pid, b.pid)
        sim.network.add_edge(a.pid, b.pid)
        assert a.joined_neighbors == [b.pid]

    def test_remove_edge_notifies(self, sim):
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        sim.network.remove_edge(a.pid, b.pid)
        assert a.left_neighbors == [b.pid]
        assert b.left_neighbors == [a.pid]
        assert a.neighbors() == frozenset()

    def test_remove_missing_edge_is_noop(self, sim):
        a, b = sim.spawn(Recorder()), sim.spawn(Recorder())
        sim.network.remove_edge(a.pid, b.pid)
        assert a.left_neighbors == []

    def test_self_loop_rejected(self, sim):
        a = sim.spawn(Recorder())
        with pytest.raises(TopologyError):
            sim.network.add_edge(a.pid, a.pid)

    def test_edges_view(self, sim):
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        assert sim.network.edges() == {(a.pid, b.pid)}


class TestTransport:
    def test_delivery_between_neighbors(self, sim):
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        a.send(b.pid, "PING", n=1)
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].kind == "PING"
        assert b.received[0].payload["n"] == 1

    def test_send_to_non_neighbor_rejected(self, sim):
        a, b = sim.spawn(Recorder()), sim.spawn(Recorder())
        with pytest.raises(TopologyError, match=r"process 0 cannot reach 1: not a neighbor"):
            a.send(b.pid, "PING")

    def test_send_from_absent_sender_rejected(self, sim):
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        sim.kill(b.pid)
        with pytest.raises(MembershipError, match=r"sender 1 is not present"):
            sim.network.send(Message(b.pid, a.pid, "X", {}))

    @pytest.mark.parametrize("delay, error", [
        (-0.5, r"cannot schedule at 1\.5 < now \(2\.0\)"),
        (float("nan"), r"event time is NaN"),
    ], ids=["negative", "nan"])
    def test_delivery_scheduling_guards(self, delay, error):
        model = ConstantDelay()
        model.delay = delay  # past ConstantDelay's own validation
        sim = Simulator(seed=1, delay_model=model)
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        sim.run(until=2.0)
        with pytest.raises(SchedulingError, match=error):
            a.send(b.pid, "X")

    def test_delivery_respects_delay(self):
        sim = Simulator(seed=0, delay_model=ConstantDelay(2.5))
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        a.send(b.pid, "PING")
        sim.run()
        deliver = sim.trace.events("deliver")[0]
        assert deliver.time == 2.5

    def test_message_to_departed_dropped(self, sim):
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        a.send(b.pid, "PING")
        sim.kill(b.pid)  # leaves before the delivery at t=1
        sim.run()
        assert b.received == []
        drops = sim.trace.events("drop")
        assert len(drops) == 1
        assert drops[0]["reason"] == "receiver_absent"

    def test_loss_model_drops(self):
        sim = Simulator(seed=0, loss_model=BernoulliLoss(1.0))
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        a.send(b.pid, "PING")
        sim.run()
        assert b.received == []
        assert sim.trace.events("drop")[0]["reason"] == "loss"

    def test_loss_emits_msg_lost_alongside_drop(self):
        """Causal analysis needs "sent and lost" distinguishable from
        "never sent": every transport loss records a ``msg_lost`` event
        owned by the *sender*, mirroring the ``drop`` bookkeeping."""
        sim = Simulator(seed=0, loss_model=BernoulliLoss(1.0))
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        a.send(b.pid, "PING")
        sim.run()
        drops = sim.trace.events("drop")
        lost = sim.trace.events("msg_lost")
        assert len(drops) == len(lost) == 1
        assert lost[0]["msg_id"] == drops[0]["msg_id"]
        assert lost[0]["reason"] == "loss"
        assert lost[0]["sender"] == a.pid
        assert lost[0]["receiver"] == b.pid
        assert lost[0]["entity"] == a.pid

    def test_clean_delivery_emits_no_msg_lost(self, sim):
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        a.send(b.pid, "PING")
        sim.run()
        assert sim.trace.events("msg_lost") == []

    def test_send_traced(self, sim):
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        a.send(b.pid, "PING")
        sends = sim.trace.events("send")
        assert len(sends) == 1
        assert sends[0]["msg_kind"] == "PING"
        assert sends[0]["sender"] == a.pid

    def test_edge_delay_override(self):
        sim = Simulator(seed=0, delay_model=ConstantDelay(1.0))
        a = sim.spawn(Recorder())
        b = sim.spawn(Recorder(), neighbors=[a.pid])
        sim.network.set_edge_delay(a.pid, b.pid, ConstantDelay(9.0))
        a.send(b.pid, "PING")
        sim.run()
        assert sim.trace.events("deliver")[0].time == 9.0


class TestCompleteMode:
    def test_everyone_is_neighbor(self, complete_sim):
        procs = [complete_sim.spawn(Recorder()) for _ in range(4)]
        assert procs[0].neighbors() == {p.pid for p in procs[1:]}

    def test_send_without_edges(self, complete_sim):
        a = complete_sim.spawn(Recorder())
        b = complete_sim.spawn(Recorder())
        a.send(b.pid, "PING")
        complete_sim.run()
        assert len(b.received) == 1

    def test_join_notifies_everyone(self, complete_sim):
        a = complete_sim.spawn(Recorder())
        b = complete_sim.spawn(Recorder())
        assert a.joined_neighbors == [b.pid]

    def test_leave_notifies_everyone(self, complete_sim):
        a = complete_sim.spawn(Recorder())
        b = complete_sim.spawn(Recorder())
        complete_sim.kill(b.pid)
        assert a.left_neighbors == [b.pid]

    def test_send_to_self_rejected(self, complete_sim):
        a = complete_sim.spawn(Recorder())
        with pytest.raises(TopologyError, match=r"process 0 cannot reach 0$"):
            a.send(a.pid, "PING")

    def test_send_to_absent_rejected(self, complete_sim):
        a = complete_sim.spawn(Recorder())
        with pytest.raises(TopologyError, match=r"process 0 cannot reach 999$"):
            a.send(999, "PING")


def _chorded_ring(complete: bool) -> Simulator:
    """Eight processes: a ring with chords 4-1 and 6-3, or a complete
    network without process 6."""
    sim = Simulator(seed=2007, complete=complete)
    for i in range(8):
        ring = [i - 1] * (i > 0) + [0] * (i == 7) + [i - 3] * (i in (4, 6))
        sim.spawn(Recorder(), [] if complete else ring)
    if complete:
        sim.kill(6)
    return sim


class TestFanOut:
    """``Network.send`` with receivers: one message per receiver, in order,
    until a receiver the sender cannot reach raises."""

    @pytest.mark.parametrize("complete, receivers, sent, error", [
        (False, [3, 1, 2, 5], [3, 1], "process 4 cannot reach 2: not a neighbor"),
        (False, [0], [], "process 4 cannot reach 0: not a neighbor"),
        (True, [1, 2, 4], [1, 2], "process 4 cannot reach 4$"),
        (True, [1, 6, 2], [1], "process 4 cannot reach 6$"),
        (True, [3, 99], [3], "process 4 cannot reach 99$"),
    ], ids=["ring-midway", "ring-first", "complete-self", "complete-gone", "complete-never"])
    def test_an_unreachable_receiver_raises_after_the_ones_before_it(
        self, complete, receivers, sent, error
    ):
        sim = _chorded_ring(complete)
        with pytest.raises(TopologyError, match=error):
            sim.network.send(Message(4, None, "PROBE", {"note": "x"}), receivers)
        assert [e["receiver"] for e in sim.trace.events("send")] == sent
        assert len(sim.queue) == len(sent)

    def test_an_absent_sender_or_no_receiver_sends_nothing(self):
        sim = _chorded_ring(complete=True)
        with pytest.raises(MembershipError, match=r"sender 6 is not present"):
            sim.network.send(Message(6, None, "PROBE", {}), [1, 2])
        ghost = Recorder()
        ghost.pid, ghost._sim = 6, sim
        with pytest.raises(MembershipError, match=r"process 6 is not present"):
            ghost.broadcast("X")
        sim.network.send(Message(4, None, "PROBE", {}), [])
        assert sim.trace.count("send") == 0 and len(sim.queue) == 0
