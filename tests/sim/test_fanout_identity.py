"""A fan-out ``Network.send`` is one ``send`` per receiver, made cheaper.

``Process.broadcast`` hands the network one template message and the
sorted neighbors; ``Network.send`` gives each receiver its own copy.  The
reference here is the loop ``broadcast`` used to be: one ``Message`` and
one ``send`` per neighbor.  Twin simulators — one broadcasting through the
fan-out, one through that loop — must agree on everything a run leaves
behind: every trace record, every counter and histogram, the state of the
``transport``, ``faults`` and ``resilience`` random streams, and every
pending event's ``(time, priority, seq, label)``.  The scenarios take the
send path's other branches too: loss, FIFO channels, an edge-delay
override, a delay model drawn through ``sample``, the three message-level
fault windows, ``full`` resilience with a breaker that opens, complete
graphs, ``exclude`` and the errors a fan-out can raise part-way through.
"""

from __future__ import annotations

from typing import Any, Callable

import pytest

from repro.faults.injector import install_plan
from repro.resilience.transport import install_resilience
from repro.sim.errors import MembershipError, TopologyError
from repro.sim.latency import (
    BernoulliLoss,
    ConstantDelay,
    ExponentialDelay,
    UniformDelay,
)
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.node import Process
from repro.sim.scheduler import Simulator

N = 8
HORIZON = 9.0
STREAMS = ("transport", "faults", "resilience")


class Flooder(Process):
    """Broadcasts a hop-counted rumour every tick and relays it twice,
    never back to the neighbor it came from; pings one neighbor a tick."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.broadcasts: list[int] = []

    def on_start(self) -> None:
        self.set_timer(self.rng.uniform(0.0, 1.0), "tick")

    def on_timer(self, name: str, payload: object) -> None:
        self.broadcasts.append(self.broadcast("RUMOUR", hops=1, origin=self.pid))
        target = self.random_neighbor()
        if target is not None:
            self.send(target, "PING")
        self.set_timer(1.0, "tick")

    def on_message(self, message: Message) -> None:
        hops = message.payload.get("hops")
        if message.kind == "RUMOUR" and hops < 3:
            self.broadcasts.append(self.broadcast(
                "RUMOUR", exclude=message.sender, hops=hops + 1,
                origin=message.payload["origin"],
            ))


def per_receiver_broadcast(
    proc: Process, kind: str, exclude: int | None = None, **payload: Any
) -> int:
    """The reference: one ``Message`` and one ``send`` per neighbor."""
    network = proc.sim.network
    sent = 0
    for neighbor in sorted(network.neighbors(proc.pid)):
        if neighbor == exclude:
            continue
        network.send(Message(proc.pid, neighbor, kind, dict(payload)))
        sent += 1
    return sent


class LoopFlooder(Flooder):
    broadcast = per_receiver_broadcast


def per_receiver_send(
    network: Network, template: Message, receivers: list[int]
) -> None:
    for receiver in receivers:
        network.send(Message(
            template.sender, receiver, template.kind, dict(template.payload)
        ))


def _ring(sim: Simulator, cls: type[Flooder]) -> list[int]:
    """N flooders on a ring with two chords."""
    pids: list[int] = []
    for i in range(N):
        neighbors = [pids[-1]] if pids else []
        if i == N - 1:
            neighbors.append(pids[0])
        if i in (4, 6):
            neighbors.append(pids[i - 3])
        pids.append(sim.spawn(cls(i), neighbors).pid)
    return pids


def _complete(sim: Simulator, cls: type[Flooder]) -> list[int]:
    return [sim.spawn(cls(i)).pid for i in range(N)]


def _plain(cls: type[Flooder], **options: Any) -> Simulator:
    sim = Simulator(seed=2007, **options)
    _ring(sim, cls)
    return sim


def _edge_delays(cls: type[Flooder]) -> Simulator:
    sim = _plain(cls)
    sim.network.set_edge_delay(1, 0, ConstantDelay(2.5))
    sim.network.set_edge_delay(4, 5, UniformDelay(0.1, 0.2))
    return sim


def _faults(plan: str) -> Callable[[type[Flooder]], Simulator]:
    def build(cls: type[Flooder]) -> Simulator:
        sim = _plain(cls)
        install_plan(plan, sim)
        return sim
    return build


def _open_breaker(cls: type[Flooder]) -> Simulator:
    sim = _plain(cls, loss_model=BernoulliLoss(0.5))
    install_plan("drop-storm", sim)
    install_resilience("full", sim)
    return sim


def _complete_graph(cls: type[Flooder]) -> Simulator:
    sim = Simulator(seed=2007, complete=True)
    _complete(sim, cls)
    return sim


def _queue_migrates(cls: type[Flooder]) -> Simulator:
    # The queue moves to the calendar backend part-way through a fan-out:
    # later pushes of the same call must land on the new backend.
    sim = _complete_graph(cls)
    sim.queue._threshold = 20
    return sim


#: scenario -> (builder, a counter that proves the branch was taken).
SCENARIOS: dict[str, tuple[Callable[[type[Flooder]], Simulator], str]] = {
    "loss": (
        lambda cls: _plain(cls, loss_model=BernoulliLoss(0.3)),
        "net.dropped.loss",
    ),
    "fifo": (lambda cls: _plain(cls, fifo=True), "net.delivered"),
    "edge_delay": (_edge_delays, "net.delivered"),
    "exponential_delay": (
        lambda cls: _plain(cls, delay_model=ExponentialDelay(0.8)),
        "net.delivered",
    ),
    "dup_flood": (_faults("dup-flood"), "faults.duplicates"),
    "drop_storm": (_faults("drop-storm"), "net.dropped.fault"),
    "jitter_spike": (_faults("jitter-spike"), "net.delivered"),
    "full_resilience_open_breaker": (_open_breaker, "resilience.breaker_opened"),
    "complete_graph": (_complete_graph, "net.delivered"),
    "queue_migrates": (_queue_migrates, "net.delivered"),
}


def _leftovers(sim: Simulator) -> dict[str, Any]:
    """Everything a run leaves behind, pending events drained last."""
    state: dict[str, Any] = {
        "trace": [(e.time, e.kind, e.data) for e in sim.trace],
        "metrics": sim.metrics_snapshot(),
        "streams": {name: sim.rng_for(name).getstate() for name in STREAMS},
        "broadcasts": [
            sim.network.process(pid).broadcasts
            for pid in sim.network.present_sorted()
        ],
        "backend": sim.queue.backend,
    }
    pending = []
    while sim.queue:
        event = sim.queue.pop()
        pending.append((event.time, event.priority, event.seq, event.label))
    state["pending"] = pending
    return state


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fan_out_matches_one_send_per_receiver(name):
    build, evidence = SCENARIOS[name]
    fanned, looped = build(Flooder), build(LoopFlooder)
    fanned.run(until=HORIZON)
    looped.run(until=HORIZON)
    assert fanned.metrics.value(evidence) > 0, "scenario missed its branch"
    expected = _leftovers(looped)
    actual = _leftovers(fanned)
    assert expected["pending"], "nothing left in flight to compare"
    for part in expected:
        assert actual[part] == expected[part], part


def test_the_migrating_queue_does_migrate_mid_run():
    sim = _queue_migrates(Flooder)
    sim.run(until=HORIZON)
    assert sim.queue.backend == "calendar"


def test_broadcast_is_one_call_into_the_network(monkeypatch):
    sim = _plain(Flooder)
    calls = []
    send = Network.send

    def counted(network, message, receivers=None):
        calls.append(None if receivers is None else list(receivers))
        return send(network, message, receivers)

    monkeypatch.setattr(Network, "send", counted)
    proc = sim.network.process(4)
    assert proc.broadcast("RUMOUR", hops=1, origin=4) == 3
    assert calls == [[1, 3, 5]]
    assert proc.broadcast("RUMOUR", exclude=3, hops=1, origin=4) == 2
    assert proc.broadcast("RUMOUR", exclude=7, hops=1, origin=4) == 3
    assert calls[1:] == [[1, 5], [1, 3, 5]]


def test_each_receiver_gets_its_own_payload():
    sim = _plain(Flooder)
    sim.network.process(4).broadcast("RUMOUR", hops=1, origin=4)
    payloads = []
    while sim.queue:
        event = sim.queue.pop()
        if event.label.startswith("deliver:"):
            # ``partial(_deliver, message, msg_id, counter)``
            payloads.append(event.action.args[0].payload)
    assert payloads == [{"hops": 1, "origin": 4}] * 3
    assert len({id(p) for p in payloads}) == 3


# ----------------------------------------------------------------------
# Errors part-way through a fan-out
# ----------------------------------------------------------------------


def _raise_twins(
    build: Callable[[], Simulator], sender: int, receivers: list[int],
    error: type[Exception],
) -> None:
    """Raise ``error`` from both forms at the same receiver; the messages
    before it are sent alike."""
    fanned, looped = build(), build()
    template = Message(sender, None, "PROBE", {"note": "x"})
    with pytest.raises(error):
        fanned.network.send(template, receivers)
    with pytest.raises(error):
        per_receiver_send(looped.network, template, receivers)
    assert _leftovers(fanned) == _leftovers(looped)


def _still_ring() -> Simulator:
    sim = Simulator(seed=2007)
    _ring(sim, Flooder)
    return sim


def _still_complete() -> Simulator:
    sim = Simulator(seed=2007, complete=True)
    _complete(sim, Flooder)
    sim.kill(6)
    return sim


@pytest.mark.parametrize("receivers", [[3, 1, 2, 5], [2, 1, 3], [0]])
def test_a_non_neighbor_raises_after_the_ones_before_it(receivers):
    _raise_twins(_still_ring, 4, receivers, TopologyError)


@pytest.mark.parametrize("receivers", [[1, 2, 4], [1, 6, 2], [3, 99]])
def test_complete_graph_refuses_self_and_absent_receivers(receivers):
    _raise_twins(_still_complete, 4, receivers, TopologyError)


def test_an_absent_sender_sends_nothing():
    _raise_twins(_still_complete, 6, [1, 2], MembershipError)
    sim = _still_complete()
    with pytest.raises(MembershipError):
        Process.broadcast(_detached_as(sim, 6), "RUMOUR")


def _detached_as(sim: Simulator, pid: int) -> Process:
    proc = Flooder()
    proc.pid = pid
    proc._sim = sim
    return proc


def test_an_empty_fan_out_sends_nothing():
    sim = _still_ring()
    before = _leftovers(_still_ring())
    sim.network.send(Message(4, None, "PROBE", {}), [])
    assert _leftovers(sim) == before


# ----------------------------------------------------------------------
# No call to an inherited no-op ``on_message``
# ----------------------------------------------------------------------


class Deaf(Process):
    """Defines no ``on_message``."""


class Pinger(Process):
    def on_start(self) -> None:
        self.set_timer(0.5, "ping")

    def on_timer(self, name: str, payload: object) -> None:
        self.broadcast("PING")
        self.set_timer(1.0, "ping")

    def on_message(self, message: Message) -> None:
        pass


class LoudPinger(Pinger):
    pass


def test_the_hook_flags_follow_the_class():
    assert not Process._hears_messages
    assert not Deaf._hears_messages
    assert Pinger._hears_messages and LoudPinger._hears_messages
    assert Flooder._hears_messages


@pytest.mark.parametrize("resilience", [None, "full"])
def test_a_deaf_receiver_is_counted_and_traced_but_never_called(
    monkeypatch, resilience
):
    def called(self, message):
        raise AssertionError("inherited no-op on_message was called")

    monkeypatch.setattr(Process, "on_message", called)
    sim = Simulator(seed=2007, delay_model=ConstantDelay(1.0))
    deaf = sim.spawn(Deaf()).pid
    sim.spawn(Pinger(), [deaf])
    install_resilience(resilience, sim)
    sim.run(until=5.0)
    delivered = [
        e for e in sim.trace.events("deliver") if e.data["receiver"] == deaf
    ]
    # Pings leave at 0.5, 1.5, 2.5 and 3.5 and take 1.0 each.
    assert len(delivered) == 4
    assert sim.metrics.value("net.delivered") >= 4
    if resilience is not None:
        assert sim.metrics.value("resilience.acks_sent") == 4
