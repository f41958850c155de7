"""A fan-out ``Network.send`` is one ``send`` per receiver, on the fault
and resilience paths.

Twin simulators — one broadcasting through the fan-out, one through the
loop ``broadcast`` used to be (one ``Message`` and one ``send`` per
neighbor) — must leave the same trace, metrics, ``transport``/``faults``/
``resilience`` stream states and pending events.  The fault-free send path
is held to the reference model in ``tests/reference/``, which these
scenarios join once it models faults.
"""

from __future__ import annotations

from typing import Any, Callable

import pytest

from repro.faults.injector import install_plan
from repro.resilience.transport import install_resilience
from repro.sim.latency import BernoulliLoss
from repro.sim.messages import Message
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


def _ring(sim: Simulator, cls: type[Flooder]) -> None:
    """N flooders on a ring with two chords."""
    for i in range(N):
        sim.spawn(cls(i), [i - 1] * (i > 0) + [0] * (i == N - 1) + [i - 3] * (i in (4, 6)))


def _plain(cls: type[Flooder], **options: Any) -> Simulator:
    sim = Simulator(seed=2007, **options)
    _ring(sim, cls)
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


#: scenario -> (builder, a counter that proves the branch was taken).
SCENARIOS: dict[str, tuple[Callable[[type[Flooder]], Simulator], str]] = {
    "dup_flood": (_faults("dup-flood"), "faults.duplicates"),
    "drop_storm": (_faults("drop-storm"), "net.dropped.fault"),
    "jitter_spike": (_faults("jitter-spike"), "net.delivered"),
    "full_resilience_open_breaker": (_open_breaker, "resilience.breaker_opened"),
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
