"""Byte-identity pins for the fault branches of ``Network.send``: fault
duplicates and delay spikes, and the resilience wrapper on top of faults.

Each compares the sha256 of the full memory-sink trace plus
``metrics_snapshot()`` with the digest recorded before the send path was
flattened.  The fault-free branches are held to ``tests/reference/``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.injector import install_plan
from repro.faults.spec import FaultPlan, FaultSpec
from repro.resilience.transport import install_resilience
from repro.sim.node import Process
from repro.sim.scheduler import Simulator

N = 8
HORIZON = 6.0


class Chatter(Process):
    """Floods a hop-counted rumour and pings one random neighbor a tick."""

    def on_start(self) -> None:
        self.set_timer(self.rng.uniform(0.0, 1.0), "tick")

    def on_timer(self, name: str, payload: object) -> None:
        self.broadcast("GOSSIP", hops=1)
        target = self.random_neighbor()
        if target is not None:
            self.send(target, "PING", note="hello")
        self.set_timer(1.0, "tick")

    def on_message(self, message) -> None:
        hops = message.payload.get("hops")
        if message.kind == "GOSSIP" and hops < 3:
            self.broadcast("GOSSIP", exclude=message.sender, hops=hops + 1)


FAULTS = FaultPlan.of(
    FaultSpec("duplicate", start=0.5, duration=4.0, probability=0.5, copies=2),
    FaultSpec("delay_spike", start=1.0, duration=3.0, probability=0.5,
              magnitude=2.0),
    name="dups-and-spikes",
)


def _ring(sim: Simulator) -> None:
    """Spawn N chatters on a ring with two chords."""
    for i in range(N):
        sim.spawn(Chatter(i), [i - 1] * (i > 0) + [0] * (i == N - 1) + [i - 3] * (i in (4, 6)))


def _faults() -> Simulator:
    sim = Simulator(seed=2007)
    _ring(sim)
    install_plan(FAULTS, sim)
    return sim


def _faults_and_resilience() -> Simulator:
    sim = _faults()
    install_resilience("full", sim)
    return sim


def _digest(sim: Simulator) -> str:
    sim.run(until=HORIZON)
    document = {
        "trace": [[e.time, e.kind, e.data] for e in sim.trace],
        "metrics": sim.metrics_snapshot(),
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: scenario -> (builder, a counter that proves the branch was taken, digest
#: of trace + metrics at the commit before the path was flattened).
PINS = {
    "faults": (
        _faults, "faults.duplicates",
        "23ca61b03a829b926386cc7bab0657ebd43027c9c10aafc2ff7a56a140d55ea6",
    ),
    "faults_and_resilience": (
        _faults_and_resilience, "resilience.retransmits",
        "6ed9e9b85e02883e242ee4d9cc56cf14b23100d807a60b5e6bf289c223f8f12e",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_and_metrics_are_byte_identical(name):
    build, evidence, expected = PINS[name]
    sim = build()
    digest = _digest(sim)
    assert sim.metrics.value(evidence) > 0, "scenario missed its branch"
    assert digest == expected


def test_fault_spikes_land_where_pinned():
    sim = _faults()
    sim.run(until=HORIZON)
    assert sim.metrics_snapshot()["histograms"]["faults.extra_delay"]["count"] > 0
