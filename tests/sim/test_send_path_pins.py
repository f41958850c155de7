"""Byte-identity pins for the ``Network.send`` branches no benchmark reaches.

``perf/expected.json`` pins the documents of four workloads, but none of
them takes the loss branch, FIFO channels, an edge-delay override, fault
duplicates and delay spikes, the resilience wrapper on top of faults, or a
delivery racing a departure.  Each scenario below runs a small chatty
protocol on the raw :class:`Simulator` and compares the sha256 of the full
memory-sink trace plus ``metrics_snapshot()`` with the digest recorded
before the send → queue → deliver → record path was flattened, so a change
that is only meant to be faster cannot move a record, a counter or a
random draw on those branches either.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from repro.faults.injector import install_plan
from repro.faults.spec import FaultPlan, FaultSpec
from repro.obs.metrics import Histogram, Metrics
from repro.resilience.transport import install_resilience
from repro.sim.errors import (
    ConfigurationError,
    MembershipError,
    ProtocolError,
    SchedulingError,
    TopologyError,
)
from repro.sim.latency import BernoulliLoss, ConstantDelay
from repro.sim.messages import Message
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


def _ring(sim: Simulator) -> list[int]:
    """Spawn N chatters on a ring with two chords."""
    pids: list[int] = []
    for i in range(N):
        neighbors = [pids[-1]] if pids else []
        if i == N - 1:
            neighbors.append(pids[0])
        if i in (4, 6):
            neighbors.append(pids[i - 3])
        pids.append(sim.spawn(Chatter(i), neighbors).pid)
    return pids


def _loss() -> Simulator:
    sim = Simulator(seed=2007, loss_model=BernoulliLoss(0.3))
    _ring(sim)
    return sim


def _fifo() -> Simulator:
    sim = Simulator(seed=2007, fifo=True)
    _ring(sim)
    return sim


def _edge_delay() -> Simulator:
    sim = Simulator(seed=2007)
    pids = _ring(sim)
    sim.network.set_edge_delay(pids[1], pids[0], ConstantDelay(2.5))
    sim.network.set_edge_delay(pids[4], pids[5], ConstantDelay(0.25))
    return sim


def _faults() -> Simulator:
    sim = Simulator(seed=2007)
    _ring(sim)
    install_plan(FAULTS, sim)
    return sim


def _faults_and_resilience() -> Simulator:
    sim = _faults()
    install_resilience("full", sim)
    return sim


def _leave_races_delivery() -> Simulator:
    sim = Simulator(seed=2007, complete=True)
    pids = [sim.spawn(Chatter(i)).pid for i in range(N)]
    sim.schedule_leave(1.7, pids[2])
    sim.schedule_leave(2.9, pids[5])
    return sim


def _on_bucket_bounds() -> Simulator:
    # Every delay is exactly 1.0 — a bound of the delivery-delay histogram
    # — and hop counts 1, 2, 3 are bounds of the hop histogram.
    sim = Simulator(seed=2007, delay_model=ConstantDelay(1.0))
    _ring(sim)
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
    "loss": (
        _loss, "net.dropped.loss",
        "71f961dbe966a96ab82629820ce13b08728bd865feb068abca775758028a0364",
    ),
    "fifo": (
        _fifo, "net.delivered",
        "3065b561161861d3250de3545972ec0549f0be1d12c251c2bef642f0b52ebe23",
    ),
    "edge_delay": (
        _edge_delay, "net.delivered",
        "c31c7bb7fd0b482734a5142ac82ddd3a1a1659b89cffcb4c7cbf2c35d103c458",
    ),
    "faults": (
        _faults, "faults.duplicates",
        "23ca61b03a829b926386cc7bab0657ebd43027c9c10aafc2ff7a56a140d55ea6",
    ),
    "faults_and_resilience": (
        _faults_and_resilience, "resilience.retransmits",
        "6ed9e9b85e02883e242ee4d9cc56cf14b23100d807a60b5e6bf289c223f8f12e",
    ),
    # Without its joins' ``complete=True`` fields: b62d8b45ae5b2e13...
    "leave_races_delivery": (
        _leave_races_delivery, "net.dropped.receiver_absent",
        "c1f1a21a130f641343ed5e4add824d99d7cc011cf4cd60da0c6e11fb4899c390",
    ),
    "on_bucket_bounds": (
        _on_bucket_bounds, "net.delivered",
        "c7f3394aa1f64bf6b8d7ccb727cb848c0e5a1bd0b6d94df67a1ffb9277107690",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_and_metrics_are_byte_identical(name):
    build, evidence, expected = PINS[name]
    sim = build()
    digest = _digest(sim)
    assert sim.metrics.value(evidence) > 0, "scenario missed its branch"
    assert digest == expected


def test_fault_spikes_and_on_bound_delays_land_where_pinned():
    sim = _faults()
    sim.run(until=HORIZON)
    assert sim.metrics_snapshot()["histograms"]["faults.extra_delay"]["count"] > 0
    sim = _on_bucket_bounds()
    sim.run(until=HORIZON)
    delays = sim.metrics_snapshot()["histograms"]["net.delivery_delay"]
    # All on the 1.0 bound: slot 1 of (0.5, 1.0, 2.0, …), nothing elsewhere.
    assert delays["counts"][1] == delays["count"] > 0


# ----------------------------------------------------------------------
# Histogram.observe against the linear scan it replaced
# ----------------------------------------------------------------------


def _scan_slot(buckets: tuple[float, ...], value: float) -> int:
    """The reference: first bound with ``value <= bound``, else overflow."""
    for i, bound in enumerate(buckets):
        if value <= bound:
            return i
    return len(buckets)


_finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


@given(
    bounds=st.lists(_finite, min_size=1, max_size=12, unique=True).map(sorted),
    values=st.lists(st.one_of(_finite, st.integers(-50, 50)), max_size=30),
    on_bound=st.lists(st.integers(0, 11), max_size=6),
)
def test_histogram_observe_matches_linear_scan(bounds, values, on_bound):
    buckets = tuple(bounds)
    values = list(values) + [buckets[i % len(buckets)] for i in on_bound]
    values += [buckets[0] - 1.0, buckets[-1] + 1.0]  # below first, above last
    expected = [0] * (len(buckets) + 1)
    for value in values:
        expected[_scan_slot(buckets, value)] += 1

    histogram = Histogram("h", buckets)
    metrics = Metrics()
    for value in values:
        histogram.observe(value)
        metrics.observe("h", value, buckets=buckets)

    via_registry = metrics.snapshot()["histograms"]["h"]
    assert histogram.counts == expected
    assert via_registry == histogram.summary()
    assert histogram.count == len(values)


# ----------------------------------------------------------------------
# Guard rails on the flattened path: same error, same message
# ----------------------------------------------------------------------


class _FixedDelay(ConstantDelay):
    """A delay model that skips ConstantDelay's validation."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def sample(self, rng) -> float:
        return self.delay


def _pair(**options) -> tuple[Simulator, Process, Process]:
    sim = Simulator(seed=1, **options)
    a = sim.spawn(Process(0))
    b = sim.spawn(Process(1), [a.pid])
    return sim, a, b


def test_send_guards_raise_what_they_always_raised():
    sim, a, b = _pair()
    stranger = sim.spawn(Process(2))
    with pytest.raises(TopologyError, match=r"process 0 cannot reach 2: not a neighbor"):
        a.send(stranger.pid, "X")
    sim.kill(b.pid)
    with pytest.raises(MembershipError, match=r"sender 1 is not present"):
        sim.network.send(Message(b.pid, a.pid, "X", {}))
    with pytest.raises(ProtocolError, match=r"process -1 is not attached to a simulator"):
        Process(0).send(0, "X")
    with pytest.raises(ProtocolError, match=r"process -1 is not attached to a simulator"):
        Process(0).set_timer(1.0, "t")

    sim, a, b = _pair(complete=True)
    with pytest.raises(TopologyError, match=r"process 0 cannot reach 0$"):
        a.send(a.pid, "X")
    with pytest.raises(TopologyError, match=r"process 0 cannot reach 7$"):
        a.send(7, "X")


def test_delivery_scheduling_guards():
    sim, a, b = _pair(delay_model=_FixedDelay(-0.5))
    sim.run(until=2.0)
    with pytest.raises(SchedulingError, match=r"cannot schedule at 1\.5 < now \(2\.0\)"):
        a.send(b.pid, "X")
    sim, a, b = _pair(delay_model=_FixedDelay(float("nan")))
    with pytest.raises(SchedulingError, match=r"event time is NaN"):
        a.send(b.pid, "X")
    with pytest.raises(ProtocolError, match=r"timer delay must be >= 0, got -1"):
        a.set_timer(-1, "t")
    with pytest.raises(SchedulingError, match=r"event time is NaN"):
        a.set_timer(float("nan"), "t")


def test_counter_and_event_budget_guards():
    with pytest.raises(ConfigurationError, match=r"counter 'x' cannot decrease \(amount=-1\)"):
        Metrics().inc("x", -1)
    sim, a, b = _pair()

    def rearm() -> None:
        sim.schedule(1.0, rearm)

    rearm()
    with pytest.raises(SchedulingError, match=r"exceeded max_events=5; runaway"):
        sim.run(max_events=5)
    assert sim.events_executed == 5
