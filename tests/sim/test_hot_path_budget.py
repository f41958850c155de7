"""Per-event call budget: how many Python functions one simulated event costs.

The run → queue → send → deliver → timer → handler path is flat on purpose
(see "Per-event budget" in ``docs/SCALING.md``): ``run()`` costs a peek and
a ``step`` per event, hot code reads ``self._sim`` and ``sim._now`` once,
per-kind names and transport counters are bound once per kind, and a kind
the sink only counts is counted where it happens.  A convenience property
or wrapper added to that path costs every experiment a few percent and
shows in no functional test, so this module counts the interpreter's
``call`` events over a run and holds the ratio to executed events under a
ceiling.  The count repeats exactly for a given interpreter; each ceiling
sits about 15 % above what this code measures, room for a cheap,
deliberate addition, not for a regression.

Ping storm (``counts`` / ``memory`` / ``null`` sink on the heap, ``counts``
on the calendar): 54.5 / 52.9 / — / 47.4 before the send path was
flattened, 24.3 / 22.7 / 21.2 / 25.4 once ``TraceLog.record`` asked
``sink.retains`` once per kind, and 18.3 / 16.7 / 13.6 / 20.6 with one
peek per event in the run loop, bound counter handles and count-only
trace kinds.

The join/leave path on the workload the paper's core experiment runs (E4:
two of every three events are membership events): 70.5 calls per event
while each replacement still went through ``Simulator.spawn``/``kill``, the
checked ``sim``/``rng`` properties and three sorted copies of the
membership, 46.5 when that was removed (44.5 under CPython 3.11 just
before the run loop dropped its second peek), 41.7 now.

The heartbeat path E22 runs (fault-tolerant wave, ``dup-flood``, ``full``
resilience, null sink): 32.2 calls per event with two peeks per event in
the run loop, a ``Metrics.inc`` frame per counter, a ``record`` frame per
count-only event, a three-frame process clock, a transport call per
target per silence sweep and a ``send`` frame per broadcast target; 14.2
now.
"""

from __future__ import annotations

import itertools
import sys

import pytest

from repro.churn.models import ReplacementChurn
from repro.core.aggregates import by_name
from repro.faults.injector import install_plan
from repro.obs.sinks import CountingSink, MemorySink, NullSink
from repro.protocols.ft_wave import FaultTolerantWaveNode
from repro.protocols.one_time_query import WaveNode
from repro.resilience.transport import install_resilience
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.topology import generators

PERIOD = 1.0
HORIZON = 4.0


class PingNode(Process):
    """Ping a random neighbor every PERIOD, from a uniform initial phase."""

    def on_start(self) -> None:
        self.set_timer(self.rng.uniform(0.0, PERIOD), "ping")

    def on_timer(self, name: str, payload: object) -> None:
        target = self.random_neighbor()
        if target is not None:
            self.send(target, "PING")
        self.set_timer(PERIOD, "ping")


def calls_per_event(n: int, sink) -> tuple[float, Simulator]:
    sim = Simulator(
        seed=2007, complete=True, notify_leaves=False, notify_joins=False,
        trace_sink=sink,
    )
    for _ in range(n):
        sim.spawn(PingNode(1.0))
    return profiled_run(sim, HORIZON), sim


def profiled_run(sim: Simulator, horizon: float) -> float:
    """Run to ``horizon``; Python calls made per executed event."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        sim.run(until=horizon)
    finally:
        sys.setprofile(None)
    return calls / sim.events_executed


# A row's id names the ceiling it was first given, so the row keeps its
# name as its ceiling comes down.
@pytest.mark.parametrize("n, make_sink, backend, ceiling", [
    pytest.param(500, CountingSink, "heap", 21.0,
                 id="500-CountingSink-heap-32.0"),
    pytest.param(500, MemorySink, "heap", 19.0,
                 id="500-MemorySink-heap-30.0"),
    pytest.param(500, NullSink, "heap", 15.5,
                 id="500-NullSink-heap-26.0"),
    pytest.param(4000, CountingSink, "calendar", 23.5,
                 id="4000-CountingSink-calendar-36.0"),
])
def test_python_calls_per_executed_event(n, make_sink, backend, ceiling):
    per_event, sim = calls_per_event(n, make_sink())
    assert sim.queue.backend == backend
    assert sim.events_executed > 3 * n
    assert per_event <= ceiling, (
        f"{per_event:.1f} Python calls per event at n={n} on the {backend} "
        f"queue (ceiling {ceiling}): something on the per-event path grew "
        "a wrapper, a property chain or a per-call closure"
    )


def test_python_calls_per_executed_event_under_replacement_churn():
    """One cell of the E4 sweep, built the way ``engine.trials`` builds it:
    n = 32 wave nodes on an ER overlay, replacement churn at rate 4.0 with
    the querier immortal, one COUNT query."""
    n, ceiling = 32, 48.0
    sim = Simulator(seed=2007)
    topo = generators.make("er", n, sim.rng_for("topology"))
    arrivals = itertools.count()

    def factory() -> WaveNode:
        return WaveNode(float(next(arrivals)))

    pids = [
        sim.spawn(factory(), [p for p in topo.neighbors(node) if p < node]).pid
        for node in range(n)
    ]
    churn = ReplacementChurn(factory, rate=4.0)
    churn.immortal.add(pids[0])
    churn.install(sim)
    sim.at(
        5.0, lambda: sim.network.process(pids[0]).issue_query(by_name("COUNT")),
        label="experiment:issue-query",
    )
    per_event = profiled_run(sim, 250.0)
    assert churn.joins == churn.leaves > 900
    assert per_event <= ceiling, (
        f"{per_event:.1f} Python calls per event at n={n} under replacement "
        f"churn (ceiling {ceiling}): something on the join/leave path grew a "
        "wrapper, a property chain or a copy of the membership"
    )


def test_python_calls_per_executed_event_in_an_e22_cell():
    """One cell of E22, built the way ``engine.trials.run_query`` builds
    it: n = 16 fault-tolerant wave nodes on an ER overlay with silent
    departures, the ``dup-flood`` plan (a duplication window open from
    t = 2 to 12) under ``full`` resilience, the null sink, one COUNT query
    at t = 5, run to t = 150."""
    n, ceiling = 16, 16.5
    sim = Simulator(seed=2007, notify_leaves=False, trace_sink=NullSink())
    topo = generators.make("er", n, sim.rng_for("topology"))

    def factory() -> FaultTolerantWaveNode:
        return FaultTolerantWaveNode(1.0, period=1.0, timeout=3.0)

    pids = [
        sim.spawn(factory(), [p for p in topo.neighbors(node) if p < node]).pid
        for node in range(n)
    ]
    install_plan("dup-flood", sim, factory=factory, protected=(pids[0],))
    install_resilience("full", sim)
    sim.at(
        5.0, lambda: sim.network.process(pids[0]).issue_query(by_name("COUNT")),
        label="experiment:issue-query",
    )
    per_event = profiled_run(sim, 150.0)
    counters = sim.metrics_snapshot()["counters"]
    assert counters["faults.duplicates"] > 0
    assert counters["net.sent.FD_HEARTBEAT"] > 0.5 * sim.events_executed
    assert per_event <= ceiling, (
        f"{per_event:.1f} Python calls per event in an E22 cell (ceiling "
        f"{ceiling}): something on the message or timer path grew a frame"
    )
