"""Per-event call budget: how many Python functions one simulated event costs.

The send → queue → deliver → record path is flat on purpose (see "Per-event
budget" in ``docs/SCALING.md``): hot code reads ``self._sim`` and
``sim._now`` once, per-kind names are built once per kind, a counter bump is
one call.  A convenience property or wrapper added to that path costs every
experiment a few percent and shows in no functional test, so this module
counts the interpreter's ``call`` events over a ping storm and holds the
ratio to executed events under a ceiling.  The count repeats exactly for a
given interpreter; the ceilings leave room above what this code measures
(25.9 / 24.3 / 27.0 when written, against 54.5 / 52.9 / 47.4 before the
path was flattened) for a cheap, deliberate addition, not for a regression.
Since ``TraceLog.record`` asks ``sink.retains`` once per kind the three
rows measure 24.3 / 22.7 / 25.4, and the ``NullSink`` row — the sink every
trial config defaults to — 21.2: it neither retains nor observes the
transport kinds, so ``record`` builds no ``TraceEvent`` for them (one
dataclass ``__init__`` fewer per record than ``MemorySink``).

The join/leave path has the same budget on the workload the paper's core
experiment runs (E4: two of every three events are membership events):
46.5 calls per event when written, 70.5 while each replacement still went
through ``Simulator.spawn``/``kill``, the checked ``sim``/``rng`` properties
and three sorted copies of the membership.
"""

from __future__ import annotations

import itertools
import sys

import pytest

from repro.churn.models import ReplacementChurn
from repro.core.aggregates import by_name
from repro.obs.sinks import CountingSink, MemorySink, NullSink
from repro.protocols.one_time_query import WaveNode
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


@pytest.mark.parametrize("n, make_sink, backend, ceiling", [
    (500, CountingSink, "heap", 32.0),
    (500, MemorySink, "heap", 30.0),
    (500, NullSink, "heap", 26.0),
    (4000, CountingSink, "calendar", 36.0),
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
    n, ceiling = 32, 52.0
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
