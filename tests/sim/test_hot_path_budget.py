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
``sink.retains`` once per kind, 18.3 / 16.7 / 13.6 / 20.6 with one
peek per event in the run loop, bound counter handles and count-only
trace kinds, and 11.3 / 14.5 / 11.3 / 13.6 once the counting sink
counted sends and deliveries in place, the send sites built a
``Message`` in one ``tuple.__new__`` and ``random_neighbor`` drew on
complete graphs in its own frame, and 10.2 / 11.7 / 10.2 / 10.3 once an
``Event`` became a list built in one C call and ordered in C (no
dataclass ``__init__`` frame per push, no ``__lt__`` frame per heap or
bucket comparison), and 9.2 / 10.7 / 9.2 / 9.3 with no call to the
inherited no-op ``on_message`` of a process that does not define one,
and 8.0 / 9.6 / 8.0 / 8.1 with ``random_neighbor``'s ``rng.randrange``
drawn inline (its ``getrandbits`` loop, draw for draw).

The join/leave path on the workload the paper's core experiment runs (E4:
two of every three events are membership events): 70.5 calls per event
while each replacement still went through ``Simulator.spawn``/``kill``, the
checked ``sim``/``rng`` properties and three sorted copies of the
membership, 46.5 when that was removed (44.5 under CPython 3.11 just
before the run loop dropped its second peek), 41.7 with one peek, 42.5
under CPython 3.11 before one replacement became one membership step,
13.6 now: one ``ChurnModel._step`` frame with the victim, attachment and
gap draws inline and no ``Simulator.spawn``, a join/leave event appended
by the network without a ``TraceLog.record`` frame, no call to an
inherited no-op hook, and a one-frame ``WaveNode.__init__``; 12.6 with
the C-built ``Event``, and 10.7 once a wave node stopped hearing leaves
after its last wave closed.  The memory sink's storm row went 14.5 → 12.9
with the one-frame membership step (a ``TraceEvent`` is one
``tuple.__new__``).  Once every log folded its membership into columns
(no sink but memory and JSONL keeps a join or leave as an event), the
network folded a join or leave in place for every sink that does not
observe it, appending the event itself where the sink retains it, as
the memory sink does: 10.7 → 10.6 on this row.  The null sink, which
the E4 trials run, counts and folds both in place: 10.5 → 10.4 (its own
row below).  The counts are the same under CPython 3.10, 3.11 and 3.12.

The heartbeat path E22 runs (fault-tolerant wave, ``dup-flood``, ``full``
resilience, null sink): 32.2 calls per event with two peeks per event in
the run loop, a ``Metrics.inc`` frame per counter, a ``record`` frame per
count-only event, a three-frame process clock, a transport call per
target per silence sweep and a ``send`` frame per broadcast target; 14.2
with those gone, 13.5 with no ``Message.__init__`` frame per send, 12.4
with the C-built ``Event``, and 9.2 now: a heartbeat is handled in
``FaultTolerantWaveNode.on_message``'s own frame, a timer goes to the one
layer that owns its name, the detector reads ``sim._now`` instead of the
``now`` property, and the network skips the resilience layer's
``outbound``/``inbound`` for a kind they would pass through unchanged;
7.8 with one ``Network.send`` per heartbeat broadcast (the kind's set-up
once per fan-out, the default uniform delay drawn inline), and 7.4 with
the resilience layer's simulator, metrics and stream and the fault
injector's stream bound at install, resilience timers queued as
``partial``s and a duplicate's delay drawn without a comprehension frame,
and 7.1 with the detector's beat and sweep timers handled in
``FaultTolerantWaveNode.on_timer``'s own frame.
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
    pytest.param(500, CountingSink, "heap", 9.2,
                 id="500-CountingSink-heap-32.0"),
    pytest.param(500, MemorySink, "heap", 11.0,
                 id="500-MemorySink-heap-30.0"),
    pytest.param(500, NullSink, "heap", 9.2,
                 id="500-NullSink-heap-26.0"),
    pytest.param(4000, CountingSink, "calendar", 9.4,
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


def test_counting_costs_what_dropping_costs():
    """The counting sink's per-message-kind breakdown is bumped in place
    at the send and deliver sites: at most one call per event over the
    null sink, which counts nothing but the per-kind tallies."""
    counting, _ = calls_per_event(500, CountingSink())
    dropping, _ = calls_per_event(500, NullSink())
    assert counting <= dropping + 1.0, (
        f"{counting:.1f} Python calls per event under the counting sink "
        f"against {dropping:.1f} under the null sink: a send, deliver or "
        "timer goes through TraceLog.record or the sink again"
    )


def churn_calls_per_event(sink=None) -> tuple[float, ReplacementChurn]:
    """One cell of the E4 sweep, built the way ``engine.trials`` builds it:
    n = 32 wave nodes on an ER overlay, replacement churn at rate 4.0 with
    the querier immortal, one COUNT query."""
    n = 32
    sim = Simulator(seed=2007, trace_sink=sink)
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
    return profiled_run(sim, 250.0), churn


def test_python_calls_per_executed_event_under_replacement_churn():
    ceiling = 12.3  # under the memory sink, as a raw ``Simulator`` keeps
    per_event, churn = churn_calls_per_event()
    assert churn.joins == churn.leaves > 900
    assert per_event <= ceiling, (
        f"{per_event:.1f} Python calls per event at n=32 under replacement "
        f"churn (ceiling {ceiling}): something on the join/leave path grew a "
        "wrapper, a property chain or a copy of the membership"
    )


def test_python_calls_per_executed_event_under_replacement_churn_null_sink():
    """The same cell under the null sink the trials default to: a join or
    leave is counted and folded in place, with no ``record`` frame."""
    ceiling = 11.8
    per_event, churn = churn_calls_per_event(NullSink())
    assert churn.joins == churn.leaves > 900
    assert per_event <= ceiling, (
        f"{per_event:.1f} Python calls per event at n=32 under replacement "
        f"churn and the null sink (ceiling {ceiling}): a join or leave goes "
        "through TraceLog.record again, or the path grew a frame"
    )


def test_python_calls_per_executed_event_in_an_e22_cell():
    """One cell of E22, built the way ``engine.trials.run_query`` builds
    it: n = 16 fault-tolerant wave nodes on an ER overlay with silent
    departures, the ``dup-flood`` plan (a duplication window open from
    t = 2 to 12) under ``full`` resilience, the null sink, one COUNT query
    at t = 5, run to t = 150."""
    n, ceiling = 16, 8.2
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
