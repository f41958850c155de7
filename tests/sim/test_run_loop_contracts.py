"""What the run loop and the count-only trace path must keep.

``Simulator.run`` peeks at the queue once per event and executes it
through ``step`` (one ``pop``), and the send, deliver and timer-fire sites
count a kind the sink neither retains nor observes without entering
``TraceLog.record``.  The first table holds the loop to its contract on
every queue backend — the heap, the calendar, and a heap that promotes to
the calendar in the middle of one ``run`` call.  The second pins, per
sink, with and without a fault plan and a resilience layer, the counts a
trial reports (``len(trace)``, ``trace.summary()``,
``CountingSink.summary()`` and the metrics snapshot) at the values the
record-every-event path produced.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.core.aggregates import by_name
from repro.faults.injector import install_plan
from repro.obs.check import CheckingSink
from repro.obs.sinks import CountingSink, JsonlStreamSink, MemorySink, NullSink
from repro.protocols.ft_wave import FaultTolerantWaveNode
from repro.resilience.transport import install_resilience
from repro.sim.errors import ConfigurationError, ProtocolError, SchedulingError
from repro.sim.events import EventQueue
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.topology import generators

# ----------------------------------------------------------------------
# The run loop, on every backend
# ----------------------------------------------------------------------

BACKENDS = {
    "heap": lambda: EventQueue(calendar_threshold=None),
    "calendar": lambda: EventQueue(calendar_threshold=0),
    # Four pending events fit the heap; the fifth, scheduled by an event
    # that runs inside ``run``, promotes it mid-call.
    "promoting": lambda: EventQueue(calendar_threshold=4),
}


@pytest.fixture(params=sorted(BACKENDS))
def sim(request) -> Simulator:
    sim = Simulator(seed=1)
    sim.queue = BACKENDS[request.param]()
    sim.backend = request.param
    return sim


def log_at(sim: Simulator, log: list, *times: float) -> None:
    for time in times:
        sim.at(time, lambda t=time: log.append((t, sim.now)))


def test_until_is_inclusive_and_the_clock_lands_on_it(sim):
    log: list = []
    log_at(sim, log, 1.0, 2.0, 3.0)
    assert sim.run(until=2.0) == 2.0
    assert log == [(1.0, 1.0), (2.0, 2.0)]
    assert sim.events_executed == 2
    assert sim.run(until=2.5) == 2.5
    assert sim.now == 2.5
    assert sim.run() == 3.0
    assert log[-1] == (3.0, 3.0)


def test_until_equal_to_now_runs_the_events_due_now(sim):
    log: list = []
    log_at(sim, log, 2.0)
    sim.run(until=1.0)
    sim.call_soon(lambda: log.append("now"))
    assert sim.run(until=1.0) == 1.0
    assert log == ["now"]
    assert sim.events_executed == 1


@pytest.mark.parametrize("until", [5.0, -1.0, math.nan])
def test_until_before_now_or_nan_raises_naming_both(sim, until):
    log: list = []
    log_at(sim, log, 20.0)
    sim.run(until=10.0)
    with pytest.raises(SchedulingError, match=rf"{until}.*10\.0"):
        sim.run(until=until)
    # Nothing ran and the clock stayed where it was.
    assert sim.now == 10.0 and log == [] and len(sim.queue) == 1
    sim.schedule(1.0, lambda: log.append(sim.now))
    sim.run()
    assert log == [11.0, (20.0, 20.0)]


def test_max_events_is_per_call_and_leaves_the_next_event_queued(sim):
    log: list = []
    log_at(sim, log, *[float(t) for t in range(1, 8)])
    with pytest.raises(SchedulingError, match="max_events=3"):
        sim.run(max_events=3)
    assert sim.events_executed == 3 and len(sim.queue) == 4
    # A fresh budget per call: exactly enough is not "exceeded".
    assert sim.run(until=6.0, max_events=3) == 6.0
    assert sim.run(max_events=1) == 7.0
    assert [t for t, _ in log] == [float(t) for t in range(1, 8)]
    assert sim.events_executed == 7


def test_a_tail_of_cancelled_events_ends_the_run_normally(sim):
    log: list = []
    log_at(sim, log, 1.0)
    for time in (2.0, 3.0, 4.0):
        sim.at(time, lambda: log.append("cancelled")).cancel()
    assert sim.run() == 1.0
    assert log == [(1.0, 1.0)] and sim.events_executed == 1
    assert not sim.queue and sim.queue.peek_time() is None


def test_events_scheduled_during_the_run_fire_in_order(sim):
    """The promoting backend crosses its threshold inside this ``run``."""
    fired: list[float] = []

    def spread() -> None:
        for offset in (3.0, 1.0, 2.0, 5.0, 4.0, 0.0):
            sim.schedule(offset, lambda t=sim.now + offset: fired.append(t))

    sim.at(1.0, spread)
    log_at(sim, [], 2.5, 7.0)
    sim.run(until=5.5)
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sim.now == 5.5
    expected = "heap" if sim.backend == "heap" else "calendar"
    assert sim.queue.backend == expected
    sim.run()
    assert fired[-1] == 6.0 and sim.now == 7.0
    assert sim.events_executed == 1 + 2 + 6


def test_step_executes_one_event_then_reports_an_empty_queue(sim):
    log: list = []
    log_at(sim, log, 2.0, 1.0)
    assert sim.step() is True and log == [(1.0, 1.0)]
    assert sim.step() is True and sim.now == 2.0
    assert sim.step() is False
    assert sim.events_executed == 2


def test_time_going_backwards_is_still_caught(sim):
    sim.run(until=5.0)
    sim.queue.push(1.0, lambda: None, label="stale")
    with pytest.raises(SchedulingError, match="time went backwards.*stale"):
        sim.run()


def test_process_clock_raises_when_detached():
    with pytest.raises(ProtocolError, match="not attached"):
        Process().now
    sim = Simulator()
    proc = sim.spawn(Process())
    sim.run(until=3.0)
    assert proc.now == 3.0


# ----------------------------------------------------------------------
# Count-only trace kinds: the same counts under every sink
# ----------------------------------------------------------------------

SINKS = {
    "memory": lambda tmp: MemorySink(),
    "null": lambda tmp: NullSink(),
    "counts": lambda tmp: CountingSink(),
    "jsonl": lambda tmp: JsonlStreamSink(tmp / "trace.jsonl"),
    "checking-null": lambda tmp: CheckingSink(NullSink()),
}

#: Per arm, what every sink reported with each event going through
#: ``TraceLog.record``: ``len(trace)``, and the sha256 of ``len(trace)``,
#: ``trace.summary()`` and ``metrics_snapshot()`` (the checking sink found
#: no violation, so its snapshot agrees too).
PINS = {
    "plain": (
        2841, "678c4329d94f2b8800230463508c5f91ee22fd641a7725f35a436a81c4ac8b73"
    ),
    "faults": (
        2551, "22ae388b45d8b5bdb2850df551244a21f4c341aefde669b7fe3582f94bdbc247"
    ),
}
#: sha256 of ``CountingSink.summary()`` per arm, from the same path.
COUNTING_PINS = {
    "plain": "6c9ed2921f8634f6527c8885e235a0e6258a528966dfab37f091c0f390f29ade",
    "faults": "8d6b49f005bf127c3b8c2194eedc6891d1e614baec09d81cbcace57acb43f274",
}


def sha256(value: object) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def heartbeat_cell(sink, faults: str | None) -> Simulator:
    """A small E22 cell: fault-tolerant wave nodes on an ER overlay with
    silent departures, optionally under ``faults`` with ``full``
    resilience, one COUNT query."""
    n = 8
    sim = Simulator(seed=2007, notify_leaves=False, trace_sink=sink)
    topo = generators.make("er", n, sim.rng_for("topology"))
    pids = [
        sim.spawn(
            FaultTolerantWaveNode(1.0, timeout=3.0),
            [p for p in topo.neighbors(node) if p < node],
        ).pid
        for node in range(n)
    ]
    if faults is not None:
        install_plan(
            faults, sim, factory=lambda: FaultTolerantWaveNode(1.0),
            protected=(pids[0],),
        )
        install_resilience("full", sim)
    sim.at(
        5.0, lambda: sim.network.process(pids[0]).issue_query(by_name("COUNT")),
        label="experiment:issue-query",
    )
    sim.run(until=30.0)
    sim.trace.close()
    return sim


@pytest.mark.parametrize("arm", ["plain", "faults"])
@pytest.mark.parametrize("sink_name", sorted(SINKS))
def test_counts_match_the_record_every_event_path(sink_name, arm, tmp_path):
    sink = SINKS[sink_name](tmp_path)
    sim = heartbeat_cell(sink, "chaos-mix" if arm == "faults" else None)
    trace = sim.trace
    counted = {
        "len": len(trace),
        "summary": trace.summary(),
        "metrics": sim.metrics_snapshot(),
    }
    assert (len(trace), sha256(counted)) == PINS[arm]
    if isinstance(sink, CountingSink):
        assert sha256(sink.summary()) == COUNTING_PINS[arm]
    assert sum(trace.summary().values()) == len(trace)
    if sink_name in ("null", "checking-null"):
        # A dropped kind is still counted, and still refuses to be read.
        assert trace.count("send") > 0
        with pytest.raises(ConfigurationError, match="not retained"):
            trace.events("send")
    if sink_name == "jsonl":
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(lines) == len(trace)
