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
"""

from __future__ import annotations

import sys

import pytest

from repro.obs.sinks import CountingSink, MemorySink
from repro.sim.node import Process
from repro.sim.scheduler import Simulator

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
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        sim.run(until=HORIZON)
    finally:
        sys.setprofile(None)
    return calls / sim.events_executed, sim


@pytest.mark.parametrize("n, make_sink, backend, ceiling", [
    (500, CountingSink, "heap", 32.0),
    (500, MemorySink, "heap", 30.0),
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
