"""A finished trial frees itself.

A simulation's objects refer to one another in cycles (simulator ↔
network ↔ process ↔ pending event), so a trial that left them as they
were would wait, whole, for a full cyclic garbage collection; a sweep of
many trials in one process would then hold many of them at once.
``Simulator.close`` cuts those references, and the trial runners call it
once the outcome is built, so reference counting alone frees a trial the
moment it ends.

Each test runs with the collector disabled, so nothing but reference
counting frees anything; then a full collection under ``DEBUG_SAVEALL``
keeps what only the collector could have freed, for the test to read.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.churn.spec import ChurnSpec
from repro.core.aggregates import by_name
from repro.engine import trials
from repro.engine.trials import (
    DisseminationConfig,
    GossipConfig,
    QueryConfig,
    run_dissemination,
    run_gossip,
    run_query,
)
from repro.protocols.one_time_query import WaveNode
from repro.sim.errors import SimulationError
from repro.sim.network import Network
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.sim.trace import TraceLog

#: What a trial must never leave to the collector.
TRIAL_TYPES = (Simulator, Network, TraceLog, Process)


@pytest.fixture
def no_collector():
    """Reference counting only, from a clean slate."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def simulators(monkeypatch):
    """Weak references to every simulator a trial builds."""
    refs: list[weakref.ref] = []
    make = trials._make_simulator

    def tracked(config, **kwargs):
        sim = make(config, **kwargs)
        refs.append(weakref.ref(sim))
        return sim

    monkeypatch.setattr(trials, "_make_simulator", tracked)
    return refs


def cyclic_garbage(*types: type) -> Counter[str]:
    """The type names of what only a cyclic collection would free, right
    now (of ``types`` only, if given).  Names, not the objects, so that a
    failing assertion does not keep them alive into the next test."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(
            type(obj).__name__ for obj in gc.garbage
            if not types or isinstance(obj, types)
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def query_trial() -> None:
    outcome = run_query(QueryConfig(
        n=24, churn=ChurnSpec(rate=2.0), faults="chaos-mix",
        resilience="full", trace_sink="memory", horizon=150.0,
    ))
    counters = outcome.metrics["counters"]
    assert counters["membership.joins"] > 24
    assert counters["resilience.sends"] > 0
    assert outcome.trace.events("send")


def gossip_trial() -> None:
    outcome = run_gossip(GossipConfig(
        n=16, churn=ChurnSpec(rate=1.0), faults="drop-storm",
        resilience="arq",
    ))
    assert outcome.metrics["counters"]["membership.leaves"] > 0


def dissemination_trial() -> None:
    outcome = run_dissemination(DisseminationConfig(
        n=16, churn=ChurnSpec(rate=1.0), faults="dup-flood",
        resilience="arq",
    ))
    assert outcome.metrics["counters"]["membership.leaves"] > 0


@pytest.mark.parametrize("trial", [
    query_trial, gossip_trial, dissemination_trial,
])
def test_a_trial_is_freed_by_reference_counting(
    trial, no_collector, simulators
):
    trial()
    assert len(simulators) == 1
    # A bool, not the object: an assertion holding the simulator would
    # keep it alive into the next test.
    outlived = simulators[0]() is not None
    assert not outlived, "the trial's simulator outlived it"
    left = cyclic_garbage(*TRIAL_TYPES)
    assert not left, f"left to the collector: {dict(left)}"


def test_a_query_trial_leaves_no_cyclic_garbage(no_collector):
    query_trial()
    left = cyclic_garbage()
    assert not left, (
        f"{left.total()} objects left to the collector: "
        f"{dict(left.most_common(8))}"
    )


class TestClose:
    def started(self) -> Simulator:
        sim = Simulator(seed=3)
        first = sim.spawn(WaveNode(1.0))
        sim.spawn(WaveNode(2.0), [first.pid])
        self.pending = first.set_timer(10.0, "later")
        sim.at(1.0, lambda: first.issue_query(by_name("COUNT")))
        sim.run(until=5.0)
        return sim

    def test_close_cuts_the_references(self):
        sim = self.started()
        processes = [sim.network.process(pid) for pid in (0, 1)]
        assert self.pending.action is not None
        sim.close()
        assert len(sim.queue) == 0
        assert self.pending.action is None
        assert all(p._sim is None for p in processes)
        network = sim.network
        assert network.population() == 0
        assert network._sim is None
        assert network.resilience is None and network.fault_injector is None
        # What a trial reads after closing still reads.
        assert sim.now == 5.0
        assert sim.trace.count("query_returned") == 1

    def test_close_is_idempotent(self):
        sim = self.started()
        sim.close()
        sim.close()
        assert len(sim.queue) == 0

    def test_run_and_spawn_raise_after_close(self):
        sim = self.started()
        sim.close()
        with pytest.raises(SimulationError, match="closed"):
            sim.run(until=9.0)
        with pytest.raises(SimulationError, match="closed"):
            sim.spawn(WaveNode(3.0))
        assert sim.step() is False
