"""E19 — The price of losing the perfect failure detector.

Extension experiment.  The default simulator announces departures — a
perfect failure detector, which is itself a piece of knowledge.  With
silent crashes (``notify_leaves=False``) the plain echo wave deadlocks on
the first mid-wave crash; the fault-tolerant wave restores termination via
heartbeats and pays for it in latency proportional to the detection
timeout.  The harness crashes a relay mid-wave and sweeps the timeout.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.core.aggregates import COUNT
from repro.core.spec import OneTimeQuerySpec
from repro.obs.sinks import NullSink
from repro.protocols.ft_wave import FaultTolerantWaveNode
from repro.protocols.one_time_query import WaveNode
from repro.sim.latency import ConstantDelay
from repro.sim.rng import iter_seeds
from repro.sim.scheduler import Simulator
from repro.topology import generators as gen

N = 10
TRIALS = 4
#: The wave reaches the middle relay (hop N//2) at 0.5 * N//2 = 2.5; its
#: subtree echo returns around t=6.5.  Crashing at 3.0 hits the window in
#: which the relay has been adopted as a child but has not yet echoed —
#: the deadlock case for a detector-less wave.
CRASH_AT = 3.0


def trial(make_node, seed: int) -> tuple[bool, float]:
    """Crash a mid-line relay during the wave; returns (terminated, latency)."""
    # The verdict reads membership and query milestones only.
    sim = Simulator(seed=seed, delay_model=ConstantDelay(0.5),
                    notify_leaves=False, trace_sink=NullSink())
    topo = gen.line(N)
    pids = []
    for node in sorted(topo.nodes()):
        neighbors = [p for p in topo.neighbors(node) if p < node]
        pids.append(sim.spawn(make_node(), neighbors).pid)
    querier = sim.network.process(pids[0])
    querier.issue_query(COUNT)
    sim.schedule_leave(CRASH_AT, pids[N // 2])
    sim.run(until=1000.0)
    verdict = OneTimeQuerySpec().check(sim.trace)[0]
    latency = querier.results[0].latency if querier.results else float("inf")
    return verdict.terminated, latency


def test_e19_detector_price(benchmark):
    rows = []
    results: dict[str, tuple[float, float]] = {}
    variants = [
        ("plain wave (no detector)", lambda: WaveNode(1.0)),
        ("ft wave, timeout 3", lambda: FaultTolerantWaveNode(1.0, 1.0, 3.0)),
        ("ft wave, timeout 8", lambda: FaultTolerantWaveNode(1.0, 1.0, 8.0)),
        ("ft wave, timeout 20", lambda: FaultTolerantWaveNode(1.0, 1.0, 20.0)),
    ]
    for name, make_node in variants:
        seeds = list(iter_seeds(2007, TRIALS))
        outcomes = [trial(make_node, s) for s in seeds]
        terminated = sum(1 for t, _ in outcomes if t) / len(outcomes)
        finite = [lat for t, lat in outcomes if t]
        latency = sum(finite) / len(finite) if finite else float("inf")
        results[name] = (terminated, latency)
        rows.append([name, terminated, latency])
    emit(render_table(
        ["protocol", "terminated", "latency"],
        rows,
        title=(f"E19: silent mid-wave crash on a line of {N} "
               f"(departures unannounced)"),
    ))
    # The plain wave deadlocks; every detector-equipped variant terminates.
    assert results["plain wave (no detector)"][0] == 0.0
    for name in list(results)[1:]:
        assert results[name][0] == 1.0
    # Latency tracks the detection timeout (the knowledge price).
    assert (results["ft wave, timeout 3"][1]
            < results["ft wave, timeout 8"][1]
            < results["ft wave, timeout 20"][1])
    assert results["ft wave, timeout 3"][1] >= 3.0

    benchmark.pedantic(
        lambda: trial(lambda: FaultTolerantWaveNode(1.0, 1.0, 3.0), 0),
        rounds=3, iterations=1,
    )
