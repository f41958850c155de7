"""E13 — Failure detection quality vs timing knowledge.

Extension experiment: the synchrony analogue of the knowledge dimension.
A heartbeat detector's timeout must be set against the message-delay
distribution.  With a known delay bound any timeout above
``period + 2 * bound`` never raises a false suspicion; with unbounded
(exponential) delays every finite timeout eventually suspects a live
neighbor, and shortening it trades accuracy for reactivity.  The harness
sweeps the timeout under both regimes and reports the false-suspicion
count and the mistake recoveries.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.failure.detector import HeartbeatNode, false_suspicions, mistake_recovery_count
from repro.obs.sinks import NullSink
from repro.sim.latency import ConstantDelay, ExponentialDelay, UniformDelay
from repro.sim.rng import iter_seeds
from repro.sim.scheduler import Simulator
from repro.topology import generators as gen

N = 12
HORIZON = 400.0
TRIALS = 3


def trial(delay_model, timeout: float, seed: int) -> tuple[int, int]:
    # Only suspect/restore events are read back; drop the heartbeat firehose.
    sim = Simulator(seed=seed, delay_model=delay_model, trace_sink=NullSink())
    topo = gen.ring(N)
    pids = []
    for node in sorted(topo.nodes()):
        neighbors = [p for p in topo.neighbors(node) if p < node]
        proc = HeartbeatNode(period=1.0, timeout=timeout)
        pids.append(sim.spawn(proc, neighbors).pid)
    sim.run(until=HORIZON)
    return false_suspicions(sim.trace), mistake_recovery_count(sim.trace)


def test_e13_detector_quality(benchmark):
    regimes = [
        ("bounded (uniform<=1.5)", UniformDelay(0.5, 1.5)),
        ("unbounded (exp mean 1)", ExponentialDelay(1.0)),
    ]
    rows = []
    results: dict[tuple[str, float], int] = {}
    for name, delay in regimes:
        for timeout in (2.0, 4.0, 8.0):
            seeds = list(iter_seeds(2007, TRIALS))
            outcomes = [trial(delay, timeout, s) for s in seeds]
            false_count = sum(o[0] for o in outcomes)
            recoveries = sum(o[1] for o in outcomes)
            results[(name, timeout)] = false_count
            rows.append([name, timeout, false_count, recoveries])
    emit(render_table(
        ["delay regime", "timeout", "false_suspicions", "recoveries"],
        rows,
        title=f"E13: heartbeat detector quality, ring n={N}, period 1.0",
    ))
    bounded, unbounded = regimes[0][0], regimes[1][0]
    # With a delay bound, a timeout past period + 2*bound is perfect.
    assert results[(bounded, 4.0)] == 0
    assert results[(bounded, 8.0)] == 0
    # With unbounded delay a tight timeout makes mistakes...
    assert results[(unbounded, 2.0)] > 0
    # ...and lengthening the timeout reduces them (accuracy/reactivity).
    assert results[(unbounded, 8.0)] <= results[(unbounded, 2.0)]

    benchmark.pedantic(
        lambda: trial(ConstantDelay(0.5), 4.0, 0), rounds=3, iterations=1
    )
