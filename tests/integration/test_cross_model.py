"""Cross-model consistency: three formalisms, one answer.

The library models information flow three ways — the asynchronous
discrete-event simulator, the synchronous rounds runner, and the static
journey/TVG formalism.  On common ground (static graphs, unit hop cost)
they must agree exactly:

* synchronous flooding knowledge after R rounds == the R-hop BFS ball;
* journey reachability with hop_time=1 and deadline=R == the same ball;
* the async echo wave with ConstantDelay(1) collects exactly the values of
  the querier's component, and its latency equals 2 * eccentricity.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aggregates import COUNT
from repro.core.runs import Run
from repro.core.spec import OneTimeQuerySpec
from repro.protocols.one_time_query import WaveNode
from repro.sim.latency import ConstantDelay
from repro.sim.scheduler import Simulator
from repro.synchronous.flooding import KnowledgeFlood
from repro.synchronous.runner import SynchronousSystem, build_from_topology
from repro.topology import generators as gen

FAMILIES = ("ring", "line", "tree", "er", "torus")


def hop_ball(topo, source: int, radius: int) -> set[int]:
    return {
        node for node, dist in topo.bfs_distances(source).items()
        if dist <= radius
    }


class TestThreeWayAgreement:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_sync_flooding_equals_bfs_ball(self, family):
        topo = gen.make(family, 18, random.Random(3))
        for radius in (1, 2, 4):
            system = SynchronousSystem()
            pids = build_from_topology(
                system, topo, lambda node: KnowledgeFlood(float(node))
            )
            system.run(radius)
            known = set(system.process(pids[0]).known)
            assert known == hop_ball(topo, 0, radius), (family, radius)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_journeys_equal_bfs_ball_on_static_graphs(self, family):
        topo = gen.make(family, 18, random.Random(3))
        # Build a static trace of the same graph and reconstruct journeys.
        from repro.sim.trace import TraceLog

        log = TraceLog()
        for node in sorted(topo.nodes()):
            neighbors = tuple(p for p in topo.neighbors(node) if p < node)
            log.record(0.0, "join", entity=node, value=1.0, neighbors=neighbors)
        graph = Run.from_trace(log)
        for radius in (1, 2, 4):
            reachable = graph.reachable(0, start=0.0, deadline=float(radius),
                                        hop_time=1.0)
            assert set(reachable) == hop_ball(topo, 0, radius), (family, radius)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_async_wave_matches_component_and_eccentricity(self, family):
        topo = gen.make(family, 18, random.Random(3))
        sim = Simulator(seed=3, delay_model=ConstantDelay(1.0))
        pids = []
        for node in sorted(topo.nodes()):
            neighbors = [p for p in topo.neighbors(node) if p < node]
            pids.append(sim.spawn(WaveNode(float(node)), neighbors).pid)
        querier = sim.network.process(pids[0])
        querier.issue_query(COUNT)
        sim.run(until=1000)
        assert OneTimeQuerySpec().check(sim.trace)[0].ok
        result = querier.results[0]
        assert result.result == 18
        # Unit delays: the deepest echo returns after 2 * eccentricity on a
        # tree; where wave fronts meet (cycles), waiting out the DECLINE of
        # the duplicate adds one extra round trip at the meeting point.
        ecc = topo.eccentricity(0)
        assert 2.0 * ecc <= result.latency <= 2.0 * ecc + 2.0 + 1e-9

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sync_and_async_agree_on_aggregates(self, family):
        topo = gen.make(family, 16, random.Random(9))
        # Synchronous answer after eccentricity rounds.
        system = SynchronousSystem()
        spids = build_from_topology(
            system, topo, lambda node: KnowledgeFlood(float(node))
        )
        system.run(topo.eccentricity(0))
        sync_count = system.process(spids[0]).aggregate(COUNT)
        # Asynchronous echo-wave answer.
        sim = Simulator(seed=9, delay_model=ConstantDelay(1.0))
        apids = []
        for node in sorted(topo.nodes()):
            neighbors = [p for p in topo.neighbors(node) if p < node]
            apids.append(sim.spawn(WaveNode(float(node)), neighbors).pid)
        querier = sim.network.process(apids[0])
        querier.issue_query(COUNT)
        sim.run(until=1000)
        assert querier.results[0].result == sync_count == 16
