"""The incremental partition watchdog vs the legacy full scan.

The watchdog used to rescan every present pid and every edge per tick —
O(n + E) even on quiet ticks.  It now reads the joins and opened
contacts the trace's membership fold gained since its cursor, and tracks
only unresolved work (unadopted newcomers, edges with an unassigned
endpoint).  These tests pin the equivalence: under joins,
leaves and rewiring during the split, the incremental sweep must sever
exactly what the full scan would, adopt the same newcomers to the same
sides, and leave no cross edge standing.
"""

from __future__ import annotations

import random

from repro.protocols.one_time_query import WaveNode
from repro.sim.latency import ConstantDelay
from repro.sim.scheduler import Simulator
from repro.topology import generators as gen
from repro.topology.dynamic import EdgeRewiringChurn, snapshot
from repro.topology.partition import PartitionFault, isolate, random_bisection


def build(n: int = 16, seed: int = 0):
    sim = Simulator(seed=seed, delay_model=ConstantDelay(0.5))
    topo = gen.make("er", n, sim.rng_for("topo"))
    pids = []
    for node in sorted(topo.nodes()):
        neighbors = [p for p in topo.neighbors(node) if p < node]
        pids.append(sim.spawn(WaveNode(1.0), neighbors).pid)
    return sim, pids


def _no_cross_edges(network, fault):
    for a, b in network.edges():
        side_a, side_b = fault.side_of(a), fault.side_of(b)
        if side_a is not None and side_b is not None:
            assert side_a == side_b, f"cross edge ({a},{b}) survived"


class TestIncrementalEquivalence:
    def test_new_cross_edges_from_rewiring_are_severed(self):
        sim, pids = build(seed=3)
        fault = PartitionFault(at=5.0, groups=random_bisection(),
                               watchdog_period=0.5)
        fault.install(sim)
        churn = EdgeRewiringChurn(rate=4.0, preserve_connectivity=False)
        churn.install(sim)
        sim.run(until=40)
        # Rewiring adds random absent edges the whole time; every one that
        # crossed the cut must have been severed by a later watchdog tick.
        _no_cross_edges(sim.network, fault)
        assert churn.rewires > 0

    def test_join_chains_adopt_transitively(self):
        sim, pids = build(seed=5)
        fault = PartitionFault(at=5.0, groups=isolate(pids[:5]),
                               watchdog_period=0.5)
        fault.install(sim)
        sim.run(until=6)
        # A chain of newcomers: each attaches to the previous one, so only
        # cursor-driven adoption (not a one-shot scan) resolves them all.
        anchor = pids[0]
        chain = []
        for _ in range(4):
            newcomer = sim.spawn(WaveNode(1.0), [anchor])
            chain.append(newcomer.pid)
            anchor = newcomer.pid
            sim.run(until=sim.now + 1.0)
        for pid in chain:
            assert fault.side_of(pid) == 1
        _no_cross_edges(sim.network, fault)

    def test_newcomer_bridging_both_sides_stays_unadopted(self):
        sim, pids = build(seed=7)
        fault = PartitionFault(at=5.0, groups=isolate(pids[:5]),
                               watchdog_period=0.5)
        fault.install(sim)
        sim.run(until=6)
        bridge = sim.spawn(WaveNode(1.0), [pids[0], pids[10]])
        sim.run(until=12)
        # Ambiguous attachment (one neighbor per side): the legacy rule
        # leaves it unadopted, and its edges must keep being watched, not
        # severed (neither endpoint pair is two-sided).
        assert fault.side_of(bridge.pid) is None
        assert sim.network.is_present(bridge.pid)

    def test_leaver_drops_out_of_pending_adoption(self):
        sim, pids = build(seed=9)
        fault = PartitionFault(at=5.0, groups=isolate(pids[:5]),
                               watchdog_period=2.0)
        fault.install(sim)
        sim.run(until=6)
        ghost = sim.spawn(WaveNode(1.0), [pids[0]])
        sim.network.remove_process(ghost.pid)  # leaves before any tick
        sim.run(until=12)
        assert fault.side_of(ghost.pid) is None
        assert not fault._pending_adoption

    def test_heal_closes_journal_and_clears_backlog(self):
        sim, pids = build(seed=11)
        fault = PartitionFault(at=5.0, heal_at=15.0,
                               groups=isolate(pids[:5]))
        fault.install(sim)
        sim.run(until=20)
        assert not fault.active
        assert fault._cursor is None  # it reads the trace's fold no more
        assert not fault._pending_adoption
        assert not fault._watch_edges
        assert snapshot(sim.network).is_connected()

    def test_matches_brute_force_reference_under_stress(self):
        # Differential check: replay the incremental fault's final state
        # against a from-scratch recomputation of what a full scan would
        # conclude, after heavy mixed churn.
        sim, pids = build(n=20, seed=13)
        fault = PartitionFault(at=2.0, groups=random_bisection(),
                               watchdog_period=0.25)
        fault.install(sim)
        churn = EdgeRewiringChurn(rate=6.0, preserve_connectivity=False)
        churn.install(sim)
        rng = random.Random(77)
        for i in range(8):
            at = 3.0 + i * 2.0
            sim.at(at, lambda: sim.spawn(
                WaveNode(1.0),
                [p for p in [rng.choice(sorted(sim.network.present()))]],
            ))
        sim.run(until=30)
        network = sim.network
        # Full-scan reference: with assignments frozen, a correct sweep
        # leaves no two-sided cross edge and adopts every unambiguous pid.
        _no_cross_edges(network, fault)
        for pid in network.present():
            if fault.side_of(pid) is not None:
                continue
            sides = {
                fault.side_of(nbr) for nbr in network.neighbors(pid)
                if fault.side_of(nbr) is not None
            }
            # Unadopted pids must be genuinely ambiguous or isolated.
            assert len(sides) != 1
