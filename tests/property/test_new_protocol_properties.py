"""Property-based tests for the extended protocol families."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.extrema import ExtremaNode, estimate_from_vector
from repro.protocols.tree_aggregation import TreeAggregationNode
from repro.sim.latency import ConstantDelay, UniformDelay
from repro.sim.scheduler import Simulator
from repro.topology import generators as gen

families = st.sampled_from(sorted(gen.FAMILIES))
sizes = st.integers(min_value=2, max_value=18)
seeds = st.integers(min_value=0, max_value=10_000)


def spawn_all(sim, topo, make):
    pids = []
    for node in sorted(topo.nodes()):
        neighbors = [p for p in topo.neighbors(node) if p < node]
        pids.append(sim.spawn(make(node), neighbors).pid)
    return pids


@given(families, sizes, seeds)
@settings(max_examples=25, deadline=None)
def test_extrema_vectors_only_decrease(family, n, seed):
    """Coordinate-wise minima are monotone non-increasing over time."""
    sim = Simulator(seed=seed, delay_model=UniformDelay(0.1, 0.5))
    topo = gen.make(family, n, sim.rng_for("topo"))
    pids = spawn_all(sim, topo, lambda node: ExtremaNode(k=16))
    sim.run(until=3)
    early = {p: sim.network.process(p).vector for p in pids}
    sim.run(until=12)
    for p in pids:
        late = sim.network.process(p).vector
        assert all(b <= a for a, b in zip(early[p], late))


@given(families, sizes, seeds)
@settings(max_examples=20, deadline=None)
def test_extrema_all_converge_to_global_min(family, n, seed):
    sim = Simulator(seed=seed, delay_model=ConstantDelay(0.2))
    topo = gen.make(family, n, sim.rng_for("topo"))
    pids = spawn_all(sim, topo, lambda node: ExtremaNode(k=8))
    # Enough rounds for any diameter up to n - 1.
    sim.run(until=2.0 * n + 10)
    vectors = [tuple(sim.network.process(p).vector) for p in pids]
    assert len(set(vectors)) == 1


@given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=2, max_size=64))
def test_extrema_estimator_positive(vector):
    assert estimate_from_vector(vector) > 0


@given(families, sizes, seeds)
@settings(max_examples=20, deadline=None)
def test_tree_aggregation_never_overcounts_static(family, n, seed):
    """In a static system the sink's count is never above the population
    and reaches it exactly after a rebuild settles."""
    sim = Simulator(seed=seed, delay_model=ConstantDelay(0.2))
    topo = gen.make(family, n, sim.rng_for("topo"))
    pids = spawn_all(
        sim, topo,
        lambda node: TreeAggregationNode(
            1.0, is_sink=(node == 0), rebuild_period=5.0, report_period=0.5
        ),
    )
    counts = []
    for t in (8.0, 12.0, 16.0, 19.0):
        sim.at(t, lambda: counts.append(
            sim.network.process(pids[0]).estimate_count
        ))
    sim.run(until=20.0)
    assert all(c <= n for c in counts)
    assert counts[-1] == n
