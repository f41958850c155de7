"""Property-based tests for journeys, connectivity and synchronous flooding."""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.churn.models import ReplacementChurn
from repro.core.runs import Run
from repro.engine.trials import QueryConfig, run_query
from repro.obs.causal import InfluenceReport, _past_and_depth
from repro.sim.latency import ConstantDelay
from repro.sim.trace import TraceEvent, TraceLog, owners_of
from repro.synchronous.flooding import KnowledgeFlood
from repro.synchronous.runner import SynchronousSystem, build_from_topology
from repro.topology import generators as gen

families = st.sampled_from(sorted(gen.FAMILIES))
sizes = st.integers(min_value=2, max_value=16)
seeds = st.integers(min_value=0, max_value=10_000)


def random_membership_trace(seed: int, n: int) -> TraceLog:
    """A random join/leave trace over a chain-ish overlay, rewired by
    ``edge_up``/``edge_down`` events between present entities (some of
    them no-ops, some at the instant of a join or leave)."""
    rng = random.Random(seed)
    log = TraceLog()
    alive: list[int] = []
    t = 0.0
    for entity in range(n):
        t += rng.uniform(0.1, 2.0)
        neighbors = tuple(rng.sample(alive, min(len(alive), 2))) if alive else ()
        log.record(t, "join", entity=entity, value=1.0, neighbors=neighbors)
        alive.append(entity)
        for _ in range(rng.randrange(3)):
            a, b = sorted(rng.sample(alive, 2)) if len(alive) > 1 else (0, 0)
            if a != b:
                t += rng.choice((0.0, rng.uniform(0.0, 1.0)))
                kind = rng.choice(("edge_up", "edge_down"))
                log.record(t, kind, a=a, b=b)
        if len(alive) > 3 and rng.random() < 0.3:
            victim = rng.choice(alive)
            alive.remove(victim)
            t += rng.uniform(0.0, 1.0)
            log.record(t, "leave", entity=victim)
    return log


def replay(log: TraceLog, t: float) -> tuple[set[int], set[tuple[int, int]]]:
    """The naive reference: the live node and edge sets after applying, in
    order, every event at or before ``t``."""
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for event in log:
        if event.time > t:
            break
        if event.kind == "join":
            entity = event["entity"]
            nodes.add(entity)
            edges |= {
                (min(entity, n), max(entity, n))
                for n in event["neighbors"] if n in nodes
            }
        elif event.kind == "leave":
            nodes.discard(event["entity"])
            edges = {edge for edge in edges if event["entity"] not in edge}
        elif event.kind == "edge_up":
            edges.add((event["a"], event["b"]))
        elif event.kind == "edge_down":
            edges.discard((event["a"], event["b"]))
    return nodes, edges


class TestSnapshotsMatchReplay:
    @given(seeds, st.integers(min_value=3, max_value=14))
    @settings(max_examples=40, deadline=None)
    def test_snapshot_equals_naive_replay(self, seed, n):
        """``Run.snapshot(t)`` is the live graph at every event time and at
        every midpoint between consecutive event times."""
        log = random_membership_trace(seed, n)
        run = Run.from_trace(log)
        times = sorted({event.time for event in log})
        probes = times + [(a + b) / 2 for a, b in zip(times, times[1:])]
        for t in probes:
            snap = run.snapshot(t)
            assert (set(snap.nodes()), set(snap.edges())) == replay(log, t), t


class TestJourneyProperties:
    @given(seeds, st.integers(min_value=3, max_value=14))
    @settings(max_examples=30, deadline=None)
    def test_reachable_monotone_in_deadline(self, seed, n):
        log = random_membership_trace(seed, n)
        graph = Run.from_trace(log)
        source = 0
        early = graph.reachable(source, 0.0, deadline=5.0, hop_time=0.5)
        late = graph.reachable(source, 0.0, deadline=50.0, hop_time=0.5)
        assert early <= late

    @given(seeds, st.integers(min_value=3, max_value=14))
    @settings(max_examples=30, deadline=None)
    def test_reachable_antitone_in_hop_time(self, seed, n):
        log = random_membership_trace(seed, n)
        graph = Run.from_trace(log)
        fast = graph.reachable(0, 0.0, deadline=20.0, hop_time=0.1)
        slow = graph.reachable(0, 0.0, deadline=20.0, hop_time=2.0)
        assert slow <= fast

    @given(seeds, st.integers(min_value=3, max_value=14))
    @settings(max_examples=30, deadline=None)
    def test_arrivals_never_before_start(self, seed, n):
        log = random_membership_trace(seed, n)
        graph = Run.from_trace(log)
        arrivals = graph.earliest_arrivals(0, start=1.0, hop_time=0.5)
        assert all(when >= 1.0 for when in arrivals.values())
        assert arrivals.get(0) == 1.0

    @given(seeds, st.integers(min_value=3, max_value=14))
    @settings(max_examples=20, deadline=None)
    def test_source_always_reachable(self, seed, n):
        log = random_membership_trace(seed, n)
        graph = Run.from_trace(log)
        assert 0 in graph.reachable(0, 0.0, deadline=100.0)


def actual_outside_potential(events: list[TraceEvent], run: Run) -> dict[int, float]:
    """Entities in the verdict's causal past with no journey to the querier
    that ends by the verdict, each starting at the time of its earliest
    event in that past (``hop_time`` 0).  Empty is actual ⊆ potential."""
    report = InfluenceReport.from_trace(events)
    past, _ = _past_and_depth(events, report.verdict_index)
    start: dict[int, float] = {}
    for index in sorted(past):
        for owner in owners_of(events[index]):
            start.setdefault(owner, events[index].time)
    assert set(start) == report.influencing_entities
    return {
        entity: t for entity, t in start.items()
        if not run.journey_exists(entity, report.querier, t, report.verdict_time)
    }


class TestActualWithinPotential:
    """Actual influence (the verdict's happens-before past) lies inside
    potential influence (``Run``'s journeys): every entity whose state
    reached the verdict had a journey to the querier by the verdict."""

    @given(seeds, st.sampled_from([None, 1.0, 4.0]), st.sampled_from(["er", "ring"]))
    @settings(max_examples=24, deadline=None)
    def test_e4_and_e17_query_trials(self, seed, rate, topology):
        # E4's shape (er, uniform delay) and E17's (ring, unit delay), at
        # smoke size.
        outcome = run_query(QueryConfig(
            n=16, topology=topology, aggregate="COUNT", seed=seed,
            horizon=120.0, trace_sink="memory",
            delay=ConstantDelay(1.0) if topology == "ring" else None,
            churn=(lambda f: ReplacementChurn(f, rate=rate)) if rate else None,
        ))
        events = list(outcome.trace)
        assert actual_outside_potential(events, Run.from_trace(events)) == {}

    @given(seeds, st.sampled_from([None, 2.0]))
    @settings(max_examples=10, deadline=None)
    def test_complete_graph_trials(self, seed, rate):
        outcome = run_query(QueryConfig(
            n=12, aggregate="COUNT", seed=seed, horizon=120.0,
            protocol="request_collect", trace_sink="memory",
            churn=(lambda f: ReplacementChurn(f, rate=rate)) if rate else None,
        ))
        events = list(outcome.trace)
        assert actual_outside_potential(events, Run.from_trace(events)) == {}

    @given(seeds, st.integers(min_value=3, max_value=14))
    @example(81, 3)  # join 1 (neighbor 0) and edge_down(0, 1) at one instant
    @settings(max_examples=40, deadline=None)
    def test_random_membership_traces(self, seed, n):
        events = list(random_membership_trace(seed, n))
        t = events[-1].time
        alive = sorted(Run.from_trace(events).present_at(t))
        querier = alive[seed % len(alive)]
        events += [
            TraceEvent(t, "query_issued", {"entity": querier, "qid": 0}),
            TraceEvent(t + 1.0, "query_returned", {"entity": querier, "qid": 0}),
        ]
        assert actual_outside_potential(events, Run.from_trace(events)) == {}


class TestSynchronousFloodingProperties:
    @given(families, sizes, seeds)
    @settings(max_examples=30, deadline=None)
    def test_knowledge_monotone_over_rounds(self, family, n, seed):
        topo = gen.make(family, n, random.Random(seed))
        system = SynchronousSystem()
        pids = build_from_topology(
            system, topo, lambda node: KnowledgeFlood(float(node))
        )
        previous = {pid: set() for pid in pids}
        for _ in range(n):
            system.run(1)
            for pid in pids:
                known = set(system.process(pid).known)
                assert previous[pid] <= known
                previous[pid] = known

    @given(families, sizes, seeds)
    @settings(max_examples=30, deadline=None)
    def test_knowledge_equals_hop_ball(self, family, n, seed):
        """After R rounds the querier knows exactly the R-hop ball."""
        topo = gen.make(family, n, random.Random(seed))
        system = SynchronousSystem()
        pids = build_from_topology(
            system, topo, lambda node: KnowledgeFlood(float(node))
        )
        rounds = max(1, n // 2)
        system.run(rounds)
        querier = system.process(pids[0])
        distances = topo.bfs_distances(0)
        ball = {node for node, d in distances.items() if d <= rounds}
        assert set(querier.known) == ball

    @given(families, sizes, seeds)
    @settings(max_examples=20, deadline=None)
    def test_n_rounds_always_complete(self, family, n, seed):
        topo = gen.make(family, n, random.Random(seed))
        system = SynchronousSystem()
        pids = build_from_topology(
            system, topo, lambda node: KnowledgeFlood(float(node))
        )
        system.run(n)  # n - 1 >= diameter always
        for pid in pids:
            assert len(system.process(pid).known) == n
