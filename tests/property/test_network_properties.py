"""Property-based tests for network/membership invariants.

Random sequences of membership and edge actions must preserve the
structural invariants everything else relies on: symmetric adjacency,
neighbors ⊆ present, trace-derived runs agreeing with the live network.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runs import Run
from repro.sim.node import Process
from repro.sim.scheduler import Simulator

# An action script: each step is (kind, a, b) with integers interpreted
# modulo the current candidates.
actions = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "link", "unlink", "advance"]),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    ),
    min_size=1,
    max_size=60,
)


def apply_script(script) -> Simulator:
    sim = Simulator(seed=1)
    sim.spawn(Process(value=1.0))  # never let the system start empty
    for kind, a, b in script:
        present = sorted(sim.network.present())
        if kind == "join":
            neighbors = []
            if present:
                neighbors = [present[a % len(present)]]
            sim.spawn(Process(value=1.0), neighbors)
        elif kind == "leave" and len(present) > 1:
            sim.kill(present[a % len(present)])
        elif kind == "link" and len(present) >= 2:
            x = present[a % len(present)]
            y = present[b % len(present)]
            if x != y:
                sim.network.add_edge(x, y)
        elif kind == "unlink" and len(present) >= 2:
            x = present[a % len(present)]
            y = present[b % len(present)]
            if x != y:
                sim.network.remove_edge(x, y)
        elif kind == "advance":
            sim.run(until=sim.now + (a % 5) + 0.5)
    return sim


@given(actions)
@settings(max_examples=60, deadline=None)
def test_adjacency_symmetric_and_present(script):
    sim = apply_script(script)
    present = sim.network.present()
    for pid in present:
        for neighbor in sim.network.neighbors(pid):
            assert neighbor in present
            assert pid in sim.network.neighbors(neighbor)
            assert neighbor != pid


@given(actions)
@settings(max_examples=60, deadline=None)
def test_trace_run_agrees_with_network(script):
    sim = apply_script(script)
    run = Run.from_trace(sim.trace, horizon=sim.now)
    assert run.present_at(sim.now) == sim.network.present()


@given(actions)
@settings(max_examples=40, deadline=None)
def test_edges_view_matches_neighbors(script):
    sim = apply_script(script)
    edges = sim.network.edges()
    for a, b in edges:
        assert a < b
        assert b in sim.network.neighbors(a)
    # Every neighbor relation appears in the edge view.
    for pid in sim.network.present():
        for neighbor in sim.network.neighbors(pid):
            assert (min(pid, neighbor), max(pid, neighbor)) in edges


@given(actions)
@settings(max_examples=40, deadline=None)
def test_membership_trace_well_formed(script):
    """Joins and leaves alternate correctly per entity (ids never reused)."""
    sim = apply_script(script)
    seen_join: set[int] = set()
    seen_leave: set[int] = set()
    for event in sim.trace.membership_events():
        entity = event["entity"]
        if event.kind == "join":
            assert entity not in seen_join  # no double join
            seen_join.add(entity)
        else:
            assert entity in seen_join  # no leave before join
            assert entity not in seen_leave  # no double leave
            seen_leave.add(entity)


# Membership-only scripts for the sorted index: ("spawn", _) takes the next
# counter pid, ("spawn_at", p) an explicit pid from a range that interleaves
# with the counter's (so it lands in the middle of the index, or past its end),
# ("kill", i) removes the i-th present pid — which frees a slot for recycling.
membership_steps = st.lists(
    st.tuples(
        st.sampled_from(["spawn", "spawn_at", "kill"]),
        st.integers(min_value=0, max_value=400),
    ),
    min_size=1,
    max_size=80,
)


@given(membership_steps)
@settings(max_examples=150, deadline=None)
def test_sorted_index_tracks_membership(steps):
    """``present_sorted()`` is ``sorted(present())`` after every step of
    any interleaving of counter spawns, out-of-order explicit-pid spawns
    and kills, including across slot recycling."""
    sim = Simulator(seed=1)
    network = sim.network
    for kind, value in steps:
        if kind == "kill":
            if network.population():
                sim.kill(network.present_sorted()[value % network.population()])
        else:
            pid = sim.new_pid() if kind == "spawn" else value
            if not network.is_present(pid):  # an explicit spawn may have taken it
                sim.spawn(Process(value=1.0), pid=pid)
        assert list(network.present_sorted()) == sorted(network.present())
