"""Network partitions: the geography dimension's sharpest failure.

A partition splits the population into groups and severs every edge
between them; healing restores the severed edges whose endpoints survived.
During the partition each side is a legal dynamic system of its own — a
querier can only ever be complete with respect to its side, which is why
the specification checker scopes obligations to reachability.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Sequence

from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.events import PRIORITY_MEMBERSHIP
from repro.sim.trace import JOINED, JOINED_ALL, OPENED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network
    from repro.sim.scheduler import Simulator

#: Maps the present pids to a group label; edges between different labels
#: are severed.
GroupAssignment = Callable[[Sequence[int], random.Random], dict[int, int]]


def random_bisection(fraction: float = 0.5) -> GroupAssignment:
    """Assign roughly ``fraction`` of the population to group 0."""
    if not 0 < fraction < 1:
        raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")

    def assign(present: Sequence[int], rng: random.Random) -> dict[int, int]:
        pids = list(present)
        rng.shuffle(pids)
        cut = max(1, min(len(pids) - 1, round(len(pids) * fraction)))
        return {pid: (0 if i < cut else 1) for i, pid in enumerate(pids)}

    return assign


def isolate(pids: Sequence[int]) -> GroupAssignment:
    """Cut the given pids (group 1) away from everyone else (group 0)."""
    island = set(pids)

    def assign(present: Sequence[int], rng: random.Random) -> dict[int, int]:
        return {pid: (1 if pid in island else 0) for pid in present}

    return assign


class PartitionFault:
    """Severs cross-group edges at ``at``; optionally heals at ``heal_at``.

    While the partition holds, *new* cross-group edges (from joins or
    rewiring) are also severed on a fast watchdog, so the sides stay
    disjoint even under churn.

    Args:
        at: partition time.
        heal_at: healing time (``None`` = never heals).
        groups: group-assignment policy (default: random bisection).
        watchdog_period: how often new cross edges are swept while split.
    """

    def __init__(
        self,
        at: float,
        heal_at: float | None = None,
        groups: GroupAssignment | None = None,
        watchdog_period: float = 1.0,
    ) -> None:
        if heal_at is not None and heal_at <= at:
            raise ConfigurationError(
                f"heal time {heal_at} must follow partition time {at}"
            )
        if watchdog_period <= 0:
            raise ConfigurationError(
                f"watchdog period must be > 0, got {watchdog_period}"
            )
        self.at = at
        self.heal_at = heal_at
        self.groups = groups or random_bisection()
        self.watchdog_period = watchdog_period
        self._sim: "Simulator | None" = None
        self._assignment: dict[int, int] = {}
        self._severed: list[tuple[int, int]] = []
        self.active = False
        # Incremental watchdog state: instead of rescanning every present
        # pid and every edge each tick (O(n + E)), the watchdog reads the
        # joins and opened contacts the trace's membership fold gained
        # since its cursor, and tracks only what it has not yet resolved —
        # unadopted newcomers and edges with at least one unassigned
        # endpoint.
        self._cursor: int | None = None
        self._pending_adoption: set[int] = set()
        self._watch_edges: set[tuple[int, int]] = set()

    def install(self, sim: "Simulator") -> None:
        if self._sim is not None:
            raise SimulationError("partition fault is already installed")
        self._sim = sim
        sim.at(self.at, self._split, priority=PRIORITY_MEMBERSHIP,
               label="partition:split")
        if self.heal_at is not None:
            sim.at(self.heal_at, self._heal, priority=PRIORITY_MEMBERSHIP,
                   label="partition:heal")

    @property
    def sim(self) -> "Simulator":
        if self._sim is None:
            raise SimulationError("partition fault is not installed")
        return self._sim

    def side_of(self, pid: int) -> int | None:
        """Group label of ``pid`` (``None`` if it joined after the split)."""
        return self._assignment.get(pid)

    def group_members(self, label: int) -> frozenset[int]:
        """Present members assigned to ``label``."""
        network = self.sim.network
        return frozenset(
            pid for pid, group in self._assignment.items()
            if group == label and network.is_present(pid)
        )

    # ------------------------------------------------------------------
    # Fault actions
    # ------------------------------------------------------------------

    def _split(self) -> None:
        network = self.sim.network
        # A copy: ``groups`` is caller-supplied and may keep or reorder it.
        present = list(network.present_sorted())
        if len(present) < 2:
            return
        rng = self.sim.rng_for("partition")
        self._assignment = self.groups(present, rng)
        self.active = True
        self._cursor = len(self.sim.trace.membership.kinds)
        self._pending_adoption = {
            pid for pid in present if pid not in self._assignment
        }
        for a, b in sorted(network.edges()):
            side_a = self._assignment.get(a)
            side_b = self._assignment.get(b)
            if side_a is None or side_b is None:
                # An endpoint has no side yet (custom assignments may skip
                # pids); re-examine once it gets adopted.
                self._watch_edges.add((a, b))
            elif side_a != side_b:
                network.remove_edge(a, b)
                self._severed.append((a, b))
        self.sim.trace.record(
            self.sim.now, "partition_split",
            sides=tuple(
                sorted(self._assignment.values()).count(label)
                for label in sorted(set(self._assignment.values()))
            ),
        )
        self.sim.schedule(self.watchdog_period, self._watchdog,
                          label="partition:watchdog")

    def _watchdog(self) -> None:
        """Incremental sweep: adopt newcomers, sever new cross edges.

        Cost is O(changes since the last tick + unresolved backlog), not
        O(population + edges).  Assignments never change once made, so an
        edge between two assigned pids needs examining exactly once; only
        edges waiting on an adoption stay on the watch list.  The adoption
        rule and the per-tick ordering (sorted pids, then sorted edges)
        match the original full-scan implementation exactly.
        """
        if not self.active:
            return
        network = self.sim.network
        membership = self.sim.trace.membership
        entities, start = membership.entities, self._cursor
        for index, kind in enumerate(membership.kinds[start:], start):
            pid = entities[index]
            if kind == OPENED:
                self._watch_edges.add((pid, membership.values[index]))
            elif (kind == JOINED or kind == JOINED_ALL) and pid not in self._assignment:
                # Its join links need no watching: a newcomer takes the
                # one side its assigned neighbors share, so none of them
                # can become a cross edge.
                self._pending_adoption.add(pid)
        self._cursor = len(membership.kinds)
        # Adopt newcomers into the side they attached to (their first
        # surviving neighbor's side); ambiguous ones retry next tick.
        for pid in sorted(self._pending_adoption):
            if not network.is_present(pid):
                self._pending_adoption.discard(pid)
                continue
            sides = {
                self._assignment[nbr]
                for nbr in network.neighbors(pid)
                if nbr in self._assignment
            }
            if len(sides) == 1:
                self._assignment[pid] = next(iter(sides))
                self._pending_adoption.discard(pid)
        # Sweep the watched edges.
        for a, b in sorted(self._watch_edges):
            if not network.has_edge(a, b):
                self._watch_edges.discard((a, b))
                continue
            side_a = self._assignment.get(a)
            side_b = self._assignment.get(b)
            if side_a is None or side_b is None:
                continue  # keep watching until both endpoints take sides
            self._watch_edges.discard((a, b))
            if side_a != side_b:
                network.remove_edge(a, b)
                self._severed.append((a, b))
        self.sim.schedule(self.watchdog_period, self._watchdog,
                          label="partition:watchdog")

    def _heal(self) -> None:
        if not self.active:
            return
        self.active = False
        network = self.sim.network
        self._cursor = None
        self._pending_adoption.clear()
        self._watch_edges.clear()
        restored = 0
        for a, b in self._severed:
            if network.is_present(a) and network.is_present(b):
                network.add_edge(a, b)
                restored += 1
        self.sim.trace.record(self.sim.now, "partition_heal", restored=restored)
        self._severed.clear()
