"""Runs: the formal object the paper's definitions quantify over.

A *run* records, for every entity that ever existed, the interval during
which it was present in the system.  All of the paper's classes (the entity
dimension) are sets of runs, and all solvability claims are statements about
what protocols can achieve over every run of a class.  Here a run is built
from a simulation :class:`~repro.sim.trace.TraceLog` observed up to a finite
horizon.

A run is also the geography dimension's time-varying graph.  A *journey*
is a time-respecting path over its edge intervals; a wave can only inform
the querier about a process some journey reaches within the query window,
so journey reachability is the exact *upper bound* on what any protocol
can achieve in a run.  Snapshots classify the run along the
temporal-connectivity hierarchy (Casteigts, *Finding Structure in Dynamic
Networks*).  Presence intervals and join values come from one pass over
the trace's :class:`~repro.sim.trace.MembershipFold`; edge intervals are
replayed from the same fold on the first edge, journey or snapshot query,
so checking a specification never pays for them.
"""

from __future__ import annotations

import heapq
import math
# The C accessor ``collections.namedtuple`` builds its fields from.
from collections import _tuplegetter  # type: ignore[attr-defined]
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from repro.obs.sinks import NullSink
from repro.sim.errors import ConfigurationError
from repro.sim import trace as tr
from repro.sim.trace import MembershipFold, TraceEvent, TraceLog
from repro.topology.graph import Topology

#: Stand-in for "still present at the end of the observation window".
FOREVER = math.inf

#: ``Interval(join, leave)`` without its ``__new__`` frame, for
#: :meth:`Run.from_trace`, which makes the ``leave >= join`` check itself.
_new_interval = tuple.__new__


class Interval(tuple):
    """A half-open presence interval ``[join, leave)``.

    ``leave`` is :data:`FOREVER` when the entity never left within the
    observation horizon.  A ``(join, leave)`` tuple underneath, built in
    one ``tuple.__new__`` (like :class:`~repro.sim.trace.TraceEvent`);
    intervals pickle, hash and compare by value.
    """

    __slots__ = ()
    __match_args__ = ("join", "leave")

    def __new__(cls, join: float, leave: float = FOREVER) -> "Interval":
        if leave < join:
            raise ValueError(f"leave {leave} before join {join}")
        return _new_interval(cls, (join, leave))

    join = _tuplegetter(0, "When the entity joined.")
    leave = _tuplegetter(1, "When it left (:data:`FOREVER`: it did not).")

    def __getnewargs__(self) -> tuple[float, float]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Interval(join={self.join!r}, leave={self.leave!r})"

    def contains(self, t: float) -> bool:
        """Is the entity present at instant ``t``?"""
        return self.join <= t < self.leave

    def covers(self, t0: float, t1: float) -> bool:
        """Is the entity present throughout ``[t0, t1]``?"""
        return self.join <= t0 and t1 < self.leave

    def overlaps(self, t0: float, t1: float) -> bool:
        """Is the entity present at some instant of ``[t0, t1]``?"""
        return self.join <= t1 and t0 < self.leave

    @property
    def length(self) -> float:
        return self.leave - self.join


class Run:
    """Presence intervals of every entity, over a finite horizon.

    Args:
        intervals: mapping from entity id to its presence interval.
        horizon: the end of the observation window.  Properties such as
            "finite arrival" are judged *relative to the horizon*: a
            simulation can only ever exhibit finitely many arrivals, so the
            class predicates in :mod:`repro.core.arrival` test consistency
            with the declared generative model, not the model itself.
        values: each entity's value when it joined.
        membership: the fold the edge intervals are replayed from, as far
            as it reaches now (none: a run without edges).
    """

    def __init__(
        self, intervals: dict[int, Interval], horizon: float, *,
        values: dict[int, object] | None = None,
        membership: MembershipFold | None = None,
    ) -> None:
        self._intervals = dict(intervals)
        self.horizon = float(horizon)
        #: Entity id -> the value its join event carried (``None`` if none).
        self.values = values if values is not None else {}
        self._membership = membership if membership is not None else MembershipFold()
        # A live log's fold grows on; the run covers what was folded when
        # it was built.
        self._changes = len(self._membership.kinds)
        # node -> {neighbor: presence intervals of the edge}; one list per
        # edge, shared by both endpoints.  Built on the first edge query.
        self._adjacency: dict[int, dict[int, list[Interval]]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_trace(
        cls, events: TraceLog | Iterable[TraceEvent], horizon: float | None = None
    ) -> "Run":
        """Build a run from the join/leave events of a trace.

        ``events`` is a :class:`TraceLog`, whose membership fold is read
        (under every sink), or any iterable of trace events in record
        order, which is recorded into a fresh log's fold.  ``horizon``
        defaults to the last membership event.

        Raises:
            ValueError: on malformed membership sequences (leave without
                join, double join — entity ids are never reused).
        """
        if not isinstance(events, TraceLog):
            log, folded = TraceLog(NullSink()), tr.CONTACT
            for time, kind, data in events:
                if kind in folded:
                    log.record(time, kind, **data)
            events = log
        membership = events.membership
        joins: dict[int, float] = {}
        values: dict[int, object] = {}
        intervals: dict[int, Interval] = {}
        last_time = 0.0
        for time, kind, entity, value in zip(
            membership.times, membership.kinds, membership.entities,
            membership.values,
        ):
            if kind > tr.JOINED_ALL:  # a contact opened or closed
                continue
            if kind:
                if entity in values:
                    raise ValueError(f"entity {entity} joined twice")
                joins[entity] = time
                values[entity] = value
            else:
                joined = joins.pop(entity, None)
                if joined is None:
                    raise ValueError(f"entity {entity} left without joining")
                if time < joined:
                    raise ValueError(f"leave {time} before join {joined}")
                intervals[entity] = _new_interval(Interval, (joined, time))
            if time > last_time:
                last_time = time
        for entity, join_time in joins.items():
            intervals[entity] = _new_interval(Interval, (join_time, FOREVER))
        if horizon is None:
            horizon = last_time
        return cls(intervals, horizon, values=values, membership=membership)

    @classmethod
    def static(cls, n: int, horizon: float) -> "Run":
        """A run of ``n`` entities present from time 0 forever."""
        return cls({pid: Interval(0.0) for pid in range(n)}, horizon)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def entities(self) -> frozenset[int]:
        """Every entity that was ever present."""
        return frozenset(self._intervals)

    def interval(self, entity: int) -> Interval:
        """Presence interval of ``entity``."""
        return self._intervals[entity]

    def __len__(self) -> int:
        return len(self._intervals)

    def __contains__(self, entity: int) -> bool:
        return entity in self._intervals

    # ------------------------------------------------------------------
    # Membership queries
    # ------------------------------------------------------------------

    def present_at(self, t: float) -> frozenset[int]:
        """Entities present at instant ``t``."""
        return frozenset(
            e for e, (join, leave) in self._intervals.items() if join <= t < leave
        )

    def stable_core(self, t0: float, t1: float) -> frozenset[int]:
        """Entities present throughout ``[t0, t1]``.

        This is the set the one-time query problem's validity clause
        quantifies over: values of stable-core members *must* be accounted
        for; transients may or may not be.
        """
        if t1 < t0:
            raise ValueError(f"empty window [{t0}, {t1}]")
        return frozenset(
            e for e, (join, leave) in self._intervals.items()
            if join <= t0 and t1 < leave
        )

    def transients(self, t0: float, t1: float) -> frozenset[int]:
        """Entities present at some, but not every, instant of ``[t0, t1]``."""
        return frozenset(
            e
            for e, (join, leave) in self._intervals.items()
            if join <= t1 and t0 < leave and not (join <= t0 and t1 < leave)
        )

    # ------------------------------------------------------------------
    # Edge intervals: the time-varying graph
    # ------------------------------------------------------------------

    def _adjacent(self) -> dict[int, dict[int, list[Interval]]]:
        """The edge intervals, replayed from the run's fold on first use."""
        if self._adjacency is None:
            self._adjacency = _edge_intervals(self._membership, self._changes)
        return self._adjacency

    def edges(self) -> list[tuple[int, int]]:
        """Every edge that ever existed, as sorted pairs."""
        return sorted(
            (a, b) for a, near in self._adjacent().items() for b in near if a < b
        )

    def presence(self, a: int, b: int) -> list[Interval]:
        """Presence intervals of the edge (a, b), in time order."""
        return list(self._adjacent().get(a, {}).get(b, ()))

    def edge_present(self, a: int, b: int, t: float) -> bool:
        return any(iv.contains(t) for iv in self.presence(a, b))

    def edges_at(self, t: float) -> list[tuple[int, int]]:
        """The edges present at instant ``t``."""
        return [
            (a, b)
            for a, near in self._adjacent().items()
            for b, intervals in near.items()
            if a < b and any(iv.contains(t) for iv in intervals)
        ]

    def snapshot(self, t: float) -> Topology:
        """The static graph at instant ``t``: the present entities (isolated
        ones included) and the edges present at ``t``."""
        return Topology(nodes=self.present_at(t), edges=self.edges_at(t))

    def snapshots(self, times: Sequence[float]) -> list[Topology]:
        """:meth:`snapshot` at each of ``times``, in time order."""
        if not times:
            raise ConfigurationError("need at least one sample time")
        return [self.snapshot(t) for t in sorted(times)]

    # ------------------------------------------------------------------
    # Journeys
    # ------------------------------------------------------------------

    def earliest_arrivals(
        self, source: int, start: float, deadline: float = FOREVER, hop_time: float = 0.0
    ) -> dict[int, float]:
        """Earliest-arrival times of journeys from ``(source, start)``.

        A hop over edge ``(u, v)`` departing at time ``d`` requires the edge
        to be continuously present over ``[d, d + hop_time]`` and arrives at
        ``d + hop_time``.  Departure may wait for an edge to appear.  Only
        arrivals at or before ``deadline`` count.  A zero-time hop may
        cross a contact at the instant it closes (``arrives <= leave``):
        influence passes at that instant, as the causal kernel lets it.

        Returns a map ``{node: earliest arrival time}`` (the source maps to
        ``start``).
        """
        if hop_time < 0:
            raise ValueError(f"hop time must be >= 0, got {hop_time}")
        adjacency = self._adjacent()
        best: dict[int, float] = {source: start}
        heap: list[tuple[float, int]] = [(start, source)]
        while heap:
            arrival, node = heapq.heappop(heap)
            if arrival > best[node]:
                continue  # stale entry
            for other, intervals in adjacency.get(node, {}).items():
                for interval in intervals:
                    departure = max(arrival, interval.join)
                    arrives = departure + hop_time
                    if arrives > deadline:
                        continue
                    # The edge must survive the hop (a zero-time one may
                    # end as it closes).
                    if arrives > interval.leave or (
                        hop_time and arrives == interval.leave
                    ):
                        continue
                    if arrives < best.get(other, FOREVER):
                        best[other] = arrives
                        heapq.heappush(heap, (arrives, other))
                    break  # later intervals cannot improve on this one
        return best

    def journey_exists(
        self, source: int, target: int, start: float, deadline: float, hop_time: float = 0.0
    ) -> bool:
        """Is there a journey from ``(source, start)`` to ``target`` by
        ``deadline``?"""
        return target in self.reachable(source, start, deadline, hop_time)

    def reachable(
        self, source: int, start: float, deadline: float, hop_time: float = 0.0
    ) -> frozenset[int]:
        """Every node journey-reachable from ``(source, start)`` by
        ``deadline`` (the information-flow upper bound for any protocol)."""
        arrivals = self.earliest_arrivals(source, start, deadline, hop_time)
        return frozenset(
            node for node, when in arrivals.items() if when <= deadline
        )

    def audit_query_misses(
        self, querier: int, issue_time: float, return_time: float,
        missing: frozenset[int], hop_time: float = 0.0,
    ) -> "JourneyAudit":
        """Classify a query's missed stable-core members.

        ``hop_time`` should be a lower bound on the per-hop message delay:
        with a lower bound the reachable set over-approximates what any
        protocol could do, so members outside it were *provably*
        uncountable.
        """
        reachable = self.reachable(querier, issue_time, return_time, hop_time)
        impossible = frozenset(m for m in missing if m not in reachable)
        return JourneyAudit(
            reachable=reachable,
            impossible=impossible,
            unexplained_misses=missing - impossible,
        )

    # ------------------------------------------------------------------
    # Dynamics measures
    # ------------------------------------------------------------------

    def concurrency(self, t: float) -> int:
        """Number of entities present at instant ``t``."""
        return len(self.present_at(t))

    def max_concurrency(self) -> int:
        """Peak number of simultaneously present entities.

        Computed by sweeping the sorted join/leave instants.
        """
        deltas: list[tuple[float, int, int]] = []
        for iv in self._intervals.values():
            # Leaves sort before joins at the same instant because the
            # interval is half-open: [join, leave).
            deltas.append((iv.join, 1, +1))
            if iv.leave is not FOREVER and not math.isinf(iv.leave):
                deltas.append((iv.leave, 0, -1))
        deltas.sort(key=lambda d: (d[0], d[1]))
        peak = count = 0
        for _, _, delta in deltas:
            count += delta
            peak = max(peak, count)
        return peak

    def arrival_count(self, up_to: float | None = None) -> int:
        """Number of joins in ``[0, up_to]`` (default: whole horizon)."""
        limit = self.horizon if up_to is None else up_to
        return sum(1 for iv in self._intervals.values() if iv.join <= limit)

    def last_arrival_time(self) -> float:
        """Time of the latest join, or 0.0 if the run is empty."""
        if not self._intervals:
            return 0.0
        return max(iv.join for iv in self._intervals.values())

    def quiescent_from(self) -> float:
        """Earliest time after which membership never changes again."""
        latest = 0.0
        for iv in self._intervals.values():
            latest = max(latest, iv.join)
            if not math.isinf(iv.leave):
                latest = max(latest, iv.leave)
        return latest

    def churn_events(self, t0: float, t1: float) -> int:
        """Joins plus leaves occurring within ``[t0, t1]``."""
        count = 0
        for iv in self._intervals.values():
            if t0 <= iv.join <= t1:
                count += 1
            if not math.isinf(iv.leave) and t0 <= iv.leave <= t1:
                count += 1
        return count

    def churn_rate(self, t0: float, t1: float) -> float:
        """Membership events per time unit over ``[t0, t1]``."""
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1}]")
        return self.churn_events(t0, t1) / (t1 - t0)

    def mean_session_length(self) -> float:
        """Mean lifetime of entities that departed within the horizon."""
        lengths = [
            iv.length for iv in self._intervals.values() if not math.isinf(iv.leave)
        ]
        if not lengths:
            return FOREVER
        return sum(lengths) / len(lengths)

    def __repr__(self) -> str:
        return (
            f"Run(entities={len(self)}, horizon={self.horizon}, "
            f"max_concurrency={self.max_concurrency()})"
        )


def union_entities(runs: Iterable[Run]) -> frozenset[int]:
    """Entities appearing in any of the given runs."""
    result: set[int] = set()
    for run in runs:
        result |= run.entities()
    return frozenset(result)


def _edge_intervals(
    membership: MembershipFold, changes: int
) -> dict[int, dict[int, list[Interval]]]:
    """Replay a fold's first ``changes`` changes into per-edge presence
    intervals (the contact effects of :data:`repro.sim.trace.CONTACT`): a
    join attaches to its present ``links`` — to everyone present if it
    joined a complete network — a contact opens and closes, and a leave
    detaches the leaver from its open contacts, found through
    ``open_at``, its incident index."""
    adjacency: dict[int, dict[int, list[Interval]]] = {}
    open_at: dict[int, dict[int, float]] = {}
    present: set[int] = set()

    def open_edge(a: int, b: int, when: float) -> None:
        if b not in open_at.setdefault(a, {}):
            open_at[a][b] = when
            open_at.setdefault(b, {})[a] = when

    def close_edge(a: int, b: int, when: float) -> None:
        started = open_at.get(a, {}).pop(b, None)
        if started is None:
            return
        del open_at[b][a]
        near = adjacency.setdefault(a, {})
        if b not in near:
            near[b] = adjacency.setdefault(b, {})[a] = []
        near[b].append(Interval(started, when))

    links = membership.links
    for index, (when, kind, entity, value) in enumerate(zip(
        membership.times, membership.kinds[:changes], membership.entities,
        membership.values,
    )):
        if kind == tr.OPENED:
            open_edge(entity, value, when)
        elif kind == tr.CLOSED:
            close_edge(entity, value, when)
        elif kind == tr.LEFT:
            for other in list(open_at.get(entity, ())):
                close_edge(entity, other, when)
            present.discard(entity)
        else:
            attached = (
                [other for other in present if other != entity]
                if kind == tr.JOINED_ALL
                else [other for other in links.get(index, ()) if other in present]
            )
            for other in attached:
                open_edge(entity, other, when)
            present.add(entity)
    for a, near in list(open_at.items()):
        for b in list(near):
            if a < b:
                close_edge(a, b, FOREVER)
    return adjacency


@dataclass(frozen=True)
class JourneyAudit:
    """Cross-check of a query verdict against journey reachability.

    ``unexplained_misses`` are stable-core members the protocol missed even
    though a journey existed — protocol inefficiency rather than topological
    impossibility.  ``impossible`` members had no journey: *no* protocol
    could have counted them.
    """

    reachable: frozenset[int]
    impossible: frozenset[int]
    unexplained_misses: frozenset[int]


# ----------------------------------------------------------------------
# Temporal-connectivity classes
# ----------------------------------------------------------------------


class ConnectivityClass(Enum):
    """The temporal-connectivity classes a finite observation can tell
    apart, strongest first.  *Recurrently connected* (every disconnection
    heals) and *eventually connected* coincide on a finite observation:
    both hold exactly when the last snapshot is connected.

    T-interval connectivity (Kuhn–Lynch–Oshman: every ``T`` consecutive
    snapshots share a connected spanning subgraph) is reported as
    :attr:`ConnectivityVerdict.max_interval`; for ``T >= 2`` it is
    *stronger* than always connected, which is ``T = 1``.
    """

    ALWAYS = "always connected"
    RECURRENT = "recurrently connected"
    DISCONNECTED = "not eventually connected"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ConnectivityVerdict:
    """Result of classifying a snapshot sequence."""

    klass: ConnectivityClass
    #: Largest T for which the sequence is T-interval connected (0 if none).
    max_interval: int
    connected_fraction: float
    first_connected_suffix: int | None

    def __str__(self) -> str:
        return (
            f"{self.klass} (max T={self.max_interval}, "
            f"{self.connected_fraction:.0%} of snapshots connected)"
        )


def classify_snapshots(snapshots: Sequence[Topology]) -> ConnectivityVerdict:
    """Classify a snapshot sequence (e.g. :meth:`Run.snapshots`).

    Like the arrival classes, the verdict states consistency with the
    class over the observation window.
    """
    if not snapshots:
        raise ConfigurationError("cannot classify an empty snapshot sequence")
    connected = [snap.is_connected() and len(snap) > 0 for snap in snapshots]
    fraction = sum(connected) / len(connected)

    # Largest T-interval connectivity (0 when even T=1 fails).
    max_interval = 0
    for window in range(1, len(snapshots) + 1):
        if not interval_connectivity(snapshots, window):
            break
        max_interval = window

    # First index from which every snapshot is connected.
    suffix = len(connected)
    while suffix and connected[suffix - 1]:
        suffix -= 1

    if suffix == 0:
        klass = ConnectivityClass.ALWAYS
    elif suffix < len(connected):
        klass = ConnectivityClass.RECURRENT
    else:
        klass, suffix = ConnectivityClass.DISCONNECTED, None
    return ConnectivityVerdict(klass, max_interval, fraction, suffix)


def interval_connectivity(snapshots: Sequence[Topology], window: int) -> bool:
    """Check T-interval connectivity over a sequence of graph snapshots.

    The sequence is T-interval connected if every ``window`` consecutive
    snapshots share a connected spanning subgraph over their common nodes.
    ``window = 1`` degenerates to "each snapshot is connected".
    """
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if not snapshots:
        return True
    for start in range(0, max(1, len(snapshots) - window + 1)):
        group = snapshots[start:start + window]
        common_nodes = set.intersection(*(set(snap.nodes()) for snap in group))
        if len(common_nodes) <= 1:
            continue
        # An edge in every snapshot has both endpoints in every snapshot.
        common_edges = set.intersection(*(set(snap.edges()) for snap in group))
        if not Topology(nodes=common_nodes, edges=common_edges).is_connected():
            return False
    return True
