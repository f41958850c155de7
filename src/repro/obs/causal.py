"""Happens-before analysis: the causal structure behind a trace.

The paper's solvability arguments are *causal* arguments: a one-time query
can only be answered correctly if the answer causally depends on the state
of every live entity — and under churn the adversary can keep some live
entity outside the querier's causal past forever.  This module makes that
argument inspectable per trial: it rebuilds the happens-before partial
order (Lamport's relation, specialised to this simulator's event
vocabulary) from any trace stream and answers causal-past / causal-future /
influence queries about it.

The DAG is built from two edge families:

* **program order** — for each entity, its events in record order (joins,
  sends, deliveries, timer firings, protocol milestones, its departure).
  A ``join`` event is also threaded into the program order of the
  neighbors it attaches to, because those processes observe the arrival
  (the ``on_neighbor_join`` callback); ``edge_up``/``edge_down`` events
  thread into both endpoints for the same reason.
* **message order** — every ``deliver`` (and ``drop`` / ``msg_lost``) is
  preceded by its ``send``, matched on the trace's per-simulation
  ``msg_id``, so a message lost in transit still appears in its sender's
  causal structure — distinguishable from one that was never sent.

Both families only ever point from earlier record positions to later ones,
so the result is a DAG and longest-path depths are a single forward pass.

Build one from a live :class:`~repro.sim.trace.TraceLog` that retained
everything (a raw ``Simulator``, or a trial run with
``trace_sink="memory"``) or from a streamed JSONL file — the two yield the
identical DAG for the same trial, which is covered by tests::

    outcome = run_query(QueryConfig(..., trace_sink="memory"))
    dag = HappensBeforeDAG.from_trace(outcome.trace)
    dag = HappensBeforeDAG.from_jsonl("trial.jsonl")
    report = dag.influence()          # the first returned query
    report.outside_causal_past       # live entities the verdict never saw
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.runs import Run
from repro.sim import trace as tr
from repro.sim.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace -> obs)
    from repro.sim.trace import TraceEvent, TraceLog

#: Event kinds whose ``data`` carries endpoints rather than an ``entity``.
_EDGE_KINDS = ("edge_up", "edge_down")


def owners_of(event: TraceEvent) -> tuple[int, ...]:
    """The entities whose *state* the event reflects.

    ``send`` belongs to the sender, ``deliver`` to the receiver, ``drop``
    to nobody (the message died in the network), topology events to both
    endpoints, and everything recorded through
    :meth:`repro.sim.node.Process.record` to its ``entity``.
    """
    if event.kind == tr.SEND:
        return (event["sender"],)
    if event.kind == tr.DELIVER:
        return (event["receiver"],)
    if event.kind == tr.DROP:
        return ()
    if event.kind in _EDGE_KINDS:
        return (event["a"], event["b"])
    entity = event.get("entity")
    if entity is None:
        return ()
    return (int(entity),)


def threads_of(event: TraceEvent) -> tuple[int, ...]:
    """The program-order lanes the event participates in.

    Superset of :func:`owners_of`: a ``join`` also threads into the lanes
    of the neighbors it attached to, because they observe the arrival.
    """
    owners = owners_of(event)
    if event.kind == tr.JOIN:
        neighbors = event.get("neighbors") or ()
        return owners + tuple(int(n) for n in neighbors)
    return owners


@dataclass(frozen=True)
class InfluenceReport:
    """Causal accounting of one query verdict.

    Attributes:
        qid: the query id the report is about.
        querier: the entity that issued (and returned) the query.
        issue_time / verdict_time: when the query was issued / returned.
        verdict_index: DAG index of the ``query_returned`` event.
        causal_depth: length of the longest happens-before chain ending at
            the verdict — how many sequential causal steps the answer took.
        past_events: number of events in the verdict's causal past
            (including the verdict itself).
        influencing_entities: entities with at least one event in the
            verdict's causal past — exactly the entities whose state could
            have influenced the answer.
        present_at_verdict: entities present in the system at verdict time.
        outside_causal_past: live entities the verdict does *not* causally
            depend on.  Non-empty means no protocol run along this causal
            structure could have counted them — the paper's unsolvability
            witness, per trial.
    """

    qid: int
    querier: int
    issue_time: float
    verdict_time: float
    verdict_index: int
    causal_depth: int
    past_events: int
    influencing_entities: frozenset[int]
    present_at_verdict: frozenset[int]
    outside_causal_past: frozenset[int]

    @property
    def covers_all_live(self) -> bool:
        """Did the answer causally depend on every live entity?"""
        return not self.outside_causal_past

    def __str__(self) -> str:
        coverage = "covers all live entities" if self.covers_all_live else (
            f"misses {len(self.outside_causal_past)} live entities "
            f"{sorted(self.outside_causal_past)}"
        )
        return (
            f"query {self.qid} by {self.querier}: verdict at "
            f"t={self.verdict_time:.2f}, causal depth {self.causal_depth}, "
            f"past of {self.past_events} events over "
            f"{len(self.influencing_entities)} entities; {coverage}"
        )


class HappensBeforeDAG:
    """The happens-before partial order over one trace's events.

    Indices are positions in the event sequence handed to the constructor
    (record order).  Every edge points from a lower index to a higher one.
    """

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self.events: list[TraceEvent] = list(events)
        n = len(self.events)
        self._succ: list[list[int]] = [[] for _ in range(n)]
        self._pred: list[list[int]] = [[] for _ in range(n)]
        self.program_edges = 0
        self.message_edges = 0
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_trace(cls, log: TraceLog | Iterable[TraceEvent]) -> "HappensBeforeDAG":
        """Build from a trace log (or any event iterable) in record order.

        A :class:`TraceLog` whose sink dropped events is refused (the DAG
        would lack transport edges): analyse ``trace_sink="memory"`` logs
        or streamed JSONL files.
        """
        tr.require_complete(log, "HappensBeforeDAG.from_trace")
        return cls(log)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "HappensBeforeDAG":
        """Build from a JSONL trace file (saved or streamed)."""
        return cls(tr.TraceLog.load_jsonl(path))

    def _add_edge(self, src: int, dst: int) -> None:
        if src == dst:
            return
        self._succ[src].append(dst)
        self._pred[dst].append(src)

    def _build(self) -> None:
        last_in_lane: dict[int, int] = {}
        send_index: dict[int, int] = {}
        for i, event in enumerate(self.events):
            for lane in threads_of(event):
                prev = last_in_lane.get(lane)
                if prev is not None and prev != i:
                    self._add_edge(prev, i)
                    self.program_edges += 1
                last_in_lane[lane] = i
            if event.kind == tr.SEND:
                msg_id = event.get("msg_id")
                if msg_id is not None:
                    send_index[msg_id] = i
            elif event.kind in (tr.DELIVER, tr.DROP, tr.MSG_LOST):
                src = send_index.get(event.get("msg_id"))
                if src is not None:
                    self._add_edge(src, i)
                    self.message_edges += 1

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def edge_count(self) -> int:
        return self.program_edges + self.message_edges

    def successors(self, index: int) -> tuple[int, ...]:
        """Immediate happens-before successors of event ``index``."""
        return tuple(self._succ[index])

    def predecessors(self, index: int) -> tuple[int, ...]:
        """Immediate happens-before predecessors of event ``index``."""
        return tuple(self._pred[index])

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """All edges as ``(src, dst)`` index pairs (for DAG comparison)."""
        return frozenset(
            (src, dst) for src, succ in enumerate(self._succ) for dst in succ
        )

    def causal_past(self, index: int) -> frozenset[int]:
        """Indices of events that happen-before ``index``, inclusive."""
        return self._closure(index, self._pred)

    def causal_future(self, index: int) -> frozenset[int]:
        """Indices of events that ``index`` happens-before, inclusive."""
        return self._closure(index, self._succ)

    def _closure(self, index: int, adjacency: list[list[int]]) -> frozenset[int]:
        if not 0 <= index < len(self.events):
            raise ConfigurationError(
                f"event index {index} out of range 0..{len(self.events) - 1}"
            )
        seen = {index}
        frontier = [index]
        while frontier:
            node = frontier.pop()
            for other in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return frozenset(seen)

    def concurrent(self, a: int, b: int) -> bool:
        """Are events ``a`` and ``b`` causally unordered?"""
        if a == b:
            return False
        return b not in self.causal_future(a) and b not in self.causal_past(a)

    def depth(self, index: int) -> int:
        """Longest happens-before chain ending at ``index`` (edge count)."""
        past = self.causal_past(index)
        depths: dict[int, int] = {}
        for i in sorted(past):
            preds = [depths[p] for p in self._pred[i] if p in depths]
            depths[i] = max(preds, default=-1) + 1
        return depths[index]

    def entities_in(self, indices: Iterable[int]) -> frozenset[int]:
        """Entities owning at least one of the given events."""
        owners: set[int] = set()
        for i in indices:
            owners.update(owners_of(self.events[i]))
        return frozenset(owners)

    # ------------------------------------------------------------------
    # Query influence
    # ------------------------------------------------------------------

    def query_indices(self) -> dict[int, tuple[int | None, int | None]]:
        """``{qid: (issue_index, return_index)}`` for every query seen."""
        queries: dict[int, tuple[int | None, int | None]] = {}
        for i, event in enumerate(self.events):
            if event.kind == "query_issued":
                issue, ret = queries.get(event["qid"], (None, None))
                queries[event["qid"]] = (i if issue is None else issue, ret)
            elif event.kind == "query_returned":
                issue, ret = queries.get(event["qid"], (None, None))
                queries[event["qid"]] = (issue, i if ret is None else ret)
        return queries

    def verdict_index(self, qid: int | None = None) -> int:
        """Index of the ``query_returned`` event for ``qid`` (or the first
        returned query when ``qid`` is ``None``)."""
        queries = self.query_indices()
        candidates = sorted(
            q for q, (_, ret) in queries.items() if ret is not None
        )
        if qid is None:
            if not candidates:
                raise ConfigurationError("trace contains no returned query")
            qid = candidates[0]
        entry = queries.get(qid)
        if entry is None or entry[1] is None:
            raise ConfigurationError(
                f"query {qid} never returned in this trace"
                + (f"; returned qids: {candidates}" if candidates else "")
            )
        return entry[1]

    def influence(self, qid: int | None = None) -> InfluenceReport:
        """Causal accounting of one query's verdict; see
        :class:`InfluenceReport`."""
        verdict_index = self.verdict_index(qid)
        verdict = self.events[verdict_index]
        issue_index, _ = self.query_indices()[verdict["qid"]]
        issue_time = (
            self.events[issue_index].time
            if issue_index is not None
            else verdict.time
        )
        past = self.causal_past(verdict_index)
        influencing = self.entities_in(past)
        live = Run.from_trace(self.events).present_at(verdict.time)
        return InfluenceReport(
            qid=verdict["qid"],
            querier=verdict["entity"],
            issue_time=issue_time,
            verdict_time=verdict.time,
            verdict_index=verdict_index,
            causal_depth=self.depth(verdict_index),
            past_events=len(past),
            influencing_entities=influencing,
            present_at_verdict=live,
            outside_causal_past=live - influencing,
        )

    def __repr__(self) -> str:
        return (
            f"HappensBeforeDAG(events={len(self.events)}, "
            f"program_edges={self.program_edges}, "
            f"message_edges={self.message_edges})"
        )
