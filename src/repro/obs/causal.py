"""Happens-before analysis: the causal structure behind a trace.

The paper's solvability arguments are causal: a one-time query is answered
correctly only if its verdict causally depends on every live entity, and
under churn the adversary can keep some live entity outside the querier's
causal past forever.  This module makes that inspectable per trial.  The
happens-before relation (Lamport's, over this simulator's event vocabulary)
is never stored: :func:`happens_before` states its edge rule once and every
query is a pass over its edges.  A memory-sink trace and a JSONL file of
the same trial give the same report::

    report = InfluenceReport.from_trace(outcome.trace)  # lowest returned qid
    report = InfluenceReport.from_jsonl("trial.jsonl", qid=0)
    report.outside_causal_past       # live entities the verdict never saw
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.runs import Run
from repro.sim import trace as tr
from repro.sim.errors import ConfigurationError

#: The ``data`` fields naming the owners of the kinds that have no ``entity``.
_OWNER_FIELDS = {tr.SEND: ("sender",), tr.DELIVER: ("receiver",), tr.DROP: (),
                 "edge_up": ("a", "b"), "edge_down": ("a", "b")}
#: ``{qid: (first issue index, first return index)}``.
_Queries = dict[int, tuple[int | None, int | None]]


def owners_of(event: tr.TraceEvent) -> tuple[int, ...]:
    """The entities whose *state* the event reflects: a ``send``'s sender,
    a ``deliver``'s receiver, nobody for a ``drop`` (the message died in
    the network), both endpoints of a topology event, and otherwise the
    ``entity`` that :meth:`repro.sim.node.Process.record` wrote."""
    fields = _OWNER_FIELDS.get(event.kind)
    if fields is not None:
        return tuple(event[field] for field in fields)
    entity = event.get("entity")
    return () if entity is None else (int(entity),)


def threads_of(event: tr.TraceEvent) -> tuple[int, ...]:
    """The program-order lanes of the event: its :func:`owners_of`, and for
    a ``join`` also the neighbors it attached to (they observe it)."""
    if event.kind == tr.JOIN:
        return owners_of(event) + tuple(int(n) for n in event.get("neighbors") or ())
    return owners_of(event)


def happens_before(events: Iterable[tr.TraceEvent]) -> Iterator[tuple[int, int, bool]]:
    """Every happens-before edge ``(src, dst, is_message)`` between record
    positions ``src < dst``, in ``dst`` order.  **Program order**: per
    event, an edge from the previous event of each lane in
    :func:`threads_of` (two lanes may repeat one).  **Message order**:
    ``send`` → its ``deliver``/``drop``/``msg_lost``, matched on
    ``msg_id``, so a message lost in transit still shows in its sender's
    causal structure."""
    last_in_lane: dict[int, int] = {}
    send_index: dict[int, int] = {}
    for i, event in enumerate(events):
        for lane in threads_of(event):
            prev = last_in_lane.get(lane)
            if prev is not None and prev != i:
                yield prev, i, False
            last_in_lane[lane] = i
        if event.kind == tr.SEND:
            msg_id = event.get("msg_id")
            if msg_id is not None:
                send_index[msg_id] = i
        elif event.kind in (tr.DELIVER, tr.DROP, tr.MSG_LOST):
            src = send_index.get(event.get("msg_id"))
            if src is not None:
                yield src, i, True


def _in_range(events: Sequence[tr.TraceEvent], index: int) -> int:
    if 0 <= index < len(events):
        return index
    raise ConfigurationError(f"event index {index} out of range 0..{len(events) - 1}")


def _past_and_depth(events: Sequence[tr.TraceEvent],
                    index: int) -> tuple[frozenset[int], int]:
    """The causal past of ``index`` (inclusive), one backward pass over the
    edges ending by it; then its depth, one forward pass over that past."""
    edges = list(happens_before(islice(events, _in_range(events, index) + 1)))
    past = {index}
    for src, dst, _ in reversed(edges):
        if dst in past:
            past.add(src)
    depths = dict.fromkeys(past, 0)
    for src, dst, _ in edges:
        if dst in past and depths[src] >= depths[dst]:
            depths[dst] = depths[src] + 1
    return frozenset(past), depths[index]


def _query_indices(events: Iterable[tr.TraceEvent]) -> _Queries:
    queries: _Queries = {}
    for i, event in enumerate(events):
        if event.kind in ("query_issued", "query_returned"):
            issue, ret = queries.get(event["qid"], (None, None))
            if event.kind == "query_issued" and issue is None:
                issue = i
            elif event.kind == "query_returned" and ret is None:
                ret = i
            queries[event["qid"]] = (issue, ret)
    return queries


def _verdict(queries: _Queries, qid: int | None) -> tuple[int | None, int]:
    """``(issue index, return index)`` of ``qid``, or of the lowest returned qid."""
    returned = sorted(q for q, (_, ret) in queries.items() if ret is not None)
    if qid is None and not returned:
        raise ConfigurationError("trace contains no returned query")
    entry = queries.get(returned[0] if qid is None else qid, (None, None))
    if entry[1] is None:
        raise ConfigurationError(f"query {qid} never returned in this trace"
                                 + (f"; returned qids: {returned}" if returned else ""))
    return entry


@dataclass(frozen=True)
class InfluenceReport:
    """Causal accounting of one query verdict: ``verdict_index`` is the
    record position of its ``query_returned``, ``causal_depth`` the longest
    happens-before chain ending there, ``past_events`` the size of its
    causal past (verdict included), ``influencing_entities`` the owners of
    the events in it.  A non-empty ``outside_causal_past`` (live at the
    verdict, outside that past) is the paper's unsolvability witness: no
    protocol run along this causal structure could have counted them."""

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

    @classmethod
    def from_trace(cls, source: tr.TraceLog | Iterable[tr.TraceEvent],
                   qid: int | None = None) -> InfluenceReport:
        """The report on ``qid`` (default: the lowest returned qid).  A
        :class:`TraceLog` whose sink dropped events is refused: analyse
        ``trace_sink="memory"`` logs or streamed JSONL files."""
        tr.require_complete(source, "InfluenceReport.from_trace")
        events = list(source)
        issue, index = _verdict(_query_indices(events), qid)
        verdict = events[index]
        past, depth = _past_and_depth(events, index)
        influencing = frozenset(o for i in past for o in owners_of(events[i]))
        live = Run.from_trace(events).present_at(verdict.time)
        return cls(
            qid=verdict["qid"], querier=verdict["entity"],
            issue_time=verdict.time if issue is None else events[issue].time,
            verdict_time=verdict.time, verdict_index=index, causal_depth=depth,
            past_events=len(past), influencing_entities=influencing,
            present_at_verdict=live, outside_causal_past=live - influencing,
        )

    @classmethod
    def from_jsonl(cls, path: str | Path, qid: int | None = None) -> InfluenceReport:
        """:meth:`from_trace` over a JSONL trace file (saved or streamed)."""
        return cls.from_trace(tr.TraceLog.load_jsonl(path), qid)

    @property
    def covers_all_live(self) -> bool:
        """Did the answer causally depend on every live entity?"""
        return not self.outside_causal_past

    def __str__(self) -> str:
        missed = sorted(self.outside_causal_past)
        coverage = (f"misses {len(missed)} live entities {missed}" if missed
                    else "covers all live entities")
        return (f"query {self.qid} by {self.querier}: verdict at "
                f"t={self.verdict_time:.2f}, causal depth {self.causal_depth}, "
                f"past of {self.past_events} events over "
                f"{len(self.influencing_entities)} entities; {coverage}")


class HappensBeforeDAG:
    """Deprecated: use :meth:`InfluenceReport.from_trace` (goes next release)."""

    def __init__(self, events: Iterable[tr.TraceEvent]) -> None:
        warnings.warn("HappensBeforeDAG is deprecated; use InfluenceReport.from_trace",
                      DeprecationWarning, stacklevel=2)
        self.events: list[tr.TraceEvent] = list(events)
        flags = [message for *_, message in happens_before(self.events)]
        self.message_edges, self.program_edges = sum(flags), flags.count(False)

    @classmethod
    def from_trace(cls, log: tr.TraceLog | Iterable[tr.TraceEvent]) -> HappensBeforeDAG:
        tr.require_complete(log, "HappensBeforeDAG.from_trace")
        return cls(log)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> HappensBeforeDAG:
        return cls(tr.TraceLog.load_jsonl(path))

    def __len__(self) -> int:
        return len(self.events)

    def successors(self, index: int) -> tuple[int, ...]:
        return tuple(d for s, d, _ in happens_before(self.events) if s == index)
    def predecessors(self, index: int) -> tuple[int, ...]:
        return tuple(s for s, d, _ in happens_before(self.events) if d == index)
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((s, d) for s, d, _ in happens_before(self.events))

    def causal_past(self, index: int) -> frozenset[int]:
        return _past_and_depth(self.events, index)[0]
    def depth(self, index: int) -> int:
        return _past_and_depth(self.events, index)[1]

    def causal_future(self, index: int) -> frozenset[int]:
        future = {_in_range(self.events, index)}
        for src, dst, _ in happens_before(self.events):
            if src in future:
                future.add(dst)
        return frozenset(future)

    def concurrent(self, a: int, b: int) -> bool:
        return a != b and b not in self.causal_future(a) | self.causal_past(a)

    def query_indices(self) -> _Queries:
        return _query_indices(self.events)
    def verdict_index(self, qid: int | None = None) -> int:
        return _verdict(_query_indices(self.events), qid)[1]
    def influence(self, qid: int | None = None) -> InfluenceReport:
        return InfluenceReport.from_trace(self.events, qid)
