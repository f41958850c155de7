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

from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.runs import Run
from repro.sim import trace as tr
from repro.sim.errors import ConfigurationError

#: ``{qid: (first issue index, first return index)}``.
_Queries = dict[int, tuple[int | None, int | None]]


def happens_before(events: Iterable[tr.TraceEvent]) -> Iterator[tuple[int, int, bool]]:
    """Every happens-before edge ``(src, dst, is_message)`` between record
    positions ``src < dst``, in ``dst`` order.  **Program order**: per
    event, an edge from the previous event of each lane in
    :func:`~repro.sim.trace.lanes_of` (two lanes may repeat one).
    **Message order**: the event that opens a message → each event that
    ends it, matched on ``msg_id``, so a message lost in transit still
    shows in its sender's causal structure (:data:`~repro.sim.trace.MESSAGE`)."""
    last_in_lane: dict[int, int] = {}
    opened_at: dict[int, int] = {}
    present: set[int] = set()
    for i, event in enumerate(events):
        for lane in tr.lanes_of(event, present):
            prev = last_in_lane.get(lane)
            if prev is not None and prev != i:
                yield prev, i, False
            last_in_lane[lane] = i
        tr.track(present, event)
        role = tr.MESSAGE.get(event.kind)
        if role == tr.OPENS:
            msg_id = event.get("msg_id")
            if msg_id is not None:
                opened_at[msg_id] = i
        elif role == tr.ENDS:
            src = opened_at.get(event.get("msg_id"))
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
        influencing = frozenset(o for i in past for o in tr.owners_of(events[i]))
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
