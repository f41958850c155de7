"""Request/collect: the baseline protocol for complete knowledge.

In ``G_complete`` every process can address every member directly.  The
querier sends a request to each current member and collects responses; a
member that departs before responding is struck from the expected set via
the neighbor-leave notification (in the complete graph, every membership
change is visible to everyone).  An optional deadline returns a partial
result if responses stall — the knob that turns the protocol from the
static-system setting (no deadline needed) into a best-effort one under
churn (E10's conditional entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.aggregates import Aggregate, SET
from repro.protocols.base import AggregatingProcess
from repro.sim.events import Event
from repro.sim.messages import Message

REQUEST = "RC_REQUEST"
RESPONSE = "RC_RESPONSE"


@dataclass
class _PendingQuery:
    qid: int
    aggregate: Aggregate
    issued_at: float
    expected: set[int]
    contributions: dict[int, Any]
    deadline_timer: Event | None = None
    done: bool = False
    extra: dict[str, Any] = field(default_factory=dict)


class RequestCollectNode(AggregatingProcess):
    """A member that answers requests and can itself issue queries."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self._pending: dict[int, _PendingQuery] = {}

    # ------------------------------------------------------------------
    # Querier side
    # ------------------------------------------------------------------

    def issue_query(
        self, aggregate: Aggregate = SET, deadline: float | None = None
    ) -> int:
        """Ask every current member for its value; returns the query id.

        Args:
            aggregate: which aggregate to compute.
            deadline: optional time budget after which a partial result is
                returned; ``None`` waits for every (still-present) member.
        """
        qid = self.announce_query(aggregate)
        targets = self.neighbors()
        query = _PendingQuery(
            qid=qid,
            aggregate=aggregate,
            issued_at=self.now,
            expected=set(targets),
            contributions={self.pid: self.value},
        )
        self._pending[qid] = query
        for target in sorted(targets):
            self.send(target, REQUEST, qid=qid)
        if deadline is not None:
            query.deadline_timer = self.set_timer(deadline, "rc-deadline", qid)
        self._maybe_finish(query)
        return qid

    def _maybe_finish(self, query: _PendingQuery) -> None:
        if query.done or query.expected:
            return
        self._finish(query)

    def _finish(self, query: _PendingQuery) -> None:
        query.done = True
        if query.deadline_timer is not None:
            self.cancel_timer(query.deadline_timer)
        self.resolve_query(
            query.qid, query.aggregate, query.contributions, query.issued_at
        )
        del self._pending[query.qid]

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if message.kind == REQUEST:
            # Respond only if the requester is still reachable.
            if message.sender in self.neighbors():
                self.send(
                    message.sender,
                    RESPONSE,
                    qid=message.payload["qid"],
                    value=self.value,
                )
        elif message.kind == RESPONSE:
            query = self._pending.get(message.payload["qid"])
            if query is None or query.done:
                return
            query.contributions.setdefault(message.sender, message.payload["value"])
            query.expected.discard(message.sender)
            self._maybe_finish(query)

    def on_timer(self, name: str, payload: Any) -> None:
        if name == "rc-deadline":
            query = self._pending.get(payload)
            if query is not None and not query.done:
                self._finish(query)

    def on_neighbor_leave(self, pid: int) -> None:
        # A departed member is, by definition, not in the stable core of any
        # window extending past its departure; stop waiting for it.
        for query in list(self._pending.values()):
            if pid in query.expected:
                query.expected.discard(pid)
                self._maybe_finish(query)
