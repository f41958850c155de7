"""The one-time query wave protocol.

The paper's canonical problem solved by the canonical technique: a
query wave floods outward from the querier, an echo convergecast folds the
values back along the spanning tree the wave carves out.  One protocol, two
termination disciplines — the two halves of the geography dimension:

* **TTL mode** (``ttl`` given): the wave stops after ``ttl`` hops.  This is
  the open-loop discipline that *consumes* global knowledge: with
  ``G_known_diameter`` set ``ttl = D``; with ``G_known_size`` set
  ``ttl = N - 1``.  An undersized TTL silently truncates the wave — the E7
  diagonalisation.
* **Echo mode** (``ttl=None``): the wave floods without bound and relies
  purely on the closed-loop echo for termination.  No global parameter is
  needed, but the discipline leans on reliable channels and neighbor-leave
  notifications; under churn a relay's departure can orphan a whole visited
  subtree (the contributions are lost, completeness suffers — E4/E5/E6).

An optional querier ``deadline`` adds the quiescence-style fallback: return
whatever has been folded in when the budget expires.

Duplicate suppression follows the classical propagation-of-information-with-
feedback scheme: the first copy of the query adopts the sender as parent;
every later copy is answered immediately with a DECLINE so the sender never
waits on a non-child.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.aggregates import Aggregate, SET
from repro.protocols.base import AggregatingProcess, merge_contributions
from repro.sim.events import Event
from repro.sim.messages import Message

WAVE_QUERY = "WAVE_QUERY"
WAVE_ECHO = "WAVE_ECHO"
WAVE_DECLINE = "WAVE_DECLINE"

#: Payload encoding of "no TTL bound" (echo mode).
UNBOUNDED = -1


@dataclass
class _WaveState:
    """Per-wave state held by each visited node."""

    qid: int
    parent: int | None
    pending: set[int]
    contributions: dict[int, Any]
    closed: bool = False
    # Origin-only: the query the origin resolves when the wave completes
    # (or the deadline fires).  Data, not a callback: a closure over the
    # querier would make the querier a reference cycle.
    aggregate: Aggregate | None = None
    issued_at: float = 0.0
    deadline_timer: Event | None = None
    extra: dict[str, Any] = field(default_factory=dict)


class WaveNode(AggregatingProcess):
    """A process speaking the wave protocol (relay and/or querier)."""

    # A leave matters to the wave only while a wave it waits on is open
    # here, so a plain wave node hears leaves (``_hears_leaves``, per
    # instance) only then.  A subclass with its own ``on_neighbor_leave``
    # (a failure detector, a churn estimator) hears them always.
    _idle_hears_leaves = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._idle_hears_leaves = (
            cls.on_neighbor_leave is not WaveNode.on_neighbor_leave
        )

    def __init__(self, value: Any = None) -> None:
        # ``Process.__init__`` and ``AggregatingProcess.__init__``, inline:
        # replacement churn builds one node per event, and this makes it
        # one frame (see "Per-event budget" in docs/SCALING.md).  The chain
        # stops here; a subclass with a second base calls that base's
        # ``__init__`` itself (``FaultTolerantWaveNode``).
        self.pid = -1
        self.value = value
        self._sim = None
        self._alive = False
        self.results = []
        # Every wave that reached this node, closed ones included: a
        # later copy of a query is declined by its qid.
        self._states: dict[int, _WaveState] = {}
        self._open_waves = 0
        self._hears_leaves = self._idle_hears_leaves
        #: Count of subtrees lost because the parent departed before the
        #: echo could be reported (diagnostic, also traced).
        self.orphaned_subtrees = 0

    # ------------------------------------------------------------------
    # Querier side
    # ------------------------------------------------------------------

    def issue_query(
        self,
        aggregate: Aggregate = SET,
        ttl: int | None = None,
        deadline: float | None = None,
    ) -> int:
        """Launch a wave; returns the query id.

        Args:
            aggregate: the aggregate to compute.
            ttl: hop budget (open-loop mode), or ``None`` for echo mode.
            deadline: optional time budget for a partial return.
        """
        qid = self.announce_query(aggregate)
        state = _WaveState(
            qid=qid,
            parent=None,
            pending=set(),
            contributions={self.pid: self.value},
            aggregate=aggregate,
            issued_at=self.now,
        )
        self._open(state)
        wire_ttl = UNBOUNDED if ttl is None else ttl
        if wire_ttl != 0:
            child_ttl = UNBOUNDED if wire_ttl == UNBOUNDED else wire_ttl - 1
            for neighbor in sorted(self.neighbors()):
                self.send(neighbor, WAVE_QUERY, qid=qid, ttl=child_ttl, hops=1)
                state.pending.add(neighbor)
        if deadline is not None:
            state.deadline_timer = self.set_timer(deadline, "wave-deadline", qid)
        self._check_complete(state)
        return qid

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if message.kind == WAVE_QUERY:
            self._handle_query(message)
        elif message.kind == WAVE_ECHO:
            self._handle_echo(message)
        elif message.kind == WAVE_DECLINE:
            self._handle_decline(message)

    def _handle_query(self, message: Message) -> None:
        qid = message.payload["qid"]
        ttl = message.payload["ttl"]
        if qid in self._states:
            if message.sender in self.neighbors():
                self.send(message.sender, WAVE_DECLINE, qid=qid)
            return
        state = _WaveState(
            qid=qid,
            parent=message.sender,
            pending=set(),
            contributions={self.pid: self.value},
        )
        self._open(state)
        if ttl != 0:
            child_ttl = UNBOUNDED if ttl == UNBOUNDED else ttl - 1
            # hop depth travels with the query so the network can histogram
            # deliveries by hop count (obs: net.delivery_hops).
            hops = message.payload.get("hops", 1)
            for neighbor in sorted(self.neighbors() - {message.sender}):
                self.send(neighbor, WAVE_QUERY, qid=qid, ttl=child_ttl, hops=hops + 1)
                state.pending.add(neighbor)
        self._check_complete(state)

    def _handle_echo(self, message: Message) -> None:
        state = self._states.get(message.payload["qid"])
        if state is None or state.closed:
            return
        merge_contributions(state.contributions, message.payload["contributions"])
        state.pending.discard(message.sender)
        self._check_complete(state)

    def _handle_decline(self, message: Message) -> None:
        state = self._states.get(message.payload["qid"])
        if state is None or state.closed:
            return
        state.pending.discard(message.sender)
        self._check_complete(state)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _open(self, state: _WaveState) -> None:
        self._states[state.qid] = state
        self._open_waves += 1
        self._hears_leaves = True

    def _check_complete(self, state: _WaveState) -> None:
        if state.closed or state.pending:
            return
        self._close(state)

    def _close(self, state: _WaveState) -> None:
        """Fold this node's subtree result upward (or resolve at origin)."""
        state.closed = True
        self._open_waves -= 1
        if not self._open_waves:
            self._hears_leaves = self._idle_hears_leaves
        if state.aggregate is not None:  # the origin
            if state.deadline_timer is not None:
                self.cancel_timer(state.deadline_timer)
            unreachable = state.extra.get("unreachable")
            if unreachable:
                # Degraded completion: the delivery layer gave up on some
                # children, so this answer is explicitly partial.  The
                # engine pairs this with a full CoverageReport.
                self.record(
                    "query_partial",
                    qid=state.qid,
                    unreachable=tuple(sorted(unreachable)),
                )
            self.resolve_query(
                state.qid, state.aggregate, state.contributions, state.issued_at
            )
            return
        if state.parent is not None and state.parent in self.neighbors():
            self.send(
                state.parent,
                WAVE_ECHO,
                qid=state.qid,
                contributions=sorted(state.contributions.items()),
            )
        else:
            # The parent departed: this entire visited subtree's values are
            # lost to the query. This is the churn failure mode E4/E5 count.
            self.orphaned_subtrees += 1
            self.record(
                "orphaned_echo",
                qid=state.qid,
                lost=len(state.contributions),
            )

    # ------------------------------------------------------------------
    # Environment events
    # ------------------------------------------------------------------

    def on_timer(self, name: str, payload: Any) -> None:
        if name == "wave-deadline":
            state = self._states.get(payload)
            if state is not None and not state.closed:
                state.pending.clear()
                self._close(state)

    def on_neighbor_leave(self, pid: int) -> None:
        if not self._open_waves:
            return
        for state in list(self._states.values()):
            if state.closed:
                continue
            if pid in state.pending:
                # The child departed; it can no longer echo. Its values (if
                # it had folded any) are lost — count it as answered-empty.
                state.pending.discard(pid)
                self._check_complete(state)

    def on_delivery_abandoned(self, message: Message) -> None:
        # The resilience layer gave up on one of our wave messages: stop
        # waiting on the unreachable peer instead of hanging.  Only the
        # *sender* learns of abandonment; a peer stuck waiting on us is
        # unblocked by its own failure detector, never by this hook.
        qid = message.payload.get("qid")
        if qid is None:
            return
        state = self._states.get(qid)
        if state is None:
            return
        if message.kind == WAVE_ECHO:
            # Our folded subtree never reached the parent — the same loss
            # mode as a parent departure, discovered the slow way.
            self.orphaned_subtrees += 1
            self.record("orphaned_echo", qid=qid, lost=len(state.contributions))
            return
        if state.closed:
            return
        if message.kind == WAVE_QUERY and message.receiver in state.pending:
            state.pending.discard(message.receiver)
            state.extra.setdefault("unreachable", set()).add(message.receiver)
            self.record("wave_unreachable", qid=qid, target=message.receiver)
            self._check_complete(state)
