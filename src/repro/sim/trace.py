"""Structured trace recording.

Every observable fact about a simulation — membership changes, message
sends, deliveries and drops, protocol milestones — is appended to a
:class:`TraceLog`.  The formal layer (:mod:`repro.core`) consumes traces to
build *runs* and to check problem specifications, so the trace is the single
source of truth connecting the simulator to the paper's definitions.  What
each substrate kind means — its owners, its effect on membership and on
contacts, its role in a message — is declared once here, in
:data:`OWNER_FIELDS`, :data:`PRESENCE`, :data:`CONTACT` and :data:`MESSAGE`;
``Run``, the causal kernel, the liveness checkers and the exporter read it.

A run is its membership over time, so every log folds the membership and
contact kinds into one :class:`MembershipFold` as they are recorded —
compact columns, not events — and :meth:`repro.core.runs.Run.from_trace`
reads the fold.  Storage of the events themselves is delegated to a
pluggable :class:`repro.obs.sinks.TraceSink`.  A raw :class:`TraceLog`
(and a raw ``Simulator``) defaults to :class:`~repro.obs.sinks.MemorySink`,
which keeps every event in memory; space-saving sinks
(:class:`~repro.obs.sinks.JsonlStreamSink`,
:class:`~repro.obs.sinks.CountingSink`,
:class:`~repro.obs.sinks.NullSink` — the trial configs' default) stream or
drop the high-volume transport events and the folded membership events,
and retain the protocol-milestone events the specification checker
reads.  Per-kind counts are maintained unconditionally, so
:meth:`TraceLog.count` and :meth:`TraceLog.summary` are exact under every
sink; *reading* a kind that was recorded but dropped raises
:class:`~repro.sim.errors.ConfigurationError` instead of returning nothing.
"""

from __future__ import annotations

import json
from array import array
# The C accessor ``collections.namedtuple`` builds its fields from.
from collections import _tuplegetter  # type: ignore[attr-defined]
from pathlib import Path
from typing import Any, Collection, Iterable, Iterator

from repro.obs.codec import JournalScan, decode_value, encode_event
from repro.obs.sinks import MemorySink, TraceSink
from repro.sim.errors import ConfigurationError

# Canonical event kinds written by the substrate.  Protocols are free to
# record additional kinds (e.g. "query_issued").
JOIN = "join"
LEAVE = "leave"
EDGE_UP = "edge_up"
EDGE_DOWN = "edge_down"
SEND = "send"
DELIVER = "deliver"
DROP = "drop"
TIMER = "timer"
# A message that *was* sent but never reached its receiver — emitted next
# to the drop record on the loss and fault paths so causal analysis can
# distinguish "never sent" from "sent and lost in transit".
MSG_LOST = "msg_lost"
# Fault-plane activations (repro.faults): every scheduled fault activation
# records one fault_injected; window closes / link restores record
# fault_cleared.
FAULT_INJECTED = "fault_injected"
FAULT_CLEARED = "fault_cleared"
# Resilience-plane events (repro.resilience): each retransmission of an
# unacknowledged message (high-volume: treated as a transport kind by the
# space-saving sinks), and the bounded give-up after the retry budget is
# exhausted (low-volume: retained by every sink so coverage reports can
# read it back).
RETRANSMIT = "retransmit"
DELIVERY_ABANDONED = "delivery_abandoned"

#: Owner fields: the ``data`` fields naming the entities whose state the
#: event reflects.  Any other kind is owned by its ``entity``.
OWNER_FIELDS: dict[str, tuple[str, ...]] = {
    EDGE_UP: ("a", "b"), EDGE_DOWN: ("a", "b"),
    SEND: ("sender",), DELIVER: ("receiver",), DROP: (),
}
#: Membership effect: the event's ``entity`` enters (+1) or exits (-1).
PRESENCE: dict[str, int] = {JOIN: 1, LEAVE: -1}
#: Contact effect.  A run's contacts are its edge intervals (Casteigts,
#: *Finding Structure in Dynamic Networks*): a join *attaches* to the
#: entities :func:`attached` names, ``edge_up`` *opens* the contact
#: ``(a, b)``, ``edge_down`` *closes* it, and a leave *detaches* its
#: entity from every contact it has.
ATTACH, OPEN, CLOSE, DETACH = "attach", "open", "close", "detach"
CONTACT: dict[str, str] = {JOIN: ATTACH, EDGE_UP: OPEN, EDGE_DOWN: CLOSE, LEAVE: DETACH}
#: Message role, matched on ``msg_id``: a send *opens* a message, and its
#: deliver, drop or msg_lost *ends* it.
OPENS, ENDS = "opens", "ends"
MESSAGE: dict[str, str] = {SEND: OPENS, DELIVER: ENDS, DROP: ENDS, MSG_LOST: ENDS}


def owners_of(event: TraceEvent) -> tuple[int, ...]:
    """The entities whose *state* the event reflects: a ``send``'s sender,
    a ``deliver``'s receiver, nobody for a ``drop`` (the message died in
    the network), both endpoints of a topology event, and otherwise the
    ``entity`` that :meth:`repro.sim.node.Process.record` wrote."""
    data, fields = event.data, OWNER_FIELDS.get(event.kind, ("entity",))
    return tuple(int(data[field]) for field in fields if data.get(field) is not None)


def attached(event: TraceEvent, present: Collection[int]) -> tuple[int, ...]:
    """The entities a join opens a contact with: its ``neighbors`` that are
    ``present`` — or, when the join is flagged ``complete`` (a network
    where everyone is everyone's neighbor), every entity present."""
    if event.get("complete"):
        entity = event["entity"]
        return tuple(other for other in present if other != entity)
    return tuple(other for other in event.get("neighbors", ()) if other in present)


def lanes_of(event: TraceEvent, present: Collection[int]) -> tuple[int, ...]:
    """The program-order lanes the event threads: those of the entities
    it opens a contact with — a join's own and :func:`attached`, an
    ``edge_up``'s endpoints — and otherwise its :func:`owners_of`.  An
    event that only closes a contact (``edge_down``) is no entity's step
    and threads none; it keeps its owners for the exporter's tracks."""
    contact = CONTACT.get(event.kind)
    if contact == CLOSE:
        return ()
    if contact == ATTACH:
        return owners_of(event) + attached(event, present)
    return owners_of(event)


def track(present: set[int], event: TraceEvent) -> int:
    """Apply the event's membership effect to ``present``; return it."""
    effect = PRESENCE.get(event.kind, 0)
    if effect > 0:
        present.add(event["entity"])
    elif effect:
        present.discard(event["entity"])
    return effect


#: A change in :attr:`MembershipFold.kinds`: a leave, a join, a join
#: flagged ``complete`` (it attaches to everyone present), a contact
#: opened (``edge_up``) and a contact closed (``edge_down``).
LEFT, JOINED, JOINED_ALL, OPENED, CLOSED = 0, 1, 2, 3, 4


class MembershipFold:
    """Who is present when, and which contacts open and close: the
    :data:`CONTACT` kinds of one log, folded as they are recorded.

    One entry per change, in record order, across four columns:
    ``times`` (doubles), ``kinds`` (one byte: :data:`LEFT`,
    :data:`JOINED`, :data:`JOINED_ALL`, :data:`OPENED` or :data:`CLOSED`),
    ``entities`` (who joined or left; a contact's ``a``) and ``values``
    (a join's ``value``, ``None`` for a leave; a contact's ``b``).
    ``links`` maps a join's index to the ``neighbors`` it named, for the
    joins that named any.  The fold never judges what it is fed:
    :meth:`repro.core.runs.Run.from_trace` raises on a malformed
    membership sequence.  A reader that wants what was appended since
    some point keeps ``len(fold.kinds)`` as its cursor.

    :meth:`TraceLog.record` is where the fold is fed; the network's join
    and leave make the same appends in place for a kind the sink does not
    observe (keep the three in step).
    """

    __slots__ = ("times", "kinds", "entities", "values", "links")

    def __init__(self) -> None:
        self.times = array("d")
        self.kinds = bytearray()
        self.entities: list[Any] = []
        self.values: list[Any] = []
        self.links: dict[int, tuple[Any, ...]] = {}


_ASK_FOR_MEMORY = 'run with trace_sink="memory" (or load a "jsonl" stream)'

#: ``TraceEvent(time, kind, data)`` without its ``__new__`` frame: where
#: every event :meth:`TraceLog.record` builds is built.
_new_event = tuple.__new__


class TraceEvent(tuple):
    """One observable fact, at one instant.

    A tuple underneath — ``(time, kind, data)``, in that order — built in
    one ``tuple.__new__``, like :class:`~repro.sim.messages.Message` (a
    frozen dataclass pays an ``object.__setattr__`` per field, on every
    retained event).  Attribute assignment raises ``AttributeError``;
    events pickle and compare by value, and ``event[key]`` reads
    ``data``.
    """

    __slots__ = ()
    __match_args__ = ("time", "kind", "data")

    def __new__(
        cls, time: float, kind: str, data: dict[str, Any] | None = None
    ) -> "TraceEvent":
        return _new_event(cls, (time, kind, {} if data is None else data))

    time = _tuplegetter(0, "Simulation time of the fact.")
    kind = _tuplegetter(1, "Event kind (``join``, ``send``, a protocol milestone ...).")
    data = _tuplegetter(2, "The event's fields.")

    def __getnewargs__(self) -> tuple[Any, ...]:
        return tuple(self)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def __repr__(self) -> str:
        return (
            f"TraceEvent(time={self.time!r}, kind={self.kind!r}, "
            f"data={self.data!r})"
        )


class TraceLog:
    """An append-only, time-ordered log of :class:`TraceEvent` objects.

    Args:
        sink: where recorded events go (default: keep all in memory).
            Space-saving sinks retain only the low-volume kinds the
            specification layer needs; :meth:`events` then returns the
            retained subset while :meth:`count`/:meth:`summary` stay exact.
    """

    def __init__(self, sink: TraceSink | None = None) -> None:
        self._sink: TraceSink = sink if sink is not None else MemorySink()
        # Per kind, asked of the sink once: (retained, observed, counted,
        # contact) — kept in memory, handed to ``emit``, bumped on the
        # sink's own per-message-kind ``counter`` (a kind it does not
        # observe), and its :data:`CONTACT` effect, which the membership
        # fold applies (``None``: not folded).  ``Network.add_process`` and
        # ``remove_process`` read it to fold a join or leave the sink does
        # not observe in place, without a :meth:`record` frame.
        self._policy: dict[str, tuple[bool, bool, bool, str | None]] = {}
        self._sink_counts = type(self._sink).counter is not TraceSink.counter
        #: The kinds recorded so far that the sink neither retains nor
        #: observes.  For these the per-event call sites (send, deliver,
        #: timer fire) bump ``tallies[kind]`` — and the sink's ``counter``
        #: for the message kind — themselves instead of calling
        #: :meth:`record`: the same count, without the keyword arguments
        #: nobody reads.
        self.count_only: set[str] = set()
        #: Events recorded per kind: what :meth:`count`, :meth:`summary`
        #: and ``len`` report.
        self.tallies: dict[str, int] = {}
        #: The membership and contact changes recorded so far, under
        #: every sink: what :meth:`repro.core.runs.Run.from_trace` reads.
        self.membership = MembershipFold()
        self._events: list[TraceEvent] = []

    @property
    def sink(self) -> TraceSink:
        """The sink receiving this log's events."""
        return self._sink

    def __len__(self) -> int:
        """Total number of events *recorded* (under every sink)."""
        return sum(self.tallies.values())

    def __iter__(self) -> Iterator[TraceEvent]:
        """Iterate over the retained events (all of them, with the default
        memory sink)."""
        return iter(self._events)

    @property
    def retained(self) -> int:
        """How many events are held in memory (== ``len`` for MemorySink)."""
        return len(self._events)

    def record(self, time: float, kind: str, **data: Any) -> TraceEvent | None:
        """Count an event and hand it to whoever keeps it; when the sink
        neither retains the kind nor observes it, no :class:`TraceEvent`
        is built and ``None`` is returned."""
        tallies = self.tallies
        tallies[kind] = tallies.get(kind, 0) + 1
        try:
            retained, observed, counted, contact = self._policy[kind]
        except KeyError:
            retained, observed, counted, contact = self._classify(kind)
        if contact is not None:
            # The fold (the network makes these appends itself for a join
            # or leave the sink does not observe).
            membership = self.membership
            if contact == ATTACH:
                entity, value = data["entity"], data.get("value")
                code = JOINED_ALL if data.get("complete") else JOINED
                neighbors = data.get("neighbors")
                if neighbors:
                    membership.links[len(membership.kinds)] = tuple(neighbors)
            elif contact == DETACH:
                entity, value, code = data["entity"], None, LEFT
            else:
                entity, value = data["a"], data["b"]
                code = OPENED if contact == OPEN else CLOSED
            membership.times.append(time)
            membership.kinds.append(code)
            membership.entities.append(entity)
            membership.values.append(value)
        if counted:
            msg_kind = data.get("msg_kind")
            counter = (
                None if msg_kind is None else self._sink.counter(kind, msg_kind)
            )
            if counter is not None:
                counter.value += 1
        if not retained and not observed:
            return None
        event = _new_event(TraceEvent, (time, kind, data))
        if retained:
            self._events.append(event)
        if observed:
            self._sink.emit(event)
        return event

    def _classify(self, kind: str) -> tuple[bool, bool, bool, str | None]:
        """Ask the sink about ``kind`` (once per log)."""
        retained = self._sink.retains(kind)
        observed = self._sink.observes(kind)
        counted = self._sink_counts and not observed
        if not retained and not observed:
            self.count_only.add(kind)
        policy = self._policy[kind] = (retained, observed, counted, CONTACT.get(kind))
        return policy

    def close(self) -> None:
        """Flush and close the sink (idempotent; a no-op for memory)."""
        self._sink.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _require_retained(self, kind: str) -> None:
        """Refuse to answer "none" for a kind the sink dropped."""
        policy = self._policy.get(kind)
        if policy is not None and not policy[0]:
            raise ConfigurationError(
                f"{self.tallies[kind]} {kind!r} events were recorded but not "
                f"retained by the trace sink ({self._sink!r}); "
                f"{_ASK_FOR_MEMORY} to read them"
            )

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """Return the retained events, optionally filtered by kind (an
        error for a kind that was recorded but not retained)."""
        if kind is None:
            return list(self._events)
        self._require_retained(kind)
        return [e for e in self._events if e.kind == kind]

    def count(self, kind: str) -> int:
        """Return how many events of ``kind`` were recorded (exact under
        every sink)."""
        return self.tallies.get(kind, 0)

    def first(self, kind: str) -> TraceEvent | None:
        """Return the earliest retained event of ``kind``, or ``None``."""
        self._require_retained(kind)
        for event in self._events:
            if event.kind == kind:
                return event
        return None

    def last(self, kind: str) -> TraceEvent | None:
        """Return the latest retained event of ``kind``, or ``None``."""
        self._require_retained(kind)
        for event in reversed(self._events):
            if event.kind == kind:
                return event
        return None

    def between(self, t0: float, t1: float, kind: str | None = None) -> list[TraceEvent]:
        """Return retained events with ``t0 <= time <= t1``."""
        if kind is not None:
            self._require_retained(kind)
        return [
            e
            for e in self._events
            if t0 <= e.time <= t1 and (kind is None or e.kind == kind)
        ]

    # ------------------------------------------------------------------
    # Membership and cost helpers
    # ------------------------------------------------------------------

    def membership_events(self) -> list[TraceEvent]:
        """Return the events that change membership (:data:`PRESENCE`), in
        time order (an error under a sink that folds them without
        retaining them; :attr:`membership` holds them under every sink)."""
        for kind in PRESENCE:
            self._require_retained(kind)
        return [e for e in self._events if e.kind in PRESENCE]

    def message_count(self) -> int:
        """Total number of message sends (the standard cost metric)."""
        return self.count(SEND)

    def summary(self) -> dict[str, int]:
        """Return a ``{kind: count}`` summary of the whole log (exact under
        every sink)."""
        return dict(self.tallies)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save_jsonl(self, path: str | Path) -> int:
        """Write the retained events as JSON Lines; returns how many.

        Tuples and frozensets in event data are encoded with type markers
        so :meth:`load_jsonl` round-trips them exactly.  A log whose sink
        folded membership or contact events without retaining them (the
        null and counting sinks) raises
        :class:`~repro.sim.errors.ConfigurationError`: the file would load
        as a run with nobody in it.  To persist the *full* stream under a
        space-saving sink, record through a
        :class:`~repro.obs.sinks.JsonlStreamSink` instead.
        """
        self._require_folded_kinds()
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for event in self._events:
                record = encode_event(event.time, event.kind, event.data)
                handle.write(json.dumps(record) + "\n")
        return len(self._events)

    def _require_folded_kinds(self) -> None:
        """Refuse to write out a log that dropped a :data:`CONTACT` kind."""
        for kind in CONTACT:
            self._require_retained(kind)

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "TraceLog":
        """Read a log written by :meth:`save_jsonl` (or streamed by a
        :class:`~repro.obs.sinks.JsonlStreamSink`).  A torn final line (a
        crashed trial's buffered sink) is dropped with a warning; a line
        that is not a trace event raises :class:`ConfigurationError`."""
        log = cls()
        scan = JournalScan(path)
        for record in scan:
            try:
                time, kind, data = record["t"], record["k"], record["d"].items()
            except (KeyError, AttributeError):
                raise ConfigurationError(
                    f"{path}: line {scan.line} is not a trace event "
                    "(a JSON object with 't', 'k' and 'd' members)"
                ) from None
            log.record(time, kind, **{key: decode_value(v) for key, v in data})
        scan.warn_torn("trace", "the log ends before it")
        return log


def require_complete(source: Any, reader: str) -> None:
    """Refuse a whole-stream ``reader`` a :class:`TraceLog` that dropped
    events (any other event iterable is taken to be complete)."""
    if isinstance(source, TraceLog) and source.retained < len(source):
        raise ConfigurationError(
            f"{reader} reads the whole event stream, but the trace sink "
            f"({source.sink!r}) retained {source.retained} of {len(source)} "
            f"events; {_ASK_FOR_MEMORY}"
        )


def merge_logs(logs: Iterable[TraceLog]) -> TraceLog:
    """Merge several logs into one, re-sorted by time (stable).

    Useful when analysing a batch of independent trials together.  Only
    retained events merge; use memory sinks when a full merge matters.  A
    log that dropped a membership or contact kind raises
    :class:`~repro.sim.errors.ConfigurationError`, as
    :meth:`TraceLog.save_jsonl` does.
    """
    logs = list(logs)
    for log in logs:
        log._require_folded_kinds()
    merged = TraceLog()
    events = sorted(
        (e for log in logs for e in log), key=lambda e: e.time
    )
    for event in events:
        merged.record(event.time, event.kind, **event.data)
    return merged
