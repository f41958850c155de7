"""Structured trace recording.

Every observable fact about a simulation — membership changes, message
sends, deliveries and drops, protocol milestones — is appended to a
:class:`TraceLog`.  The formal layer (:mod:`repro.core`) consumes traces to
build *runs* and to check problem specifications, so the trace is the single
source of truth connecting the simulator to the paper's definitions.

Storage is delegated to a pluggable :class:`repro.obs.sinks.TraceSink`.
A raw :class:`TraceLog` (and a raw ``Simulator``) defaults to
:class:`~repro.obs.sinks.MemorySink`, which keeps every event in memory;
space-saving sinks (:class:`~repro.obs.sinks.JsonlStreamSink`,
:class:`~repro.obs.sinks.CountingSink`,
:class:`~repro.obs.sinks.NullSink` — the trial configs' default) stream or
drop the high-volume transport events while the membership and
protocol-milestone events the specification checker relies on are always
retained.  Per-kind counts are maintained unconditionally, so
:meth:`TraceLog.count` and :meth:`TraceLog.summary` are exact under every
sink; *reading* a kind that was recorded but dropped raises
:class:`~repro.sim.errors.ConfigurationError` instead of returning nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.obs.codec import JournalScan, decode_value, encode_event
from repro.obs.sinks import MemorySink, TraceSink
from repro.sim.errors import ConfigurationError

# Canonical event kinds written by the substrate.  Protocols are free to
# record additional kinds (e.g. "query_issued").
JOIN = "join"
LEAVE = "leave"
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

_ASK_FOR_MEMORY = 'run with trace_sink="memory" (or load a "jsonl" stream)'


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One observable fact, at one instant."""

    time: float
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


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
        # ``emit`` is only invoked on sinks that override it: MemorySink and
        # NullSink (every E-experiment) inherit the no-op.
        self._emits = type(self._sink).emit is not TraceSink.emit
        # ``sink.retains(kind)``, asked once per kind.
        self._retains: dict[str, bool] = {}
        #: The kinds recorded so far that the sink neither retains nor
        #: observes.  For these the per-event call sites (send, deliver,
        #: timer fire) bump ``tallies[kind]`` themselves instead of calling
        #: :meth:`record`: the same count, without the keyword arguments
        #: nobody reads.
        self.count_only: set[str] = set()
        #: Events recorded per kind: what :meth:`count`, :meth:`summary`
        #: and ``len`` report.
        self.tallies: dict[str, int] = {}
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
        neither retains the kind nor observes the stream, no
        :class:`TraceEvent` is built and ``None`` is returned."""
        tallies = self.tallies
        tallies[kind] = tallies.get(kind, 0) + 1
        try:
            retained = self._retains[kind]
        except KeyError:
            retained = self._retains[kind] = self._sink.retains(kind)
            if not retained and not self._emits:
                self.count_only.add(kind)
        if not retained and not self._emits:
            return None
        event = TraceEvent(time, kind, data)
        if retained:
            self._events.append(event)
        if self._emits:
            self._sink.emit(event)
        return event

    def close(self) -> None:
        """Flush and close the sink (idempotent; a no-op for memory)."""
        self._sink.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _require_retained(self, kind: str) -> None:
        """Refuse to answer "none" for a kind the sink dropped."""
        if not self._retains.get(kind, True):
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
    # Membership helpers (consumed by repro.core.runs)
    # ------------------------------------------------------------------

    def membership_events(self) -> list[TraceEvent]:
        """Return join/leave events in time order (retained by every sink)."""
        return [e for e in self._events if e.kind in (JOIN, LEAVE)]

    def entities_ever(self) -> set[int]:
        """Return the ids of every entity that ever joined."""
        return {e["entity"] for e in self._events if e.kind == JOIN}

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
        so :meth:`load_jsonl` round-trips them exactly.  To persist the
        *full* stream under a space-saving sink, record through a
        :class:`~repro.obs.sinks.JsonlStreamSink` instead.
        """
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for event in self._events:
                record = encode_event(event.time, event.kind, event.data)
                handle.write(json.dumps(record) + "\n")
        return len(self._events)

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
    retained events merge; use memory sinks when a full merge matters.
    """
    merged = TraceLog()
    events = sorted(
        (e for log in logs for e in log), key=lambda e: e.time
    )
    for event in events:
        merged.record(event.time, event.kind, **event.data)
    return merged
