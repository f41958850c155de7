"""Pluggable trace sinks: where high-volume trace events go.

Historically :class:`~repro.sim.trace.TraceLog` kept *every* event in a
grow-only list — fine for one trial, hostile to big sweeps where a single
run can emit hundreds of thousands of transport events.  A sink decides
what happens to each recorded event:

* :class:`MemorySink` — keep everything in memory (the default; exactly
  the historical behavior).
* :class:`JsonlStreamSink` — stream every event to a JSON-Lines file as it
  is recorded; constant memory in the transport-event count, and the file
  is loadable with :meth:`repro.sim.trace.TraceLog.load_jsonl`.
* :class:`CountingSink` — keep nothing but per-kind (and per-message-kind)
  counts.
* :class:`NullSink` — discard outright (perf mode).

**The spec checker keeps working under every sink.**  The
protocol-milestone events (``query_issued``/``query_returned``,
``bcast_issued``/``bcast_delivered``, …) that :mod:`repro.core` consumes
are retained in memory by every sink, and the membership and contact
events (:data:`FOLDED_KINDS`) are folded by the TraceLog into its
:class:`~repro.sim.trace.MembershipFold` under every sink, which is what
``Run.from_trace`` reads.  The sink policy governs the events themselves:
:class:`MemorySink` keeps them all, :class:`JsonlStreamSink` writes them
all, and the null and counting sinks retain neither the high-volume
transport and timer firehose (:data:`TRANSPORT_KINDS`) nor the folded
kinds.  That is what makes a ``--trace-sink null`` sweep produce the same
result document as a memory-sink sweep, only cheaper.
"""

from __future__ import annotations

import abc
import json
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from repro.obs.codec import encode_event
from repro.obs.metrics import Counter
from repro.sim.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace -> sinks)
    from repro.sim.trace import TraceEvent

#: The high-volume substrate kinds a space-saving sink may drop without
#: breaking the specification checker.
TRANSPORT_KINDS = frozenset(
    {"send", "deliver", "drop", "timer", "msg_lost", "retransmit"}
)

#: The membership and contact kinds (``repro.sim.trace.CONTACT``): every
#: TraceLog folds them into its membership fold, so a space-saving sink
#: drops them too.  Everything else (protocol milestones, detector output,
#: fault and partition records) is low-volume and retained.
FOLDED_KINDS = frozenset({"join", "leave", "edge_up", "edge_down"})

_UNRETAINED = TRANSPORT_KINDS | FOLDED_KINDS

#: The transport kinds a :class:`CountingSink` counts where they happen
#: rather than through :meth:`TraceSink.emit`.
_COUNTED_IN_PLACE = frozenset({"send", "deliver", "timer"})


class TraceSink(abc.ABC):
    """Receives every trace event; decides retention for transport kinds."""

    #: Human-readable sink name (the ``--trace-sink`` vocabulary).
    name = "abstract"

    def retains(self, kind: str) -> bool:
        """Should the TraceLog keep events of ``kind`` in memory?

        Default policy: retain everything except the transport firehose
        and the folded membership kinds.  :class:`MemorySink` overrides
        this to retain all kinds.
        """
        return kind not in _UNRETAINED

    def observes(self, kind: str) -> bool:
        """Should the TraceLog hand events of ``kind`` to :meth:`emit`?

        Asked once per kind per log.  A kind the sink neither retains nor
        observes is counted where it happens, without a
        :class:`~repro.sim.trace.TraceEvent` (``TraceLog.count_only``).
        Default: every kind, exactly when the sink's class overrides
        :meth:`emit`.
        """
        return type(self).emit is not TraceSink.emit

    def emit(self, event: "TraceEvent") -> None:
        """Called once per recorded event of an observed kind, in record
        order; the TraceLog never calls this inherited no-op."""

    def counter(self, kind: str, msg_kind: str) -> "Counter | None":
        """The counter this sink keeps for ``kind`` events about
        ``msg_kind`` messages, for a kind it does not observe: whoever
        counts such an event — the call site or ``TraceLog.record`` —
        bumps it in place.  ``None`` (the default): no such count."""
        return None

    def close(self) -> None:
        """Flush and release any resources (idempotent)."""

    def attach_metrics(self, metrics: Any) -> None:
        """Offer the owning simulator's metrics registry to the sink.

        Called once by :class:`~repro.sim.scheduler.Simulator` right after
        construction.  The default is a no-op; instrumented sinks (e.g.
        :class:`repro.obs.check.CheckingSink`) override it to count what
        they observe.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class MemorySink(TraceSink):
    """Retain every event in the TraceLog's list (historical behavior)."""

    name = "memory"

    def retains(self, kind: str) -> bool:
        return True


class NullSink(TraceSink):
    """Drop transport events outright — the cheapest possible sink."""

    name = "null"


class CountingSink(TraceSink):
    """Keep only count summaries of the dropped transport events.

    The TraceLog already counts events per kind; this sink additionally
    breaks the transport kinds down by protocol message kind, so a perf
    run still answers "how many WAVE_QUERY sends?" without storing any
    event objects.  As a log's own sink it observes only the rare
    transport kinds (``drop``, ``msg_lost``, ``retransmit``): ``send`` and
    ``deliver`` bump a per-message-kind :meth:`counter` the network binds
    once per message kind, and a ``timer`` carries no message kind — so
    none of the three builds an event or calls the sink.  Wrapped (in a
    :class:`~repro.obs.check.CheckingSink`), it counts everything through
    :meth:`emit`.
    """

    name = "counts"

    def __init__(self) -> None:
        self._by_msg_kind: dict[str, dict[str, Counter]] = {}

    def observes(self, kind: str) -> bool:
        return kind in TRANSPORT_KINDS and kind not in _COUNTED_IN_PLACE

    def counter(self, kind: str, msg_kind: str) -> Counter | None:
        if kind not in TRANSPORT_KINDS:
            return None
        counters = self._by_msg_kind.get(kind)
        if counters is None:
            counters = self._by_msg_kind[kind] = {}
        counter = counters.get(msg_kind)
        if counter is None:
            counter = counters[msg_kind] = Counter(f"{kind}.{msg_kind}")
        return counter

    def emit(self, event: "TraceEvent") -> None:
        msg_kind = event.data.get("msg_kind")
        if msg_kind is not None:
            counter = self.counter(event.kind, msg_kind)
            if counter is not None:
                counter.value += 1

    def summary(self) -> dict[str, dict[str, int]]:
        """``{event kind: {message kind: count}}`` for transport events."""
        summary = {}
        for kind, counters in sorted(self._by_msg_kind.items()):
            # A counter is bound before its first event (the network binds
            # the deliver counter at the first send), so skip the zeros.
            counts = {
                msg_kind: counter.value
                for msg_kind, counter in sorted(counters.items())
                if counter.value
            }
            if counts:
                summary[kind] = counts
        return summary


class JsonlStreamSink(TraceSink):
    """Stream every event to a JSON-Lines file as it is recorded.

    Memory stays constant in the transport-event count; the produced file
    uses the same tuple/frozenset-marking codec as
    :meth:`~repro.sim.trace.TraceLog.save_jsonl`, so
    :meth:`~repro.sim.trace.TraceLog.load_jsonl` round-trips it exactly.
    The file handle opens lazily on the first event and must be
    :meth:`close`\\ d (the trial runners do) before the file is complete.
    """

    name = "jsonl"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None
        self.events_written = 0

    def emit(self, event: "TraceEvent") -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
        record = encode_event(event.time, event.kind, event.data)
        self._handle.write(json.dumps(record) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:
        return f"JsonlStreamSink(path={str(self.path)!r})"


#: ``--trace-sink`` vocabulary shared by the CLI and the trial configs.
SINK_NAMES = ("memory", "jsonl", "null", "counts")


def make_sink(
    sink: "str | TraceSink | None", path: str | Path | None = None
) -> TraceSink:
    """Materialise a sink from a name (or pass an instance through).

    ``path`` is required for ``"jsonl"`` and ignored otherwise.  ``None``
    selects the default :class:`MemorySink`.
    """
    if sink is None:
        return MemorySink()
    if isinstance(sink, TraceSink):
        return sink
    if sink == "memory":
        return MemorySink()
    if sink == "null":
        return NullSink()
    if sink == "counts":
        return CountingSink()
    if sink == "jsonl":
        if path is None:
            raise ConfigurationError(
                "trace sink 'jsonl' needs a trace path (set trace_path "
                "on the config, or --trace-dir on the CLI)"
            )
        return JsonlStreamSink(path)
    raise ConfigurationError(
        f"unknown trace sink {sink!r}; use one of {', '.join(SINK_NAMES)}"
    )
