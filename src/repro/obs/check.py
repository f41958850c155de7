"""Streaming trace invariant checkers.

The simulator's trace is the single source of truth connecting execution to
the paper's definitions, so classes of bugs — in churn models, protocols or
the substrate itself — show up as *trace invariant* violations long before
they corrupt a verdict.  This module checks those invariants **online**, as
events are recorded, via a :class:`CheckingSink` that composes with any
existing sink (memory, JSONL, counting, null):

* :class:`DeliveryLivenessChecker` — no message is delivered to an entity
  that already departed (the network must drop it instead);
* :class:`SendLivenessChecker` — no message is sent, and no timer fires,
  at an entity that is not currently a member;
* :class:`TimeMonotonicityChecker` — trace time never goes backwards
  (timer firings and deliveries respect the virtual clock);
* :class:`QueryQuiescenceChecker` — each query id is issued once, returns
  at most once, and only after it was issued.

Violations accumulate on each checker and — when the sink is attached to a
simulator — are counted in the metrics registry under
``check.violations`` / ``check.violations.<invariant>``, so they surface
in schema-v2 result documents without any extra plumbing::

    sink = CheckingSink(JsonlStreamSink("trial.jsonl"))
    sim = Simulator(seed=7, trace_sink=sink)
    ...
    assert not sink.violations

Offline, :func:`check_trace` replays a stored trace (a
:class:`~repro.sim.trace.TraceLog` or a JSONL file) through the default
checkers — that is what ``repro trace check`` runs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.obs.metrics import Metrics
from repro.obs.sinks import MemorySink, TraceSink
from repro.sim import trace as tr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.trace import TraceEvent


@dataclass(frozen=True)
class Violation:
    """One observed breach of a trace invariant."""

    time: float
    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[t={self.time:.3f}] {self.invariant}: {self.message}"


class InvariantChecker(abc.ABC):
    """Observes a trace stream and records invariant violations.

    Checkers are single-pass and constant-state in the transport-event
    count, so they compose with streaming sinks at no meaningful cost.
    """

    #: Invariant identifier (metrics key suffix, report label).
    name = "abstract"

    def __init__(self) -> None:
        self.violations: list[Violation] = []

    def _violate(self, time: float, message: str) -> None:
        self.violations.append(Violation(time, self.name, message))

    @abc.abstractmethod
    def observe(self, event: "TraceEvent") -> None:
        """Inspect one event, in record order."""

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        return f"{type(self).__name__}(violations={len(self.violations)})"


class _MembershipTracker(InvariantChecker):
    """Shared presence bookkeeping (:data:`repro.sim.trace.PRESENCE`)."""

    def __init__(self) -> None:
        super().__init__()
        self._present: set[int] = set()

    def observe(self, event: "TraceEvent") -> None:
        # ``tr.track`` inlined: this runs once per recorded event.
        effect = tr.PRESENCE.get(event.kind)
        if effect is None:
            self._check(event)
        elif effect > 0:
            self._present.add(event["entity"])
        else:
            self._present.discard(event["entity"])

    def _check(self, event: "TraceEvent") -> None:
        """Override: inspect a non-membership event."""


class DeliveryLivenessChecker(_MembershipTracker):
    """No delivery to a departed (or never-joined) entity.

    The network contract is that messages to absent receivers become
    ``drop`` events with reason ``receiver_absent``; a ``deliver`` whose
    receiver is not currently present means that contract broke.
    """

    name = "no_delivery_to_departed"

    def _check(self, event: "TraceEvent") -> None:
        if event.kind != tr.DELIVER:
            return
        receiver = event["receiver"]
        if receiver not in self._present:
            self._violate(
                event.time,
                f"message {event.get('msg_id')} ({event.get('msg_kind')}) "
                f"delivered to absent entity {receiver}",
            )


class SendLivenessChecker(_MembershipTracker):
    """No send from — and no timer firing at — a non-member entity.

    A process that left the system must be silent: its timers are
    suppressed and it has no network access.  Activity attributed to a
    departed entity means a zombie process survived its own departure.
    """

    name = "no_send_from_departed"

    def _check(self, event: "TraceEvent") -> None:
        if event.kind == tr.SEND:
            sender = event["sender"]
            if sender not in self._present:
                self._violate(
                    event.time,
                    f"message {event.get('msg_id')} ({event.get('msg_kind')}) "
                    f"sent by absent entity {sender}",
                )
        elif event.kind == tr.TIMER:
            entity = event["entity"]
            if entity not in self._present:
                self._violate(
                    event.time,
                    f"timer {event.get('name')!r} fired at absent "
                    f"entity {entity}",
                )


class TimeMonotonicityChecker(InvariantChecker):
    """Trace time is non-decreasing in record order.

    Subsumes timer monotonicity: a timer (or any other event) stamped
    before an already-recorded instant means the scheduler's clock went
    backwards.
    """

    name = "time_monotonic"

    def __init__(self) -> None:
        super().__init__()
        self._last_time = float("-inf")
        self._last_kind = ""

    def observe(self, event: "TraceEvent") -> None:
        if event.time < self._last_time:
            self._violate(
                event.time,
                f"{event.kind} at t={event.time} recorded after "
                f"{self._last_kind} at t={self._last_time}",
            )
        self._last_time = event.time
        self._last_kind = event.kind


class QueryQuiescenceChecker(InvariantChecker):
    """Every query id is issued exactly once and returns at most once.

    A double return (or a return with no issue) means a protocol kept
    answering after it reached its verdict — the query never became
    quiescent.
    """

    name = "query_quiescence"

    def __init__(self) -> None:
        super().__init__()
        self._issued: set[int] = set()
        self._returned: set[int] = set()

    def observe(self, event: "TraceEvent") -> None:
        if event.kind == "query_issued":
            qid = event["qid"]
            if qid in self._issued:
                self._violate(event.time, f"query {qid} issued twice")
            self._issued.add(qid)
        elif event.kind == "query_returned":
            qid = event["qid"]
            if qid not in self._issued:
                self._violate(
                    event.time, f"query {qid} returned but was never issued"
                )
            if qid in self._returned:
                self._violate(
                    event.time,
                    f"query {qid} returned twice (no quiescence after the "
                    "first verdict)",
                )
            self._returned.add(qid)


def default_checkers() -> list[InvariantChecker]:
    """Fresh instances of the four standard trace invariant checkers."""
    return [
        DeliveryLivenessChecker(),
        SendLivenessChecker(),
        TimeMonotonicityChecker(),
        QueryQuiescenceChecker(),
    ]


class CheckingSink(TraceSink):
    """A sink decorator that runs invariant checkers on the event stream.

    Wraps any inner sink (default: :class:`~repro.obs.sinks.MemorySink`)
    and forwards retention, emission and closing to it unchanged, so the
    wrapped trial produces the identical trace/documents with checking on.
    When the owning simulator attaches its metrics registry
    (:meth:`attach_metrics`, called by ``Simulator.__init__``), every
    violation also increments ``check.violations`` and
    ``check.violations.<invariant>``.
    """

    name = "checking"

    def __init__(
        self,
        inner: TraceSink | None = None,
        checkers: Iterable[InvariantChecker] | None = None,
        metrics: Metrics | None = None,
    ) -> None:
        self.inner = inner if inner is not None else MemorySink()
        self.checkers = (
            list(checkers) if checkers is not None else default_checkers()
        )
        self.metrics = metrics

    def attach_metrics(self, metrics: Metrics) -> None:
        # An explicitly configured registry wins over the simulator's.
        if self.metrics is None:
            self.metrics = metrics

    def retains(self, kind: str) -> bool:
        return self.inner.retains(kind)

    def emit(self, event: "TraceEvent") -> None:
        for checker in self.checkers:
            before = len(checker.violations)
            checker.observe(event)
            fresh = len(checker.violations) - before
            if fresh and self.metrics is not None:
                self.metrics.inc("check.violations", fresh)
                self.metrics.inc(f"check.violations.{checker.name}", fresh)
        self.inner.emit(event)

    def close(self) -> None:
        self.inner.close()

    @property
    def violations(self) -> list[Violation]:
        """All violations across the checkers, in time order (stable)."""
        merged = [v for checker in self.checkers for v in checker.violations]
        return sorted(merged, key=lambda v: v.time)

    @property
    def ok(self) -> bool:
        return all(checker.ok for checker in self.checkers)

    def __repr__(self) -> str:
        return (
            f"CheckingSink(inner={self.inner!r}, "
            f"checkers={[c.name for c in self.checkers]}, "
            f"violations={len(self.violations)})"
        )


def check_trace(
    source: "TraceLog | Iterable[TraceEvent] | str | Path",
    checkers: Iterable[InvariantChecker] | None = None,
) -> list[Violation]:
    """Replay a stored trace through the checkers; return all violations.

    ``source`` is a :class:`~repro.sim.trace.TraceLog`, any event iterable,
    or a path to a JSONL trace file.  Fresh default checkers are used
    unless an explicit list is given.  A ``TraceLog`` whose sink dropped
    events is refused (:class:`~repro.sim.errors.ConfigurationError`):
    check such trials online with ``check_invariants=True`` instead.
    """
    if isinstance(source, (str, Path)):
        source = tr.TraceLog.load_jsonl(source)
    tr.require_complete(source, "check_trace")
    active = list(checkers) if checkers is not None else default_checkers()
    for event in source:
        for checker in active:
            checker.observe(event)
    merged = [v for checker in active for v in checker.violations]
    return sorted(merged, key=lambda v: v.time)


if TYPE_CHECKING:  # pragma: no cover - typing aid for check_trace
    from repro.sim.trace import TraceLog
