"""Hierarchical wall-clock spans and the ``repro-run-telemetry`` wire format.

PRs 2-3 made the *simulated* system observable (metrics, trace sinks, the
causal DAG); this module turns the same lens on the harness itself.  A
:class:`Span` is one timed region of real work — a whole run, a dispatch
phase, a worker-side chunk, a single trial — with a parent pointer, so a
run's spans form a tree::

    run
    ├── warm_pool                 (pool fork + pre-import)
    ├── calibration               (adaptive-chunk sizing trial)
    └── dispatch
        ├── chunk  (worker 4711)
        │   ├── trial (index 1)
        │   └── trial (index 2)
        └── chunk  (worker 4712)
            └── ...

Spans are recorded through a :class:`SpanTracer`, which assigns ids and
hands each *finished* span to a sink callback — spans are append-only and
written at their end time, so a sink can be a live JSONL stream that a
concurrent reader tails (``repro top``).

Wire format (``repro-run-telemetry`` v1): one JSON object per line.  The
first line is a ``manifest`` record (written by
:class:`repro.engine.telemetry.TelemetryRecorder`); every span becomes a
``span`` record; the final line is a ``summary`` record.  All times are
Unix epoch seconds (``time.time()``) so records from different processes
on one host share a clock base.

Determinism contract: spans observe wall-clock shape only.  Nothing in
this module is reachable from trial execution, so telemetry enabled vs
disabled produces byte-identical result documents (pinned by the
observers axis of ``tests/engine/test_conformance.py``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.obs.codec import JournalScan, check_header
from repro.sim.errors import ConfigurationError

#: Schema identifier stamped on every telemetry stream's manifest line.
TELEMETRY_SCHEMA = "repro-run-telemetry"
TELEMETRY_VERSION = 1

#: Well-known span names the engine emits (consumers may see others).
SPAN_KINDS = (
    "run",
    "warm_pool",
    "calibration",
    "dispatch",
    "chunk",
    "trial",
    "profile",
    "worker_respawned",
    "chunk_redispatched",
)


@dataclass(frozen=True)
class Span:
    """One finished, wall-clock-timed region of harness work.

    Attributes:
        name: the span kind (see :data:`SPAN_KINDS`).
        span_id: unique within one telemetry stream (``"s1"``, ``"s2"``…).
        parent_id: the enclosing span's id, or ``None`` for the root.
        t0: start, Unix epoch seconds.
        t1: end, Unix epoch seconds (``t1 >= t0``).
        attrs: JSON-able annotations — trial index, worker pid, queue
            wait, quarantine status, retry counts, …
    """

    name: str
    span_id: str
    parent_id: str | None
    t0: float
    t1: float
    attrs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_record(self) -> dict[str, Any]:
        """The ``span`` line of the telemetry wire format."""
        record: dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t0": self.t0,
            "t1": self.t1,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "Span":
        if record.get("type") != "span":
            raise ConfigurationError(
                f"not a span record (type={record.get('type')!r})"
            )
        return cls(
            name=record["name"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            t0=record["t0"],
            t1=record["t1"],
            attrs=dict(record.get("attrs", {})),
        )


class OpenSpan:
    """A span that has started but not finished (mutable handle).

    Handed out by :meth:`SpanTracer.begin`; :meth:`SpanTracer.finish`
    seals it into an immutable :class:`Span` and pushes it to the sink.
    """

    __slots__ = ("name", "span_id", "parent_id", "t0", "attrs")

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: str | None,
        t0: float,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = t0
        self.attrs = attrs


class SpanTracer:
    """Assigns span ids and routes finished spans to a sink callback.

    The tracer is clock-agnostic: callers pass explicit ``t0``/``t1``
    epoch timestamps when they have better ones (worker-side chunk times
    shipped back over the wire), or use :meth:`begin`/:meth:`finish` /
    the :meth:`span` context manager for parent-side regions.  A lock
    guards the id counter and sink hand-off, so completion-order callbacks
    (``as_completed`` loops) need no coordination of their own.
    """

    def __init__(
        self,
        sink: Callable[[Span], None],
        clock: Callable[[], float] | None = None,
    ) -> None:
        import time

        self._sink = sink
        self._clock = clock if clock is not None else time.time
        self._lock = threading.Lock()
        self._next_id = 0

    def _new_id(self) -> str:
        with self._lock:
            self._next_id += 1
            return f"s{self._next_id}"

    def now(self) -> float:
        return self._clock()

    def begin(
        self,
        name: str,
        parent: "OpenSpan | Span | str | None" = None,
        t0: float | None = None,
        **attrs: Any,
    ) -> OpenSpan:
        """Open a span; it is not written until :meth:`finish`."""
        return OpenSpan(
            name=name,
            span_id=self._new_id(),
            parent_id=span_id_of(parent),
            t0=self.now() if t0 is None else t0,
            attrs=dict(attrs),
        )

    def finish(
        self, open_span: OpenSpan, t1: float | None = None, **attrs: Any
    ) -> Span:
        """Seal an open span and push it to the sink."""
        merged = dict(open_span.attrs)
        merged.update(attrs)
        span = Span(
            name=open_span.name,
            span_id=open_span.span_id,
            parent_id=open_span.parent_id,
            t0=open_span.t0,
            t1=self.now() if t1 is None else t1,
            attrs=merged,
        )
        with self._lock:
            self._sink(span)
        return span

    def emit(
        self,
        name: str,
        t0: float,
        t1: float,
        parent: "OpenSpan | Span | str | None" = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-timed span in one call (worker-clocked
        regions whose endpoints crossed the process boundary)."""
        span = Span(
            name=name,
            span_id=self._new_id(),
            parent_id=span_id_of(parent),
            t0=t0,
            t1=t1,
            attrs=attrs,  # a fresh dict per call: nothing else holds it
        )
        with self._lock:
            self._sink(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        parent: "OpenSpan | Span | str | None" = None,
        **attrs: Any,
    ) -> Iterator[OpenSpan]:
        """Context manager form: the region's wall time is the span."""
        open_span = self.begin(name, parent=parent, **attrs)
        try:
            yield open_span
        finally:
            self.finish(open_span)


def span_id_of(parent: OpenSpan | Span | str | None) -> str | None:
    """Normalise the ``parent`` argument forms to an id (or ``None``)."""
    if parent is None or isinstance(parent, str):
        return parent
    return parent.span_id


def span_tree(
    spans: Iterator[Span] | list[Span],
) -> dict[str | None, list[Span]]:
    """Group spans by ``parent_id`` — the children table of the span tree.

    Roots are under the ``None`` key; within each group, spans keep their
    record order (which is completion order in a live stream).
    """
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return children


def read_telemetry(path: str) -> Iterator[dict[str, Any]]:
    """Iterate the records of a telemetry stream, validating the manifest.

    Yields each line's JSON object in file order.  The first line must be
    a v1 ``manifest`` record.  Readers tail live files, so a torn trailing
    line (a writer mid-append) is silently left out; a corrupt line raises
    (:mod:`repro.obs.codec`).
    """
    records = iter(JournalScan(path))
    for manifest in records:
        validate_manifest(manifest, path=path)
        yield manifest
        yield from records


def validate_manifest(record: Mapping[str, Any], path: str = "") -> None:
    """Raise unless ``record`` is a readable v1 manifest line."""
    if record.get("type") != "manifest":
        raise ConfigurationError(
            f"{path + ': ' if path else ''}telemetry streams must start with "
            f"a manifest record (got type={record.get('type')!r})"
        )
    check_header(record, TELEMETRY_SCHEMA, (TELEMETRY_VERSION,), "telemetry", path)
