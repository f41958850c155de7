"""The ResultStore layer: trial results as a schema-versioned document.

The executor hands back a flat :class:`TrialResult` per trial — plain,
picklable, JSON-able data.  :class:`ResultStore` groups them by grid point,
computes per-point summaries, and serialises everything as a canonical JSON
document that downstream consumers (``repro.analysis.tables``,
``benchmarks/emit_bench.py``) read without ever touching simulator objects.

Canonical form: trials sorted by plan index, keys sorted, fixed indent, and
— by default — **no wall-clock timing**, so the same plan produces a
byte-identical document no matter which executor backend ran it or in what
order the trials finished.  Pass ``include_timing=True`` to add the
(non-deterministic) per-trial wall times and phase timings for perf work.

Schema history:

* **v1** — plan / points / summary / trials records.
* **v2** — adds an optional per-trial ``metrics`` block (the simulator's
  counter/gauge/histogram snapshot, minus its wall-clock ``timings``
  section, which moves under ``include_timing`` with ``wall_time``).
  v1 documents still load; the ``metrics`` block simply comes back empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any, Iterable, Mapping

from repro.obs.codec import (
    CorruptLineError,
    JournalScan,
    check_header,
    open_journal,
)
from repro.obs.metrics import strip_timings
from repro.sim.errors import ConfigurationError
from repro.version import package_version

#: Document schema identifier and version; bump the version on any change
#: to the document layout.
SCHEMA_NAME = "repro-engine-results"
SCHEMA_VERSION = 2

#: Versions this engine can still read.
SUPPORTED_VERSIONS = (1, 2)


def jsonable(value: Any) -> Any:
    """Coerce a trial-level value to something ``json.dumps`` accepts."""
    if isinstance(value, (frozenset, set)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, tuple):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, list):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class TrialResult:
    """The flat, process-boundary-safe summary of one executed trial.

    ``result``/``truth`` hold JSON-able values (set aggregates arrive as
    sorted lists).  ``completeness`` is the stable-core coverage for query
    trials, the audit coverage for dissemination trials, and ``nan`` for
    gossip trials (which have no core obligation).  ``wall_time`` is
    measured around the whole trial (config materialisation + simulation)
    and is excluded from canonical documents.  ``metrics`` is the
    simulator's observability snapshot; its deterministic sections
    (counters / gauges / histograms) go into the document, while the
    wall-clock ``timings`` section is quarantined with ``wall_time``.
    """

    index: int
    kind: str
    seed: int
    trial: int
    point: tuple[tuple[str, Any], ...]
    ok: bool
    terminated: bool
    result: Any
    truth: Any
    error: float
    completeness: float
    latency: float
    messages: int
    core_size: int
    events_executed: int
    wall_time: float
    metrics: Mapping[str, Any] = field(default_factory=dict)
    #: Non-empty only for exceptional dispositions (``"quarantined"`` when
    #: every watchdog attempt timed out); the empty default is omitted from
    #: records, keeping documents byte-identical when the watchdog is off.
    status: str = ""
    #: The query's coverage report (dict form), present only when a
    #: resilience layer with ``partial_results`` ran the trial.
    coverage: Mapping[str, Any] | None = None

    @classmethod
    def from_spec(cls, spec: Any, **fields: Any) -> "TrialResult":
        """Build the result of ``spec``: identity (index / kind / seed /
        trial / point) comes from the parent's own
        :class:`~repro.engine.plan.TrialSpec` — never from the wire or
        the disk — and ``fields`` supplies everything else."""
        return cls(
            index=spec.index,
            kind=spec.kind,
            seed=spec.seed,
            trial=spec.trial,
            point=tuple(spec.point_dict().items()),
            **fields,
        )

    def point_dict(self) -> dict[str, Any]:
        return dict(self.point)

    def to_record(self, include_timing: bool = False) -> dict[str, Any]:
        """The per-trial JSON record (deterministic unless timing is on).

        ``metrics`` is a :meth:`Metrics.snapshot <repro.obs.metrics.Metrics.snapshot>`
        (or a loaded record's copy of one), JSON-native already, so the
        record shares its sections: copied at the top level, never walked."""
        record = {
            "index": self.index,
            "kind": self.kind,
            "seed": self.seed,
            "trial": self.trial,
            "ok": self.ok,
            "terminated": self.terminated,
            "result": jsonable(self.result),
            "truth": jsonable(self.truth),
            "error": self.error,
            "completeness": self.completeness,
            "latency": self.latency,
            "messages": self.messages,
            "core_size": self.core_size,
            "events_executed": self.events_executed,
            "metrics": strip_timings(self.metrics),
        }
        # Optional members, emitted only when set: absent watchdog and
        # absent resilience keep the record layout (and bytes) unchanged,
        # so no schema version bump is needed.
        if self.status:
            record["status"] = self.status
        if self.coverage is not None:
            record["coverage"] = jsonable(self.coverage)
        if include_timing:
            record["wall_time"] = self.wall_time
            timings = self.metrics.get("timings")
            if timings:
                record["metrics"]["timings"] = timings
        return record

    @classmethod
    def from_record(
        cls, record: Mapping[str, Any], point: Mapping[str, Any]
    ) -> "TrialResult":
        """Rebuild a result from a loaded document record."""
        return cls(
            index=record["index"],
            kind=record["kind"],
            seed=record["seed"],
            trial=record["trial"],
            point=tuple(sorted(point.items(), key=lambda kv: kv[0])),
            **record_fields(record),
        )


#: Record members every trial record carries; the optional ones default
#: as the :class:`TrialResult` dataclass does.
_REQUIRED_RECORD_FIELDS = (
    "ok", "terminated", "result", "truth", "error", "completeness",
    "latency", "messages", "core_size", "events_executed",
)


_last_timed: tuple[Any, Any] = (None, None)


def timed_record(result: TrialResult) -> dict[str, Any]:
    """``result.to_record(include_timing=True)``, built once per trial: a
    run's journal and stream ask for the same result in turn, and the
    second is handed the first's record (read-only).  One entry, keyed by
    identity — nothing is kept on the results themselves."""
    global _last_timed
    if _last_timed[0] is not result:
        _last_timed = (result, result.to_record(include_timing=True))
    return _last_timed[1]


def record_fields(record: Mapping[str, Any]) -> dict[str, Any]:
    """The non-identity :class:`TrialResult` fields of a trial record, as
    written by :meth:`TrialResult.to_record` (document, stream line or
    checkpoint journal entry alike)."""
    fields = {name: record[name] for name in _REQUIRED_RECORD_FIELDS}
    fields["wall_time"] = record.get("wall_time", 0.0)
    fields["metrics"] = record.get("metrics", {})
    fields["status"] = record.get("status", "")
    fields["coverage"] = record.get("coverage")
    return fields


def _mean(values: list[float]) -> float:
    if not values:
        return float("nan")
    return sum(values) / len(values)


def summarize_point(results: list[TrialResult]) -> dict[str, Any]:
    """Per-point aggregates over the trial results."""
    n = len(results)
    numeric_results = [
        float(r.result) if isinstance(r.result, (int, float)) else 0.0
        for r in results
    ]
    return {
        "trials": n,
        "ok": sum(1 for r in results if r.ok) / n if n else 0.0,
        "completeness": _mean([r.completeness for r in results]),
        "fully_complete": (
            sum(1 for r in results if r.completeness == 1.0) / n if n else 0.0
        ),
        "error": _mean([r.error for r in results]),
        "latency": _mean([r.latency for r in results]),
        "messages": _mean([float(r.messages) for r in results]),
        "result_mean": _mean(numeric_results),
        "core_size": _mean([float(r.core_size) for r in results]),
        "events_executed": sum(r.events_executed for r in results),
    }


class ResultStore:
    """Aggregates :class:`TrialResult`s into the canonical JSON document."""

    def __init__(
        self,
        plan: Mapping[str, Any] | None = None,
        results: Iterable[TrialResult] = (),
    ) -> None:
        self.plan: dict[str, Any] = dict(plan or {})
        self._results: list[TrialResult] = list(results)

    @classmethod
    def from_run(cls, plan: Any, results: Iterable[TrialResult]) -> "ResultStore":
        """Build a store from an :class:`~repro.engine.plan.ExperimentPlan`
        (or any object with a ``meta()`` dict) and its executed results."""
        meta = plan.meta() if hasattr(plan, "meta") else dict(plan or {})
        return cls(plan=meta, results=results)

    # ------------------------------------------------------------------
    # Accumulation & access
    # ------------------------------------------------------------------

    def add(self, result: TrialResult) -> None:
        self._results.append(result)

    def extend(self, results: Iterable[TrialResult]) -> None:
        self._results.extend(results)

    @property
    def results(self) -> list[TrialResult]:
        """All results, in plan order (stable across executor backends)."""
        return sorted(self._results, key=lambda r: r.index)

    def __len__(self) -> int:
        return len(self._results)

    def by_point(self) -> dict[tuple[tuple[str, Any], ...], list[TrialResult]]:
        """Results grouped by grid point, groups and trials in plan order."""
        grouped: dict[tuple[tuple[str, Any], ...], list[TrialResult]] = {}
        for result in self.results:
            grouped.setdefault(result.point, []).append(result)
        return grouped

    def summary(self) -> dict[tuple[tuple[str, Any], ...], dict[str, Any]]:
        """Per-point summaries keyed by the point tuple, in plan order."""
        return {
            point: summarize_point(results)
            for point, results in self.by_point().items()
        }

    # ------------------------------------------------------------------
    # Document serialisation
    # ------------------------------------------------------------------

    def document(self, include_timing: bool = False) -> dict[str, Any]:
        """The full result document (deterministic by default)."""
        points = []
        for point, results in self.by_point().items():
            points.append({
                "point": jsonable(dict(point)),
                "summary": summarize_point(results),
                "trials": [r.to_record(include_timing) for r in results],
            })
        return {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "repro_version": package_version(),
            "plan": jsonable(self.plan),
            "points": points,
        }

    def to_json(self, include_timing: bool = False) -> str:
        """Canonical JSON: sorted keys, indent 2, trailing newline."""
        return json.dumps(
            self.document(include_timing), indent=2, sort_keys=True
        ) + "\n"

    def write(self, path: str, include_timing: bool = False) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(include_timing))

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "ResultStore":
        """Validate and rehydrate a result document."""
        validate_document(document)
        results = [
            TrialResult.from_record(record, entry["point"])
            for entry in document["points"]
            for record in entry["trials"]
        ]
        return cls(plan=document.get("plan", {}), results=results)

    @classmethod
    def load(cls, path: str) -> "ResultStore":
        return cls.from_document(load_document(path))


class StreamingResultStore:
    """Append-only JSONL result store for sweeps too large to buffer.

    The in-memory :class:`ResultStore` holds every :class:`TrialResult`
    until the end of the run; at 10⁴⁺ trials that is the engine's peak
    memory.  This store writes each trial the moment it finishes and keeps
    nothing:

    * line 1 — a header with the schema-v2 envelope (``schema``,
      ``version``, ``repro_version``, ``plan``) plus ``format:
      "jsonl-stream"`` so readers can sniff the container;
    * every further line — one trial, ``{"point": {...}, "record":
      {...}}``, with the identical record layout the canonical document
      uses.

    :func:`load_document` reassembles the exact canonical v2 document from
    the stream (summaries recomputed per point), so downstream consumers
    cannot tell which container produced a run.  Usable as a context
    manager; :meth:`append` matches the executor's streaming consumer
    signature.
    """

    FORMAT = "jsonl-stream"

    def __init__(
        self,
        path: str,
        plan: Mapping[str, Any] | None = None,
        include_timing: bool = False,
    ) -> None:
        self.path = str(path)
        self.plan: dict[str, Any] = dict(plan or {})
        self.include_timing = include_timing
        self.count = 0
        self._journal: IO[str] | None = None
        #: The last grid point written, and its JSON form.
        self._point: tuple[Any, Any] = (None, None)

    def open(self) -> "StreamingResultStore":
        """Create the file and write the header line (idempotent)."""
        if self._journal is None:
            self._journal = open_journal(self.path, header={
                "schema": SCHEMA_NAME,
                "version": SCHEMA_VERSION,
                "format": self.FORMAT,
                "repro_version": package_version(),
                "plan": jsonable(self.plan),
            })
        return self

    def append(self, result: TrialResult) -> None:
        """Write one trial line; opens the store on first use.  The untimed
        record is :func:`timed_record` minus ``wall_time`` and
        ``metrics.timings`` (two shallow copies, no second walk); the
        point's JSON form is made once per run of same-point trials."""
        if self._journal is None:
            self.open()
        record = timed_record(result)
        if not self.include_timing:
            record = {k: v for k, v in record.items() if k != "wall_time"}
            record["metrics"] = strip_timings(record["metrics"])
        if result.point != self._point[0]:
            self._point = (result.point, jsonable(result.point_dict()))
        entry = {"point": self._point[1], "record": record}
        self._journal.write(json.dumps(entry, sort_keys=True) + "\n")
        self.count += 1

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "StreamingResultStore":
        return self.open()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_document(path: str) -> Any:
    """The JSON at ``path`` as written, before validation: a canonical
    document as is, a :class:`StreamingResultStore` stream (sniffed from
    its header line) reassembled into one.  A torn final stream line is
    dropped with a warning (its trial re-executes on a checkpointed
    resume); a corrupt line raises (see :mod:`repro.obs.codec`)."""
    scan = JournalScan(path)
    lines = iter(scan)
    try:
        header = next(lines, None)
    except CorruptLineError:
        header = None  # a pretty-printed document: line 1 is "{"
    if header is None or header.get("format") != StreamingResultStore.FORMAT:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                return json.load(handle)
            except ValueError:
                raise ConfigurationError(f"{path}: not a JSON document") from None
    check_header(header, SCHEMA_NAME, SUPPORTED_VERSIONS,
                 "result document schema", path)
    results = [TrialResult.from_record(entry["record"], entry["point"])
               for entry in lines]
    scan.warn_torn("stream", "the document omits that trial")
    return ResultStore(plan=header.get("plan", {}), results=results).document()


def load_document(path: str) -> dict[str, Any]:
    """Load and validate a result document, returning the raw JSON object.

    Reads both containers (:func:`read_document`); either way the returned
    object has the same schema-v2 document shape.  Use
    :meth:`ResultStore.load` to rehydrate :class:`TrialResult`s instead;
    this helper is for consumers that want the document verbatim (tables,
    comparisons, archival checks) with the schema guarantee up front.
    """
    document = read_document(path)
    validate_document(document)
    return document


def validate_document(document: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigurationError` unless ``document`` matches the
    schema this version of the engine writes."""
    if not isinstance(document, Mapping):
        raise ConfigurationError("result document must be a JSON object")
    check_header(document, SCHEMA_NAME, SUPPORTED_VERSIONS,
                 "result document schema")
    points = document.get("points")
    if not isinstance(points, list):
        raise ConfigurationError("result document has no 'points' list")
    for entry in points:
        if "point" not in entry or "trials" not in entry:
            raise ConfigurationError(
                "each point entry needs 'point' and 'trials' members"
            )
