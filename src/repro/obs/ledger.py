"""The run ledger: the read side of engine telemetry.

:class:`~repro.engine.telemetry.TelemetryRecorder` writes one
``repro-run-telemetry`` stream per run (:mod:`repro.obs.spans`).  This
module owns the numbers both sides report: :func:`trial_outcome` is the
one outcome rule and :class:`RunFold` the one fold (trial counts, ETA,
:class:`WorkerHealth` per worker).  The recorder folds every record it
writes into its ``summary``, :class:`TelemetryTail` (``repro top``) folds
the same records read back, ``--progress`` folds trial results — so the
summary and ``repro top`` agree by construction.  The ledger behind
``repro runs`` (:func:`scan_runs`, :func:`find_run`) and opt-in
profiling (:func:`profile_slowest`) live here too.  Nothing here imports
:mod:`repro.engine` at module level, so ``top`` and ``runs`` stay light.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.obs.codec import JournalScan
from repro.obs.spans import (
    Span,
    TELEMETRY_SCHEMA,
    TELEMETRY_VERSION,
    read_telemetry,
    validate_manifest,
)
from repro.sim.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import TrialSpec
    from repro.engine.results import TrialResult

#: Default ledger directory for runs that have no result-document anchor.
DEFAULT_RUNS_DIR = os.path.join(".repro", "runs")

#: The outcomes a trial is counted under, in report order.
OUTCOMES = ("ok", "failed", "skipped", "quarantined")


def trial_outcome(ok: bool, terminated: bool = True, status: str = "") -> str:
    """Which of :data:`OUTCOMES` a trial counts under: ``quarantined``
    when every watchdog attempt overran, ``skipped`` when it never reached
    a verdict, else ``ok`` or ``failed`` by its verdict."""
    if status == "quarantined":
        return "quarantined"
    if not terminated:
        return "skipped"
    return "ok" if ok else "failed"


@dataclass(frozen=True)
class RunManifest:
    """The durable identity of one engine run — the ledger entry.

    Serialised as the first line of the telemetry stream.  ``executor``
    holds the :class:`~repro.engine.spec.ExecutorSpec` wire dict (or a
    best-effort description of a hand-built backend); ``cli`` is present
    only for runs launched through ``repro`` and carries the
    ``repro --version`` banner plus the argv.
    """

    run_id: str
    started: float
    plan: Mapping[str, Any]
    executor: Mapping[str, Any]
    host: Mapping[str, Any]
    repro_version: str
    result_schema: Mapping[str, Any]
    cli: Mapping[str, Any] | None = None
    #: Path of the run's ``repro-run-checkpoint`` journal, when one was
    #: written — what ``repro resume`` follows.
    checkpoint: str | None = None
    #: The run id this run resumed (``repro resume``); ``None`` for
    #: first attempts.
    resumed_from: str | None = None

    def to_record(self) -> dict[str, Any]:
        """The manifest line: every field that is set, plus the header."""
        record: dict[str, Any] = {
            "type": "manifest", "schema": TELEMETRY_SCHEMA,
            "version": TELEMETRY_VERSION,
            "started_iso": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(self.started)
            ),
        }
        for name, value in vars(self).items():
            if isinstance(value, Mapping):
                value = dict(value)
            if value is not None:
                record[name] = value
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "RunManifest":
        return cls(
            run_id=record["run_id"],
            started=record["started"],
            repro_version=record.get("repro_version", ""),
            cli=dict(record["cli"]) if record.get("cli") else None,
            checkpoint=record.get("checkpoint"),
            resumed_from=record.get("resumed_from"),
            **{key: dict(record.get(key, {}))
               for key in ("plan", "executor", "host", "result_schema")},
        )

    @property
    def worker_count(self) -> int:
        """The worker count the run's executor resolved to: 1 when
        serial, else its ``jobs``, or the host's CPU count for ``None``."""
        if self.executor.get("backend", "serial") == "serial":
            return 1
        return int(self.executor.get("jobs") or self.host.get("cpu_count") or 1)


@dataclass
class WorkerHealth:
    """Accumulated health metrics for one worker process.

    ``busy_s`` sums chunk wall times; ``queue_wait_s`` sums each chunk's
    submit→start latency; utilization is busy time over the worker's
    observed lifetime (first chunk start to last chunk end).  The parent
    process itself appears as a worker for serial runs and calibration
    trials.
    """

    pid: int
    chunks: int = 0
    trials: int = 0
    busy_s: float = 0.0
    queue_wait_s: float = 0.0
    rss_kb_max: float = 0.0
    first_start: float = field(default=float("inf"))
    last_end: float = 0.0

    def observe_chunk(self, t0: float, t1: float, trials: int,
                      queue_wait: float, rss_kb: float) -> None:
        self.chunks += 1
        self.trials += trials
        self.busy_s += max(0.0, t1 - t0)
        self.queue_wait_s += max(0.0, queue_wait)
        self.rss_kb_max = max(self.rss_kb_max, rss_kb)
        self.first_start = min(self.first_start, t0)
        self.last_end = max(self.last_end, t1)

    @property
    def lifetime_s(self) -> float:
        return max(0.0, self.last_end - self.first_start)

    @property
    def utilization(self) -> float:
        life = self.lifetime_s
        return min(1.0, self.busy_s / life) if life > 0 else 1.0

    @property
    def trials_per_sec(self) -> float:
        return self.trials / self.busy_s if self.busy_s > 0 else 0.0

    @property
    def queue_wait_mean_s(self) -> float:
        return self.queue_wait_s / self.chunks if self.chunks else 0.0

    def to_record(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "chunks": self.chunks,
            "trials": self.trials,
            "busy_s": round(self.busy_s, 6),
            "utilization": round(self.utilization, 4),
            "trials_per_sec": round(self.trials_per_sec, 3),
            "queue_wait_mean_s": round(self.queue_wait_mean_s, 6),
            "rss_kb_max": self.rss_kb_max,
        }


class RunFold:
    """The one fold over a telemetry stream's records.

    :meth:`add` takes the records in stream order (the recorder's own, or
    the lines read back); :meth:`tally` is the per-trial step alone, for
    callers that see trial results rather than spans.  A ``chunk`` span is
    one chunk of its worker; a ``trial`` / ``calibration`` span whose
    parent is not a chunk seen so far ran in the parent process (serial,
    calibration, a quarantined poison trial) and is its worker's chunk of
    one.
    """

    def __init__(self) -> None:
        self.manifest: RunManifest | None = None
        self.summary: dict[str, Any] | None = None
        self.counts = dict.fromkeys(OUTCOMES, 0)
        self.trials_done = 0
        self.chunks = 0
        self.workers: dict[int, WorkerHealth] = {}
        self._chunk_ids: set[str] = set()
        self._wall_s = 0.0

    def tally(self, outcome: str, wall_s: float) -> None:
        """Count one finished trial."""
        self.trials_done += 1
        self.counts[outcome] += 1
        self._wall_s += wall_s

    def add(self, record: Mapping[str, Any]) -> None:
        """Fold one stream record in."""
        kind = record.get("type")
        if kind == "span":
            self._add_span(record)
        elif kind == "manifest":
            self.manifest = RunManifest.from_record(record)
        elif kind == "summary":
            self.summary = dict(record)

    def _add_span(self, record: Mapping[str, Any]) -> None:
        name, attrs = record.get("name"), record.get("attrs", {})
        if name == "trial" or name == "calibration":
            t0, t1 = record["t0"], record["t1"]
            self.tally(trial_outcome(
                attrs.get("ok", False), attrs.get("terminated", True),
                attrs.get("status", ""),
            ), t1 - t0)
            if record.get("parent_id") not in self._chunk_ids:
                pid = attrs.get("worker", 0)
                self.workers.setdefault(pid, WorkerHealth(pid)).observe_chunk(
                    t0, t1, trials=1, queue_wait=0.0, rss_kb=0.0
                )
        elif name == "chunk":
            self.chunks += 1
            self._chunk_ids.add(record.get("span_id"))
            pid = attrs.get("worker", 0)
            self.workers.setdefault(pid, WorkerHealth(pid)).observe_chunk(
                record["t0"], record["t1"], trials=attrs.get("trials", 0),
                queue_wait=attrs.get("queue_wait_s", 0.0),
                rss_kb=attrs.get("rss_kb", 0.0),
            )

    def remaining_s(self, total: int, jobs: int) -> float:
        """Wall estimate for the rest of ``total`` trials on ``jobs``
        workers, from the mean trial duration so far (NaN before any)."""
        if not self.trials_done or not total:
            return float("nan")
        mean = self._wall_s / self.trials_done
        return mean * max(0, total - self.trials_done) / max(1, jobs)


# ----------------------------------------------------------------------
# Live tailing (repro top)
# ----------------------------------------------------------------------


class TelemetryTail(RunFold):
    """Incremental reader of a (possibly live) telemetry stream: a
    :class:`~repro.obs.codec.JournalScan` feeding a :class:`RunFold`.

    Re-polling picks up only the lines appended since the last poll, so a
    ``repro top`` loop costs O(new records) per refresh.
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = str(path)
        self._scan = JournalScan(self.path)

    @property
    def finished(self) -> bool:
        return self.summary is not None

    @property
    def total(self) -> int:
        plan = self.manifest.plan if self.manifest is not None else {}
        return int(plan.get("n_trials", 0))

    def eta_s(self, jobs: int | None = None) -> float:
        """Remaining wall estimate; ``jobs`` defaults to the manifest's
        worker count (:attr:`RunManifest.worker_count`)."""
        if jobs is None:
            jobs = self.manifest.worker_count if self.manifest else 1
        return self.remaining_s(self.total, jobs)

    def poll(self) -> int:
        """Consume newly appended complete lines; returns how many.  A torn
        trailing line is re-read whole on a later poll; a corrupt line
        raises (:mod:`repro.obs.codec`)."""
        consumed = 0
        try:
            for record in self._scan:
                if self.manifest is None:  # line 1 must be the manifest
                    validate_manifest(record, path=self.path)
                self.add(record)
                consumed += 1
        except FileNotFoundError:
            pass  # not written yet
        return consumed

    def render(self) -> str:
        """The ``repro top`` screen: header, progress, worker table."""
        from repro.analysis.tables import render_table

        lines: list[str] = []
        if self.manifest is None:
            return f"{self.path}: waiting for manifest..."
        m = self.manifest
        backend = m.executor.get("backend", "?")
        jobs = m.executor.get("jobs")
        jobs_label = jobs if jobs is not None else "auto"
        lines.append(
            f"run {m.run_id} · plan {m.plan.get('name', '?')!r} "
            f"({m.plan.get('n_trials', '?')} trials) · "
            f"executor {backend}/jobs={jobs_label} · repro {m.repro_version}"
        )
        done = self.trials_done
        total = self.total or max(done, 1)
        filled = int(30 * min(1.0, done / total))
        if self.summary is not None:
            tail = f"done in {self.summary.get('wall_s', 0.0):.1f}s"
        else:
            eta = self.eta_s()
            tail = f"eta {eta:.1f}s" if eta == eta else "eta --"
        counts = ", ".join(f"{self.counts[o]} {o}" for o in OUTCOMES)
        lines.append(
            f"[{'#' * filled}{'-' * (30 - filled)}] {done}/{total} trials · "
            f"{counts} · {self.chunks} chunks · {tail}"
        )
        if self.workers:
            rows = [[
                pid, w.chunks, w.trials, f"{w.busy_s:.2f}",
                f"{w.utilization * 100:.0f}%", f"{w.trials_per_sec:.2f}",
                f"{w.queue_wait_mean_s * 1000:.1f}ms", f"{w.rss_kb_max:.0f}",
            ] for pid, w in sorted(self.workers.items())]
            lines.append(render_table(
                ["worker", "chunks", "trials", "busy s", "util",
                 "trials/s", "q-wait", "rss kb"],
                rows, title="workers",
            ))
        return "\n".join(lines)

    def render_manifest(self) -> str:
        """The manifest table of ``repro runs show``."""
        from repro.analysis.tables import render_table

        manifest = self.manifest
        if manifest is None:
            raise ConfigurationError(f"{self.path}: stream has no manifest")
        rows = [
            ["path", self.path],
            ["started", manifest.to_record()["started_iso"]],
            ["plan digest", manifest.plan.get("digest", "-")],
            ["executor", str(dict(manifest.executor))],
            ["host", "{hostname} · {platform} · python {python} · "
             "{cpu_count} cpus".format(**{
                 key: manifest.host.get(key, "?")
                 for key in ("hostname", "platform", "python", "cpu_count")
             })],
            ["repro", manifest.repro_version],
            ["result schema", "{name} v{version}".format(
                **dict(manifest.result_schema))],
        ]
        if manifest.cli:
            rows.append(["cli", "{version}: {argv}".format(
                version=manifest.cli.get("version", "?"),
                argv=" ".join(manifest.cli.get("argv", [])),
            )])
        return render_table(["field", "value"], rows, title="manifest")


# ----------------------------------------------------------------------
# The run ledger (repro runs list|show)
# ----------------------------------------------------------------------


def load_telemetry(
    path: str,
) -> tuple[RunManifest, list[Span], dict[str, Any] | None]:
    """Read a whole telemetry stream: (manifest, spans, summary|None)."""
    run, spans = RunFold(), []
    for record in read_telemetry(path):
        run.add(record)
        if record.get("type") == "span":
            spans.append(Span.from_record(record))
    if run.manifest is None:
        raise ConfigurationError(f"{path}: telemetry stream has no manifest")
    return run.manifest, spans, run.summary


def run_status(
    manifest: RunManifest, summary: Mapping[str, Any] | None
) -> str:
    """The ledger disposition of one run.

    ``"completed"`` — the summary record landed; ``"resumed"`` — completed
    *and* this run was a ``repro resume`` of an earlier one;
    ``"interrupted"`` — a manifest with no summary, i.e. the run died (or
    is still live; the stream cannot tell a crash from an in-flight run,
    so the ledger treats both as resumable).
    """
    if summary is None:
        return "interrupted"
    if manifest.resumed_from is not None:
        return "resumed"
    return "completed"


def scan_runs(directory: str = DEFAULT_RUNS_DIR) -> list[dict[str, Any]]:
    """The ledger: every telemetry stream under ``directory``, folded.

    Returns one entry per readable stream — ``{"path", "manifest",
    "summary", "status"}`` with ``summary`` ``None`` (and ``status``
    ``"interrupted"``) for runs whose summary never landed — sorted by
    start time.  Unreadable files are skipped, so a half-written stream
    never breaks ``repro runs list``.
    """
    entries: list[dict[str, Any]] = []
    if not os.path.isdir(directory):
        return entries
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        run = TelemetryTail(os.path.join(directory, name))
        try:
            run.poll()
        except (ConfigurationError, OSError, KeyError, ValueError):
            continue
        if run.manifest is not None:
            entries.append({
                "path": run.path, "manifest": run.manifest,
                "summary": run.summary,
                "status": run_status(run.manifest, run.summary),
            })
    entries.sort(key=lambda e: e["manifest"].started)
    return entries


def find_run(
    run_id: str, directory: str = DEFAULT_RUNS_DIR
) -> dict[str, Any]:
    """Locate a ledger entry by (a unique prefix of) its run id."""
    matches = [
        entry for entry in scan_runs(directory)
        if entry["manifest"].run_id.startswith(run_id)
    ]
    if not matches:
        raise ConfigurationError(
            f"no run matching {run_id!r} under {directory!r}"
        )
    if len(matches) > 1:
        ids = ", ".join(e["manifest"].run_id for e in matches)
        raise ConfigurationError(
            f"run id {run_id!r} is ambiguous under {directory!r}: {ids}"
        )
    return matches[0]


# ----------------------------------------------------------------------
# Opt-in trial profiling
# ----------------------------------------------------------------------


def profile_slowest(
    specs: Sequence["TrialSpec"],
    results: Sequence["TrialResult"],
    k: int = 1,
    limit: int = 10,
) -> list[dict[str, Any]]:
    """cProfile the K slowest trials by deterministic re-execution.

    Trials are deterministic, so re-running one under the profiler *after*
    the plan finished reproduces its work exactly without ever slowing (or
    perturbing) the recorded run.  Returns one entry per profiled trial —
    ``{"index", "seed", "wall_time", "functions": [{"function",
    "cumtime_s", "ncalls"}, ...]}`` — hottest functions first, ready to
    embed in the telemetry summary.
    """
    import cProfile
    import pstats

    if k < 1:
        raise ConfigurationError(f"profile count must be >= 1, got {k}")
    from repro.engine.executor import execute_trial

    by_index = {spec.index: spec for spec in specs}
    # Quarantined trials overran the watchdog budget every attempt;
    # re-running one unguarded could hang the profiler indefinitely.
    eligible = [r for r in results if getattr(r, "status", "") != "quarantined"]
    slowest = sorted(eligible, key=lambda r: r.wall_time, reverse=True)[:k]
    profiles: list[dict[str, Any]] = []
    for result in slowest:
        spec = by_index.get(result.index)
        if spec is None:
            continue
        profiler = cProfile.Profile()
        profiler.enable()
        execute_trial(spec)
        profiler.disable()
        stats = pstats.Stats(profiler)
        rows = sorted(
            stats.stats.items(),  # type: ignore[attr-defined]
            key=lambda item: item[1][3],  # cumulative time
            reverse=True,
        )
        functions = []
        for (filename, lineno, func), row in rows[:limit]:
            ncalls, _, _, cumtime = row[0], row[1], row[2], row[3]
            where = f"{os.path.basename(filename)}:{lineno}" \
                if filename != "~" else "builtin"
            functions.append({
                "function": f"{func} ({where})",
                "cumtime_s": round(cumtime, 6),
                "ncalls": ncalls,
            })
        profiles.append({
            "index": result.index,
            "seed": result.seed,
            "wall_time": round(result.wall_time, 6),
            "functions": functions,
        })
    return profiles


def render_profiles(profiles: Sequence[Mapping[str, Any]]) -> str:
    """Human-readable table of :func:`profile_slowest` output."""
    from repro.analysis.tables import render_table

    blocks = []
    for profile in profiles:
        rows = [
            [f["function"], f"{f['cumtime_s']:.4f}", f["ncalls"]]
            for f in profile.get("functions", [])
        ]
        blocks.append(render_table(
            ["function", "cum s", "calls"], rows,
            title=(f"trial {profile['index']} (seed {profile['seed']}, "
                   f"{profile['wall_time']:.3f}s wall)"),
        ))
    return "\n".join(blocks)
