"""Engine run telemetry: the run ledger, live tailing and trial profiling.

The experiment engine used to be a black box: the warm pool forked, chunks
flew, and the only artifact was the final result document.  This module
gives every run a durable, streamable self-description:

* :class:`RunManifest` — who/what/where of a run: ``run_id``, the
  :class:`~repro.engine.spec.ExecutorSpec`, a plan digest, repro and
  result-schema versions, host info.  Written as the first line of the
  telemetry stream, it *is* the run ledger entry.
* :class:`TelemetryRecorder` — owns the append-only ``telemetry.jsonl``
  file beside the result document (``repro-run-telemetry`` v1, see
  :mod:`repro.obs.spans`), receives the executor's hierarchical spans
  (run → dispatch → chunk → trial, with calibration / warm-up /
  quarantine annotated), aggregates per-worker health (busy time, queue
  wait, utilization, trials/sec, peak RSS) and writes the final
  ``summary`` record.  Every line is flushed on write so a concurrent
  ``repro top`` can tail the live file.
* :class:`TelemetryTail` — the incremental reader behind ``repro top``:
  polls a (possibly still growing) stream, maintains progress / ETA /
  per-worker state, renders the live table.
* :func:`scan_runs` / :func:`find_run` — the ledger view behind
  ``repro runs list|show``: every ``*.telemetry.jsonl`` under a directory
  is one run, keyed by its manifest.
* :func:`profile_slowest` — opt-in cProfile sampling: deterministically
  re-runs the K slowest trials under the profiler *after* the plan
  finishes (re-running never perturbs the recorded run) and surfaces the
  hottest functions in the telemetry summary.

Determinism contract (the faults/resilience idiom): telemetry is pure
observation.  ``run_plan(plan, telemetry=...)`` produces the byte-identical
result document to ``run_plan(plan)`` under every backend, chunk size and
stream container — pinned by ``tests/engine/test_telemetry.py``.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.obs.codec import JournalScan, open_journal
from repro.obs.spans import (
    Span,
    SpanTracer,
    TELEMETRY_SCHEMA,
    TELEMETRY_VERSION,
    read_telemetry,
)
from repro.sim.errors import ConfigurationError
from repro.version import package_version

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import ExperimentPlan, TrialSpec
    from repro.engine.results import TrialResult

#: Default ledger directory for runs that have no result-document anchor.
DEFAULT_RUNS_DIR = os.path.join(".repro", "runs")

#: Filename suffix every ledger entry carries.
TELEMETRY_SUFFIX = ".telemetry.jsonl"


def new_run_id() -> str:
    """A sortable, collision-safe run id: UTC stamp + random tail."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


def plan_digest(plan: "ExperimentPlan") -> str:
    """A stable hex digest of a plan's full spec list
    (:attr:`ExperimentPlan.digest <repro.engine.plan.ExperimentPlan.digest>`).

    Two runs with the same digest executed the same trials (same grid,
    base config, seeds and order), so ledger consumers can group repeats
    and detect drift without re-reading result documents.
    """
    return plan.digest


def host_info() -> dict[str, Any]:
    """The host fields of a run manifest."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
    }


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
        record: dict[str, Any] = {
            "type": "manifest",
            "schema": TELEMETRY_SCHEMA,
            "version": TELEMETRY_VERSION,
            "run_id": self.run_id,
            "started": self.started,
            "started_iso": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(self.started)
            ),
            "plan": dict(self.plan),
            "executor": dict(self.executor),
            "host": dict(self.host),
            "repro_version": self.repro_version,
            "result_schema": dict(self.result_schema),
        }
        if self.cli is not None:
            record["cli"] = dict(self.cli)
        if self.checkpoint is not None:
            record["checkpoint"] = self.checkpoint
        if self.resumed_from is not None:
            record["resumed_from"] = self.resumed_from
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "RunManifest":
        return cls(
            run_id=record["run_id"],
            started=record["started"],
            plan=dict(record.get("plan", {})),
            executor=dict(record.get("executor", {})),
            host=dict(record.get("host", {})),
            repro_version=record.get("repro_version", ""),
            result_schema=dict(record.get("result_schema", {})),
            cli=dict(record["cli"]) if record.get("cli") else None,
            checkpoint=record.get("checkpoint"),
            resumed_from=record.get("resumed_from"),
        )


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

    def observe_chunk(
        self,
        t0: float,
        t1: float,
        trials: int,
        queue_wait: float,
        rss_kb: float,
    ) -> None:
        self.chunks += 1
        self.trials += trials
        self.busy_s += max(0.0, t1 - t0)
        self.queue_wait_s += max(0.0, queue_wait)
        self.rss_kb_max = max(self.rss_kb_max, rss_kb)
        self.first_start = min(self.first_start, t0)
        self.last_end = max(self.last_end, t1)

    @property
    def lifetime_s(self) -> float:
        if self.last_end <= self.first_start:
            return 0.0
        return self.last_end - self.first_start

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


class TelemetryRecorder:
    """Writes one run's ``repro-run-telemetry`` stream.

    Usage (what :func:`repro.engine.executor.run_plan` does internally)::

        recorder = TelemetryRecorder("results.telemetry.jsonl")
        recorder.open_run(plan, executor_desc)
        ...   # the executor emits spans through the recorder
        recorder.close()

    The recorder is attached to a backend for the duration of one plan
    (``backend.telemetry = recorder``); the executor calls the
    ``record_*`` hooks from its dispatch loops.  All writes happen in the
    parent process and are line-buffered + flushed, so the stream is
    tail-able while the run is live.
    """

    def __init__(
        self,
        path: str | None = None,
        directory: str | None = None,
        run_id: str | None = None,
        cli: Mapping[str, Any] | None = None,
        resumed_from: str | None = None,
    ) -> None:
        if path is not None and directory is not None:
            raise ConfigurationError(
                "give either 'path' or 'directory', not both"
            )
        self.run_id = run_id if run_id is not None else new_run_id()
        self._cli = dict(cli) if cli is not None else None
        self._resumed_from = resumed_from
        if path is None:
            base = directory if directory is not None else DEFAULT_RUNS_DIR
            path = os.path.join(base, f"run-{self.run_id}{TELEMETRY_SUFFIX}")
        self.path = str(path)
        self.manifest: RunManifest | None = None
        self.tracer = SpanTracer(self._write_span)
        self._journal: IO[str] | None = None
        self._lock = threading.Lock()
        self._run_span: Any = None
        self._counts = {"ok": 0, "failed": 0, "skipped": 0, "quarantined": 0}
        self._trials = 0
        self._workers: dict[int, WorkerHealth] = {}
        self._profiles: list[dict[str, Any]] = []
        self._recovery = {
            "worker_respawns": 0,
            "chunks_redispatched": 0,
            "trials_redispatched": 0,
            "poison_quarantined": 0,
        }
        self._resumed_trials: int | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Stream plumbing
    # ------------------------------------------------------------------

    def _write(self, record: Mapping[str, Any]) -> None:
        with self._lock:
            if self._journal is None:
                self._journal = open_journal(self.path)
            self._journal.write(json.dumps(record, sort_keys=True) + "\n")

    def _close_journal(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    def _write_span(self, span: Span) -> None:
        self._write(span.to_record())

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------

    def open_run(
        self,
        plan: "ExperimentPlan | Mapping[str, Any]",
        executor: Mapping[str, Any] | None = None,
        cli: Mapping[str, Any] | None = None,
        checkpoint: str | None = None,
        resumed_trials: int | None = None,
    ) -> RunManifest:
        """Write the manifest line and open the root ``run`` span.

        ``checkpoint`` records the run's journal path in the manifest
        (what ``repro resume`` follows); ``resumed_trials`` is how many
        trials were preloaded from a checkpoint rather than executed —
        it lands in the summary so the ledger can mark resumed runs.
        """
        from repro.engine.results import SCHEMA_NAME, SCHEMA_VERSION

        if self.manifest is not None:
            return self.manifest
        if hasattr(plan, "meta"):
            plan_meta = dict(plan.meta())
            plan_meta["digest"] = plan_digest(plan)  # type: ignore[arg-type]
        else:
            plan_meta = dict(plan or {})
        self._resumed_trials = resumed_trials
        self.manifest = RunManifest(
            run_id=self.run_id,
            started=time.time(),
            plan=plan_meta,
            executor=dict(executor or {}),
            host=host_info(),
            repro_version=package_version(),
            result_schema={"name": SCHEMA_NAME, "version": SCHEMA_VERSION},
            cli=cli if cli is not None else self._cli,
            checkpoint=checkpoint,
            resumed_from=self._resumed_from,
        )
        self._write(self.manifest.to_record())
        self._run_span = self.tracer.begin("run", run_id=self.run_id)
        return self.manifest

    @property
    def run_span(self) -> Any:
        """The open root span (valid between open_run and close)."""
        return self._run_span

    def close(self) -> dict[str, Any]:
        """Finish the run span and append the ``summary`` record."""
        if self._closed:
            return {}
        self._closed = True
        if self._run_span is not None:
            self.tracer.finish(self._run_span, trials=self._trials)
            self._run_span = None
        summary: dict[str, Any] = {
            "type": "summary",
            "run_id": self.run_id,
            "finished": time.time(),
            "trials": self._trials,
            "counts": dict(self._counts),
            "workers": [
                self._workers[pid].to_record()
                for pid in sorted(self._workers)
            ],
        }
        if self.manifest is not None:
            summary["wall_s"] = round(
                summary["finished"] - self.manifest.started, 6
            )
        if self._resumed_trials is not None:
            summary["resumed_trials"] = self._resumed_trials
        if any(self._recovery.values()):
            summary["recovery"] = {
                f"engine.recovery.{key}": value
                for key, value in self._recovery.items()
            }
        if self._profiles:
            summary["profile"] = list(self._profiles)
        self._write(summary)
        self._close_journal()
        return summary

    def abort(self) -> None:
        """Close the stream *without* a summary record.

        Called when the run dies (SIGINT, a crashed plan): every span
        written so far stays durable, and the missing summary is exactly
        what marks the ledger entry ``interrupted`` — a summary would
        falsely declare the run complete.
        """
        if self._closed:
            return
        self._closed = True
        self._run_span = None
        self._close_journal()

    def __enter__(self) -> "TelemetryRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Executor hooks
    # ------------------------------------------------------------------

    def _count(self, result: "TrialResult") -> None:
        self._trials += 1
        if getattr(result, "status", "") == "quarantined":
            self._counts["quarantined"] += 1
        elif not getattr(result, "terminated", True):
            self._counts["skipped"] += 1
        elif getattr(result, "ok", False):
            self._counts["ok"] += 1
        else:
            self._counts["failed"] += 1

    def _trial_attrs(
        self, spec: "TrialSpec", result: "TrialResult"
    ) -> dict[str, Any]:
        attrs: dict[str, Any] = {
            "index": spec.index,
            "seed": spec.seed,
            "ok": bool(getattr(result, "ok", False)),
        }
        if not getattr(result, "terminated", True):
            attrs["terminated"] = False
        status = getattr(result, "status", "")
        if status:
            # Quarantine / retry dispositions ride on the span.
            attrs["status"] = status
        return attrs

    def record_trial(
        self,
        spec: "TrialSpec",
        result: "TrialResult",
        t0: float,
        t1: float,
        worker: int | None = None,
        parent: Any = None,
        calibration: bool = False,
    ) -> None:
        """One parent-side trial (serial loop or the calibration trial)."""
        pid = worker if worker is not None else os.getpid()
        attrs = self._trial_attrs(spec, result)
        attrs["worker"] = pid
        name = "calibration" if calibration else "trial"
        self.tracer.emit(
            name, t0, t1,
            parent=parent if parent is not None else self._run_span,
            **attrs,
        )
        health = self._workers.setdefault(pid, WorkerHealth(pid))
        health.observe_chunk(t0, t1, trials=1, queue_wait=0.0,
                             rss_kb=attrs.get("rss_kb", 0.0))
        self._count(result)

    def record_warmup(self, t0: float, t1: float, jobs: int) -> None:
        """The pool fork + pre-import window."""
        self.tracer.emit(
            "warm_pool", t0, t1, parent=self._run_span, jobs=jobs
        )

    def begin_dispatch(self, total: int, chunk: int) -> Any:
        """Open the span covering chunked submission + drain."""
        return self.tracer.begin(
            "dispatch", parent=self._run_span, trials=total, chunk=chunk
        )

    def end_dispatch(self, dispatch: Any, chunks: int) -> None:
        self.tracer.finish(dispatch, chunks=chunks)

    def record_chunk(
        self,
        specs: Sequence["TrialSpec"],
        results: Sequence["TrialResult"],
        meta: Mapping[str, Any],
        submitted: float,
        parent: Any = None,
    ) -> None:
        """One drained worker chunk plus its nested trial spans.

        ``meta`` is the worker-side measurement shipped back with the
        payloads (pid, chunk endpoints, per-trial endpoints, peak RSS);
        ``submitted`` is the parent-side submit time, so ``queue_wait``
        is the task's time in the pool queue before a worker picked it up.
        """
        pid = int(meta.get("pid", 0))
        t0 = float(meta.get("t0", submitted))
        t1 = float(meta.get("t1", t0))
        rss_kb = float(meta.get("rss_kb", 0.0))
        queue_wait = max(0.0, t0 - submitted)
        chunk_span = self.tracer.emit(
            "chunk", t0, t1, parent=parent,
            worker=pid, trials=len(specs),
            queue_wait_s=round(queue_wait, 6), rss_kb=rss_kb,
        )
        trial_times = meta.get("trials", ())
        for spec, result, times in zip(specs, results, trial_times):
            attrs = self._trial_attrs(spec, result)
            attrs["worker"] = pid
            self.tracer.emit(
                "trial", float(times[0]), float(times[1]),
                parent=chunk_span, **attrs,
            )
            self._count(result)
        health = self._workers.setdefault(pid, WorkerHealth(pid))
        health.observe_chunk(
            t0, t1, trials=len(specs), queue_wait=queue_wait, rss_kb=rss_kb
        )

    def record_profiles(self, profiles: Iterable[Mapping[str, Any]]) -> None:
        """Attach :func:`profile_slowest` output to the summary record."""
        self._profiles.extend(dict(p) for p in profiles)

    # ------------------------------------------------------------------
    # Self-healing hooks (engine.recovery.* counters)
    # ------------------------------------------------------------------

    def record_respawn(
        self, t0: float, t1: float, jobs: int, backoff_s: float,
        consecutive: int,
    ) -> None:
        """One warm-pool respawn after a worker death: the span covers
        the backoff sleep plus the fresh fork."""
        self._recovery["worker_respawns"] += 1
        self.tracer.emit(
            "worker_respawned", t0, t1, parent=self._run_span,
            jobs=jobs, backoff_s=round(backoff_s, 6), consecutive=consecutive,
        )

    def record_redispatch(
        self, trials: int, deaths: int, split: bool = False
    ) -> None:
        """One incomplete chunk re-submitted after a pool respawn."""
        now = time.time()
        self._recovery["chunks_redispatched"] += 1
        self._recovery["trials_redispatched"] += trials
        self.tracer.emit(
            "chunk_redispatched", now, now, parent=self._run_span,
            trials=trials, deaths=deaths, split=split,
        )

    def record_poison(self, index: int, kills: int) -> None:
        """One trial quarantined for killing too many workers (the trial
        span itself is emitted through :meth:`record_trial`)."""
        self._recovery["poison_quarantined"] += 1


def resolve_recorder(
    telemetry: "TelemetryRecorder | str | None",
) -> tuple["TelemetryRecorder | None", bool]:
    """Normalise a ``telemetry=`` argument to ``(recorder, owned)``.

    ``None`` disables telemetry; a string is a stream path (the recorder
    is built here and closed by the caller when the run finishes); a
    ready :class:`TelemetryRecorder` is used as-is and left open.
    """
    if telemetry is None:
        return None, False
    if isinstance(telemetry, TelemetryRecorder):
        return telemetry, False
    if isinstance(telemetry, str):
        return TelemetryRecorder(path=telemetry), True
    raise ConfigurationError(
        "'telemetry' must be a TelemetryRecorder, a path or None, got "
        f"{type(telemetry).__name__}"
    )


# ----------------------------------------------------------------------
# Live tailing (repro top)
# ----------------------------------------------------------------------


class TelemetryTail:
    """Incremental reader of a (possibly live) telemetry stream.

    Re-polling picks up only the lines appended since the last poll, so a
    ``repro top`` loop costs O(new records) per refresh.  State mirrors
    what the recorder wrote: manifest, per-status trial counts, chunk
    counters, per-worker health, and the final summary when the run ends.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.manifest: RunManifest | None = None
        self.summary: dict[str, Any] | None = None
        self.trials_done = 0
        self.counts = {"ok": 0, "failed": 0, "skipped": 0, "quarantined": 0}
        self.chunks = 0
        self.workers: dict[int, WorkerHealth] = {}
        self._trial_walls: list[float] = []
        self._scan = JournalScan(self.path)
        self._validated = False

    @property
    def finished(self) -> bool:
        return self.summary is not None

    @property
    def total(self) -> int:
        if self.manifest is None:
            return 0
        return int(self.manifest.plan.get("n_trials", 0))

    def eta_s(self, jobs: int | None = None) -> float:
        """Remaining wall estimate from observed mean trial duration."""
        if not self._trial_walls or self.total == 0:
            return float("nan")
        if jobs is None:
            jobs = max(1, len(self.workers))
        mean = sum(self._trial_walls) / len(self._trial_walls)
        return mean * max(0, self.total - self.trials_done) / max(1, jobs)

    def poll(self) -> int:
        """Consume newly appended complete lines; returns how many.  A torn
        trailing line is re-read whole on a later poll; a corrupt line
        raises (:mod:`repro.obs.codec`)."""
        consumed = 0
        try:
            for record in self._scan:
                self._ingest(record)
                consumed += 1
        except FileNotFoundError:
            pass  # not written yet
        return consumed

    def _ingest(self, record: Mapping[str, Any]) -> None:
        kind = record.get("type")
        if kind == "manifest":
            from repro.obs.spans import validate_manifest

            if not self._validated:
                validate_manifest(record, path=self.path)
                self._validated = True
            self.manifest = RunManifest.from_record(record)
        elif kind == "span":
            self._ingest_span(record)
        elif kind == "summary":
            self.summary = dict(record)

    def _ingest_span(self, record: Mapping[str, Any]) -> None:
        name = record.get("name")
        attrs = record.get("attrs", {})
        t0 = float(record.get("t0", 0.0))
        t1 = float(record.get("t1", t0))
        if name in ("trial", "calibration"):
            self.trials_done += 1
            self._trial_walls.append(t1 - t0)
            status = attrs.get("status", "")
            if status == "quarantined":
                self.counts["quarantined"] += 1
            elif not attrs.get("terminated", True):
                self.counts["skipped"] += 1
            elif attrs.get("ok"):
                self.counts["ok"] += 1
            else:
                self.counts["failed"] += 1
        if name == "chunk":
            self.chunks += 1
            pid = int(attrs.get("worker", 0))
            health = self.workers.setdefault(pid, WorkerHealth(pid))
            health.observe_chunk(
                t0, t1,
                trials=int(attrs.get("trials", 0)),
                queue_wait=float(attrs.get("queue_wait_s", 0.0)),
                rss_kb=float(attrs.get("rss_kb", 0.0)),
            )
        elif name in ("trial", "calibration"):
            pid = int(attrs.get("worker", 0))
            # Parent-side trials (serial / calibration) have no chunk
            # span; account them to their worker directly.
            parent = record.get("parent_id")
            if parent is None or self._is_run_root(parent):
                health = self.workers.setdefault(pid, WorkerHealth(pid))
                health.observe_chunk(t0, t1, trials=1, queue_wait=0.0,
                                     rss_kb=0.0)

    def _is_run_root(self, parent_id: str) -> bool:
        # The run span is always s1 (first id the recorder allocates).
        return parent_id == "s1"

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
        total = self.total or max(self.trials_done, 1)
        done = self.trials_done
        width = 30
        filled = int(width * min(1.0, done / total)) if total else 0
        bar = "#" * filled + "-" * (width - filled)
        if self.finished:
            wall = self.summary.get("wall_s", 0.0) if self.summary else 0.0
            tail = f"done in {wall:.1f}s"
        else:
            eta = self.eta_s()
            tail = f"eta {eta:.1f}s" if eta == eta else "eta --"
        counts = self.counts
        lines.append(
            f"[{bar}] {done}/{total} trials · {counts['ok']} ok, "
            f"{counts['failed']} failed, {counts['skipped']} skipped, "
            f"{counts['quarantined']} quarantined · {self.chunks} chunks "
            f"· {tail}"
        )
        if self.workers:
            rows = []
            for pid in sorted(self.workers):
                w = self.workers[pid]
                rows.append([
                    pid, w.chunks, w.trials, f"{w.busy_s:.2f}",
                    f"{w.utilization * 100:.0f}%",
                    f"{w.trials_per_sec:.2f}",
                    f"{w.queue_wait_mean_s * 1000:.1f}ms",
                    f"{w.rss_kb_max:.0f}",
                ])
            lines.append(render_table(
                ["worker", "chunks", "trials", "busy s", "util",
                 "trials/s", "q-wait", "rss kb"],
                rows, title="workers",
            ))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The run ledger (repro runs list|show)
# ----------------------------------------------------------------------


def load_telemetry(
    path: str,
) -> tuple[RunManifest, list[Span], dict[str, Any] | None]:
    """Read a whole telemetry stream: (manifest, spans, summary|None)."""
    manifest: RunManifest | None = None
    spans: list[Span] = []
    summary: dict[str, Any] | None = None
    for record in read_telemetry(path):
        kind = record.get("type")
        if kind == "manifest":
            manifest = RunManifest.from_record(record)
        elif kind == "span":
            spans.append(Span.from_record(record))
        elif kind == "summary":
            summary = dict(record)
    if manifest is None:
        raise ConfigurationError(f"{path}: telemetry stream has no manifest")
    return manifest, spans, summary


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
    """The ledger: every telemetry stream under ``directory``.

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
        path = os.path.join(directory, name)
        try:
            manifest, _, summary = load_telemetry(path)
        except (ConfigurationError, OSError, KeyError, ValueError):
            continue
        entries.append({
            "path": path, "manifest": manifest, "summary": summary,
            "status": run_status(manifest, summary),
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
