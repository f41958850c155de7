"""Engine run telemetry, the write side: the recorder of the run ledger.

:class:`TelemetryRecorder` gives every run a durable, streamable
self-description: an append-only ``telemetry.jsonl`` file beside the
result document (``repro-run-telemetry`` v1, see :mod:`repro.obs.spans`)
holding the :class:`~repro.obs.ledger.RunManifest` line (``run_id``, the
:class:`~repro.engine.spec.ExecutorSpec`, a plan digest, versions, host
info), the executor's hierarchical spans (run → dispatch → chunk → trial,
with calibration / warm-up / quarantine annotated) and a final
``summary``.  Every line is flushed on write so ``repro top`` can tail
the live file.  The summary's counts and per-worker health are the
:class:`~repro.obs.ledger.RunFold` of the records written — the fold
``repro top`` runs over the file.  The read side is :mod:`repro.obs.ledger`.

Determinism contract (the faults/resilience idiom): telemetry is pure
observation.  ``run_plan(plan, telemetry=...)`` produces the byte-identical
result document to ``run_plan(plan)`` under every backend, chunk size and
stream container — pinned by the engine conformance matrix
(``tests/engine/test_conformance.py``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import IO, TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.obs.codec import open_journal
from repro.obs.ledger import DEFAULT_RUNS_DIR, RunFold, RunManifest
from repro.obs.spans import Span, SpanTracer
from repro.sim.errors import ConfigurationError
from repro.version import package_version

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import ExperimentPlan, TrialSpec
    from repro.engine.results import TrialResult

#: Filename suffix every ledger entry carries.
TELEMETRY_SUFFIX = ".telemetry.jsonl"

_encode = json.JSONEncoder(sort_keys=True).encode  # one encoder for every line


def new_run_id() -> str:
    """A sortable, collision-safe run id: UTC stamp + random tail."""
    # ``uuid``, ``socket`` and ``platform`` load where a manifest is
    # written, not in every process that imports the engine.
    import uuid

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
    import platform
    import socket

    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
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
        #: The fold of every record written: the summary's counts and
        #: per-worker health.
        self.fold = RunFold()
        self._profiles: list[dict[str, Any]] = []
        self._recovery = dict.fromkeys((
            "worker_respawns", "chunks_redispatched", "trials_redispatched",
            "poison_quarantined",
        ), 0)
        self._resumed_trials: int | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Stream plumbing
    # ------------------------------------------------------------------

    def _write(self, record: Mapping[str, Any]) -> None:
        with self._lock:
            self.fold.add(record)
            if self._journal is None:
                self._journal = open_journal(self.path)
            self._journal.write(_encode(record) + "\n")

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
            self.tracer.finish(self._run_span, trials=self.fold.trials_done)
            self._run_span = None
        summary: dict[str, Any] = {
            "type": "summary",
            "run_id": self.run_id,
            "finished": time.time(),
            "trials": self.fold.trials_done,
            "counts": dict(self.fold.counts),
            "workers": [
                health.to_record()
                for _, health in sorted(self.fold.workers.items())
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

    def _trial_attrs(
        self, spec: "TrialSpec", result: "TrialResult", worker: int
    ) -> dict[str, Any]:
        attrs: dict[str, Any] = {
            "index": spec.index,
            "seed": spec.seed,
            "ok": bool(getattr(result, "ok", False)),
            "worker": worker,
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
        attrs = self._trial_attrs(
            spec, result, worker if worker is not None else os.getpid()
        )
        self.tracer.emit(
            "calibration" if calibration else "trial", t0, t1,
            parent=parent if parent is not None else self._run_span, **attrs,
        )

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
        chunk_span = self.tracer.emit(
            "chunk", t0, t1, parent=parent,
            worker=pid, trials=len(specs),
            queue_wait_s=round(max(0.0, t0 - submitted), 6),
            rss_kb=float(meta.get("rss_kb", 0.0)),
        )
        trial_times = meta.get("trials", ())
        for spec, result, times in zip(specs, results, trial_times):
            attrs = self._trial_attrs(spec, result, pid)
            self.tracer.emit(
                "trial", float(times[0]), float(times[1]),
                parent=chunk_span, **attrs,
            )

    def record_profiles(self, profiles: Iterable[Mapping[str, Any]]) -> None:
        """Attach :func:`~repro.obs.ledger.profile_slowest` output to the
        summary record."""
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
