"""The ``repro-run-checkpoint`` v1 journal: durable per-trial run state.

Layout (a JSONL journal under the contract of :mod:`repro.obs.codec`:
header line, one flushed line per trial, torn-tail and corrupt-line rules):

* line 1 — the header: ``{"type": "checkpoint", "schema":
  "repro-run-checkpoint", "version": 1, "plan": {...}, "plan_digest":
  "...", "executor": {...}, "n_trials": N, ...}``.  ``plan_digest`` is
  :func:`repro.engine.telemetry.plan_digest` over the full spec list, so
  a checkpoint can never be resumed against a different plan.
* every further line — one completed trial: ``{"type": "trial",
  "index": i, "digest": "...", "record": {...}}``.  ``record`` is the
  trial's full document record (timing included, so both canonical and
  ``include_timing`` documents can be reassembled); ``digest`` is
  :func:`record_digest` over it, catching on-disk corruption.

The loader keeps the valid prefix and the writer resumes after it, so the
journal is always a valid prefix plus new lines.  Trial identity fields
are **not trusted from disk**: a resumed
:class:`~repro.engine.results.TrialResult` is rebuilt from the journal's
payload fields plus the *parent's* copy of the spec, exactly like the
executor's wire transport, so the reassembled document is byte-identical
to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any, Mapping

from repro.engine.results import TrialResult, jsonable, record_fields, timed_record
from repro.engine.telemetry import plan_digest
from repro.obs.codec import CorruptLineError, JournalScan, check_header, open_journal
from repro.sim.errors import ConfigurationError
from repro.version import package_version

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import ExperimentPlan, TrialSpec

#: Journal schema identifier and version; bump on any layout change.
CHECKPOINT_SCHEMA = "repro-run-checkpoint"
CHECKPOINT_VERSION = 1

#: Versions this engine can still resume from.
SUPPORTED_CHECKPOINT_VERSIONS = (1,)


class CheckpointError(ConfigurationError):
    """A checkpoint journal cannot be used: wrong schema, a plan-digest
    mismatch, or a missing file named by ``resume_from=``.  Subclasses
    :class:`~repro.sim.errors.ConfigurationError` so existing broad
    handlers keep working."""


def _encode_record(record: Mapping[str, Any]) -> tuple[str, str]:
    """One trial record as canonical JSON, and the digest of those bytes."""
    blob = json.dumps(record, sort_keys=True)
    return blob, hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def record_digest(record: Mapping[str, Any]) -> str:
    """Integrity digest of one trial record (canonical JSON, sha256/16)."""
    return _encode_record(record)[1]


def result_from_record(
    record: Mapping[str, Any], spec: "TrialSpec"
) -> TrialResult:
    """Rebuild a full :class:`TrialResult` from a journal record plus the
    parent's spec.  Identity fields (index / kind / seed / trial / point)
    come from the spec — never from disk — mirroring the executor's
    ``_unpack_result``, so rehydrated results group and serialise exactly
    like freshly executed ones."""
    return TrialResult.from_spec(spec, **record_fields(record))


@dataclass
class CheckpointState:
    """The loaded contents of a checkpoint journal.

    ``records`` maps plan index → trial record for every valid journal
    line; ``valid_bytes`` is the byte length of the valid prefix (a
    writer truncates to it before appending, discarding any torn tail).
    """

    path: str
    header: dict[str, Any]
    records: dict[int, dict[str, Any]] = field(default_factory=dict)
    valid_bytes: int = 0

    @property
    def plan_digest(self) -> str:
        return str(self.header.get("plan_digest", ""))

    @property
    def n_trials(self) -> int:
        return int(self.header.get("n_trials", 0))

    @property
    def completed(self) -> set[int]:
        return set(self.records)

    def verify_plan(self, plan: "ExperimentPlan") -> None:
        """Raise :class:`CheckpointError` unless this journal belongs to
        ``plan`` (same digest — same grid, seeds, order)."""
        digest = plan_digest(plan)
        if digest != self.plan_digest:
            raise CheckpointError(
                f"{self.path}: checkpoint belongs to a different plan "
                f"(journal digest {self.plan_digest!r}, plan digest "
                f"{digest!r}); refusing to resume"
            )

    def results_for(self, plan: "ExperimentPlan") -> dict[int, TrialResult]:
        """Rehydrate every journalled trial against ``plan``'s specs."""
        self.verify_plan(plan)
        by_index = {spec.index: spec for spec in plan.specs}
        out: dict[int, TrialResult] = {}
        for index, record in self.records.items():
            spec = by_index.get(index)
            if spec is None:  # pragma: no cover - digest match prevents this
                raise CheckpointError(
                    f"{self.path}: journalled trial index {index} is not in "
                    f"the plan"
                )
            out[index] = result_from_record(record, spec)
        return out


def load_checkpoint(
    path: str, plan: "ExperimentPlan | None" = None
) -> CheckpointState:
    """Load a checkpoint journal, keeping its valid prefix.

    A torn final line, a corrupt line, an entry that fails its integrity
    digest or has an unexpected type each end the scan with a warning;
    what follows re-executes (:attr:`CheckpointState.valid_bytes` is where
    a writer resumes).  With ``plan`` given, the journal's plan digest is
    verified up front.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint journal at {path!r}")
    scan = JournalScan(path)
    entries = iter(scan)
    try:
        header = next(entries, None)
        if header is None:
            raise CheckpointError(f"{path}: empty checkpoint journal")
        check_header(header, CHECKPOINT_SCHEMA, SUPPORTED_CHECKPOINT_VERSIONS,
                     "checkpoint", path)
    except ConfigurationError as error:
        raise CheckpointError(str(error)) from None
    state = CheckpointState(path=str(path), header=header, valid_bytes=scan.offset)
    problem = ""
    try:
        for entry in entries:
            record = entry.get("record")
            if entry.get("type") != "trial":
                problem = (f"unexpected checkpoint entry type "
                           f"{entry.get('type')!r} at line {scan.line}; scan stopped")
                break
            if not isinstance(record, dict) or entry.get("digest") != record_digest(record):
                problem = (f"checkpoint entry for trial {entry.get('index')!r} "
                           "failed its integrity digest; it and everything "
                           "after it will re-execute")
                break
            index = int(entry["index"])
            if index in state.records:
                warnings.warn(
                    f"{path}: duplicate checkpoint entry for trial {index} ignored",
                    RuntimeWarning, stacklevel=2,
                )
            else:
                state.records[index] = record
            state.valid_bytes = scan.offset
    except CorruptLineError:
        problem = (f"corrupt checkpoint line {scan.line} dropped along with "
                   "everything after it")
    if problem:
        warnings.warn(f"{path}: {problem}", RuntimeWarning, stacklevel=2)
    scan.warn_torn("checkpoint", "the trial will re-execute")
    if plan is not None:
        state.verify_plan(plan)
    return state


class CheckpointWriter:
    """Appends completed trials to a checkpoint journal, flushed per line.

    Opening a path that already holds a valid journal for the same plan
    **auto-resumes**: the torn tail (if any) is truncated away, the
    completed set is preloaded (:attr:`preloaded`), and new appends land
    after the valid prefix.  A journal for a *different* plan raises
    :class:`CheckpointError` — a checkpoint is never silently clobbered.
    """

    def __init__(
        self,
        path: str,
        plan: "ExperimentPlan",
        executor: Mapping[str, Any] | None = None,
        run_id: str | None = None,
    ) -> None:
        self.path = str(path)
        self.plan = plan
        self.resumed = False
        self.preloaded: dict[int, TrialResult] = {}
        self._completed: set[int] = set()
        self._journal: IO[str] | None
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            state = load_checkpoint(self.path, plan=plan)
            self.preloaded = state.results_for(plan)
            self._completed = set(self.preloaded)
            self.resumed = True
            self._journal = open_journal(self.path, keep=state.valid_bytes)
        else:
            header = {
                "type": "checkpoint",
                "schema": CHECKPOINT_SCHEMA,
                "version": CHECKPOINT_VERSION,
                "created": time.time(),
                "plan": jsonable(plan.meta() if hasattr(plan, "meta") else {}),
                "plan_digest": plan_digest(plan),
                "executor": dict(executor or {}),
                "n_trials": len(plan.specs),
                "repro_version": package_version(),
            }
            if run_id is not None:
                header["run_id"] = run_id
            self._journal = open_journal(self.path, header)

    @property
    def completed(self) -> set[int]:
        return set(self._completed)

    def append(self, result: TrialResult) -> None:
        """Journal one completed trial (idempotent per plan index).  The
        record (shared with the trial's stream line) is encoded once: the
        digest is taken over the very bytes spliced into the line, which is
        what ``json.dumps(entry, sort_keys=True)`` writes for the entry
        ``{"digest", "index", "record", "type"}``, byte for byte."""
        if self._journal is None:
            raise CheckpointError(f"{self.path}: checkpoint writer is closed")
        if result.index in self._completed:
            return
        blob, digest = _encode_record(timed_record(result))
        self._journal.write(
            f'{{"digest": "{digest}", "index": {result.index:d}, '
            f'"record": {blob}, "type": "trial"}}\n'
        )
        self._completed.add(result.index)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def resolve_checkpoint(
    checkpoint: "CheckpointWriter | str | None",
    resume_from: "CheckpointState | str | None",
    plan: "ExperimentPlan",
    executor: Mapping[str, Any] | None = None,
    run_id: str | None = None,
) -> tuple["CheckpointWriter | None", dict[int, TrialResult], str | None]:
    """Normalise the ``checkpoint=`` / ``resume_from=`` run arguments.

    Returns ``(writer, preloaded, path)``: ``writer`` journals the run's
    new trials (``None`` when no checkpoint was requested), ``preloaded``
    maps plan index → already-completed result (from ``resume_from``, the
    auto-resumed ``checkpoint`` journal, or both), and ``path`` is the
    journal path for the run manifest.  Both sources are plan-digest
    verified; giving the *same* path as ``checkpoint=`` and running the
    command twice is the idempotent resume idiom.
    """
    preloaded: dict[int, TrialResult] = {}
    if resume_from is not None:
        if isinstance(resume_from, CheckpointState):
            state = resume_from
            state.verify_plan(plan)
        else:
            state = load_checkpoint(str(resume_from), plan=plan)
        preloaded.update(state.results_for(plan))
    writer: CheckpointWriter | None = None
    if checkpoint is not None:
        if isinstance(checkpoint, CheckpointWriter):
            writer = checkpoint
        else:
            writer = CheckpointWriter(
                str(checkpoint), plan, executor=executor, run_id=run_id
            )
        preloaded.update(writer.preloaded)
        # Trials resumed from elsewhere still belong in this journal so
        # it becomes self-contained for the *next* resume.
        for result in preloaded.values():
            writer.append(result)
    path = writer.path if writer is not None else (
        str(resume_from) if isinstance(resume_from, str) else None
    )
    return writer, preloaded, path
