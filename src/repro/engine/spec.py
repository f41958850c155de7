"""Declarative executor specifications.

The fault plane made the adversary declarative (:class:`FaultPlan`), the
resilience plane made the defence declarative (:class:`ResilienceSpec`);
:class:`ExecutorSpec` does the same for *where and how trials run*.  It is
plain, frozen, picklable data — backend choice, worker count, chunking
policy, watchdog budget — with the same lossless JSON wire format
(``repro-executor-spec`` v1), builtin presets and ``resolve_*`` idiom as
its siblings, and it is the single blessed way to configure execution::

    from repro.api import ExecutorSpec, build_plan, run_plan

    store = run_plan(plan, executor=ExecutorSpec.parallel(jobs=4))
    store = run_plan(plan, executor="parallel")          # preset name
    store = run_plan(plan)                               # serial default

Determinism contract: the spec configures *wall-clock shape only*.  For a
fixed plan, every spec — serial or parallel, any worker count, any chunk
size — produces the byte-identical canonical result document.  The chunk
layout, worker scheduling and calibration trial can never leak into
results; ``tests/engine/test_chunking.py`` pins this.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping

from repro.sim.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.executor import TrialExecutor

#: JSON schema identifier for serialised specs.
SPEC_SCHEMA = "repro-executor-spec"
SPEC_VERSION = 1

#: The backends a spec may name.
BACKENDS = ("serial", "parallel")


@dataclass(frozen=True)
class ExecutorSpec:
    """One complete execution policy for a plan's trials.

    Attributes:
        name: optional label (presets set it; it never affects behavior).
        backend: ``"serial"`` (in-process, the reference backend) or
            ``"parallel"`` (persistent warm worker pool).
        jobs: worker count for the parallel backend; ``None`` means the
            machine's CPU count.  Ignored by the serial backend.
        chunk: trials per dispatched task for the parallel backend.
            ``None`` selects adaptive chunking: one cheap calibration
            trial runs in the parent and the chunk size is sized so each
            task carries about ``chunk_target`` seconds of work.  ``1``
            restores per-trial dispatch.  Chunking never affects results.
        chunk_target: adaptive-chunking wall-time target per task, in
            seconds.  Only consulted when ``chunk`` is ``None``.
        watchdog: per-trial wall-clock timeout in seconds (``None``
            disables the guard — the historical code path).
        trial_retries: watchdog retries per trial before the trial is
            quarantined (see
            :func:`repro.engine.executor.execute_trial_guarded`).  The
            same knob scales the self-healing pool's patience with trials
            that *kill* their worker outright: a suspect trial gets
            ``trial_retries + 1`` isolated re-runs before being declared
            poison and quarantined in place (see
            :mod:`repro.engine.recovery.healing` and docs/RECOVERY.md).
    """

    name: str = ""
    backend: str = "serial"
    jobs: int | None = None
    chunk: int | None = None
    chunk_target: float = 0.25
    watchdog: float | None = None
    trial_retries: int = 0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown executor backend {self.backend!r}; use "
                f"{' or '.join(BACKENDS)}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk is not None and self.chunk < 1:
            raise ConfigurationError(
                f"chunk must be >= 1 trials per task, got {self.chunk}"
            )
        if self.chunk_target <= 0.0:
            raise ConfigurationError(
                f"chunk_target must be > 0 seconds, got {self.chunk_target}"
            )
        if self.watchdog is not None and self.watchdog <= 0.0:
            raise ConfigurationError(
                f"watchdog must be > 0 seconds, got {self.watchdog}"
            )
        if self.trial_retries < 0:
            raise ConfigurationError(
                f"trial_retries must be >= 0, got {self.trial_retries}"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def serial(cls, **kwargs: Any) -> "ExecutorSpec":
        """The in-process reference backend."""
        return cls(backend="serial", **kwargs)

    @classmethod
    def parallel(cls, jobs: int | None = None, **kwargs: Any) -> "ExecutorSpec":
        """The warm-pool backend (``jobs=None`` uses every CPU)."""
        return cls(backend="parallel", jobs=jobs, **kwargs)

    def effective_jobs(self) -> int:
        """The worker count this spec resolves to on this machine."""
        if self.backend == "serial":
            return 1
        return self.jobs if self.jobs is not None else (os.cpu_count() or 1)

    def make(self) -> "TrialExecutor":
        """Materialise the backend this spec describes."""
        from repro.engine.executor import ParallelExecutor, SerialExecutor

        if self.backend == "serial" or self.effective_jobs() == 1:
            return SerialExecutor(
                watchdog=self.watchdog, retries=self.trial_retries
            )
        return ParallelExecutor(
            jobs=self.jobs,
            watchdog=self.watchdog,
            retries=self.trial_retries,
            chunk=self.chunk,
            chunk_target=self.chunk_target,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (lossless; see :meth:`from_dict`)."""
        record: dict[str, Any] = {
            "schema": SPEC_SCHEMA,
            "version": SPEC_VERSION,
        }
        for spec_field in fields(self):
            record[spec_field.name] = getattr(self, spec_field.name)
        return record

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, indent 2, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "ExecutorSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        if record.get("schema", SPEC_SCHEMA) != SPEC_SCHEMA:
            raise ConfigurationError(
                f"not a {SPEC_SCHEMA} document "
                f"(schema={record.get('schema')!r})"
            )
        version = record.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigurationError(
                f"unsupported executor spec version {version!r}; this "
                f"release reads version {SPEC_VERSION}"
            )
        params = {
            key: value for key, value in record.items()
            if key not in ("schema", "version")
        }
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown executor spec field(s) {unknown}; known: "
                f"{', '.join(sorted(known))}"
            )
        return cls(**params)

    @classmethod
    def from_json(cls, text: str) -> "ExecutorSpec":
        return cls.from_dict(json.loads(text))


#: Builtin execution policies, selectable by name anywhere a spec is
#: accepted (``run_plan(plan, executor="parallel")``, CLI ``--executor``).
EXECUTOR_PRESETS: dict[str, ExecutorSpec] = {
    "serial": ExecutorSpec(name="serial", backend="serial"),
    "parallel": ExecutorSpec(name="parallel", backend="parallel"),
    "parallel-unchunked": ExecutorSpec(
        name="parallel-unchunked", backend="parallel", chunk=1
    ),
    "guarded": ExecutorSpec(
        name="guarded", backend="parallel", watchdog=300.0, trial_retries=1
    ),
}


def executor_preset(name: str) -> ExecutorSpec:
    """Look up a builtin :class:`ExecutorSpec` by name."""
    try:
        return EXECUTOR_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor preset {name!r}; builtin presets: "
            f"{', '.join(sorted(EXECUTOR_PRESETS))}"
        ) from None


def resolve_executor(
    executor: "ExecutorSpec | str | None",
) -> ExecutorSpec:
    """Normalise an ``executor=`` argument to an :class:`ExecutorSpec`.

    Accepts a spec, a builtin preset name (see :data:`EXECUTOR_PRESETS`)
    or ``None`` (the serial default) — the same idiom as
    :func:`repro.faults.spec.resolve_faults` and
    :func:`repro.resilience.spec.resolve_resilience`.  Already-built
    :class:`~repro.engine.executor.TrialExecutor` instances are accepted
    directly by :func:`run_plan` / :func:`stream_plan` and never reach
    this function.
    """
    if executor is None:
        return EXECUTOR_PRESETS["serial"]
    if isinstance(executor, str):
        return executor_preset(executor)
    if isinstance(executor, ExecutorSpec):
        return executor
    raise ConfigurationError(
        f"'executor' must be an ExecutorSpec, a preset name or None, "
        f"got {type(executor).__name__}"
    )
