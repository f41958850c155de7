"""Declarative executor specifications.

The fault plane made the adversary declarative (:class:`FaultPlan`), the
resilience plane made the defence declarative (:class:`ResilienceSpec`);
:class:`ExecutorSpec` does the same for *where and how trials run*.  It is
plain, frozen, picklable data — backend choice, worker count, chunking
policy, watchdog budget — sharing the spec wire kernel (:mod:`repro.wire`:
lossless JSON, builtin presets, ``resolve``) with its siblings, and it is
the single blessed way to configure execution::

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

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.sim.errors import ConfigurationError
from repro.wire import WireSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.executor import TrialExecutor

#: JSON schema identifier for serialised specs.
SPEC_SCHEMA = "repro-executor-spec"
SPEC_VERSION = 1

#: The backends a spec may name.
BACKENDS = ("serial", "parallel")


@dataclass(frozen=True)
class ExecutorSpec(WireSpec):
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

    The wire format is ``repro-executor-spec`` v1 (:mod:`repro.wire`);
    ``resolve(None)`` is the ``serial`` preset.  Already-built
    :class:`~repro.engine.executor.TrialExecutor` instances are accepted
    directly by :func:`run_plan` / :func:`stream_plan` and never reach
    ``resolve``.
    """

    SCHEMA = SPEC_SCHEMA
    LABEL = "executor spec"

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

    @classmethod
    def _active(cls, spec: "ExecutorSpec | None") -> "ExecutorSpec":
        return spec or cls.PRESETS["serial"]


#: Builtin execution policies, selectable by name anywhere a spec is
#: accepted (``run_plan(plan, executor="parallel")``, CLI ``--executor``).
EXECUTOR_PRESETS = ExecutorSpec.PRESETS = {
    "serial": ExecutorSpec(name="serial", backend="serial"),
    "parallel": ExecutorSpec(name="parallel", backend="parallel"),
    "parallel-unchunked": ExecutorSpec(
        name="parallel-unchunked", backend="parallel", chunk=1
    ),
    "guarded": ExecutorSpec(
        name="guarded", backend="parallel", watchdog=300.0, trial_retries=1
    ),
}

# The blessed functional spellings (repro.api) of the kernel methods.
executor_preset = ExecutorSpec.preset
resolve_executor = ExecutorSpec.resolve
