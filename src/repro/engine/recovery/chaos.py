"""Deterministic engine-level fault injection (the harness chaos suite).

The fault plane (:mod:`repro.faults`) breaks the *simulated* system;
this module breaks the **harness itself** — the worker pool, the result
store, the operator's keyboard — at exact, reproducible points, so the
engine conformance matrix (``tests/engine/test_conformance.py``) can prove
that resume-after-every-failure-point reassembles the baseline bytes.

Every injector is count-based (fire on the Nth trial / chunk / append),
never clock-based: a chaos test that passes once passes always.

* :class:`SigintAfter` — a progress hook raising
  :class:`ChaosInterrupt` (a ``KeyboardInterrupt``) after N trial
  completions: the operator hitting Ctrl-C mid-run.
* :class:`KillWorkerAtChunk` — a progress hook that SIGKILLs one warm
  worker when the Nth chunk completes: a hard worker death mid-dispatch
  (OOM killer, node reaper) that the self-healing pool must absorb.
* :class:`ENOSPCAfter` — wraps a result-consuming callable (a store or
  checkpoint append) to raise ``OSError(ENOSPC)`` on the Nth call: the
  disk filling up mid-stream.
* :func:`tear_file_tail` — chops bytes off a file's final line: the
  on-disk aftermath of a crash mid-append, exercising every reader's
  torn-tail recovery.
"""

from __future__ import annotations

import errno
import os
import signal
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import ParallelExecutor
    from repro.engine.results import TrialResult


class ChaosInterrupt(KeyboardInterrupt):
    """The injected SIGINT — a ``KeyboardInterrupt`` subclass so the
    engine's interrupt handling is exercised for real, but
    distinguishable from a genuine Ctrl-C in test assertions."""


def _forward_chunks(progress: Any, dispatched: int, completed: int) -> None:
    update = getattr(progress, "chunk_update", None)
    if callable(update):
        update(dispatched, completed)


class SigintAfter:
    """Progress hook: raise :class:`ChaosInterrupt` after ``trials``
    completions (the result that triggers it is still delivered first,
    matching a real SIGINT landing between trials).  Chains to an inner
    progress callback when given."""

    def __init__(
        self, trials: int, progress: Optional[Callable[..., None]] = None
    ) -> None:
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        self.trials = trials
        self.progress = progress
        self.seen = 0
        self.fired = False

    def __call__(self, done: int, total: int, result: Any) -> None:
        self.seen += 1
        if self.progress is not None:
            self.progress(done, total, result)
        if not self.fired and self.seen >= self.trials:
            self.fired = True
            raise ChaosInterrupt(
                f"chaos: injected SIGINT after {self.seen} trials"
            )

    def chunk_update(self, dispatched: int, completed: int) -> None:
        _forward_chunks(self.progress, dispatched, completed)


class KillWorkerAtChunk:
    """Progress hook: SIGKILL one live warm-pool worker when the Nth
    chunk completes.  The kill lands while later chunks are in flight,
    so the pool breaks mid-dispatch — exactly the failure the
    self-healing executor must absorb without perturbing the document."""

    def __init__(
        self,
        executor: "ParallelExecutor",
        chunk: int = 1,
        progress: Optional[Callable[..., None]] = None,
        sig: int = signal.SIGKILL,
    ) -> None:
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
        self.executor = executor
        self.chunk = chunk
        self.progress = progress
        self.sig = sig
        self.fired = False
        self.victim: int | None = None

    def __call__(self, done: int, total: int, result: Any) -> None:
        if self.progress is not None:
            self.progress(done, total, result)

    def chunk_update(self, dispatched: int, completed: int) -> None:
        _forward_chunks(self.progress, dispatched, completed)
        if self.fired or completed < self.chunk:
            return
        pids = self.executor.worker_pids()
        if not pids:
            return
        self.fired = True
        self.victim = pids[0]
        os.kill(self.victim, self.sig)


class ENOSPCAfter:
    """Wraps a result-consuming callable: the Nth call raises
    ``OSError(ENOSPC)`` *before* delegating, so the failed append writes
    nothing — the disk-full crash a checkpointed run must survive."""

    def __init__(
        self, consume: Callable[["TrialResult"], None], calls: int
    ) -> None:
        if calls < 1:
            raise ConfigurationError(f"calls must be >= 1, got {calls}")
        self.consume = consume
        self.calls = calls
        self.seen = 0

    def __call__(self, result: "TrialResult") -> None:
        self.seen += 1
        if self.seen == self.calls:
            raise OSError(
                errno.ENOSPC,
                f"chaos: injected ENOSPC on append {self.seen}",
            )
        self.consume(result)


def tear_file_tail(path: str, drop_bytes: int = 7) -> int:
    """Simulate a crash mid-append: chop ``drop_bytes`` off the end of
    ``path`` (at least the trailing newline, so the last line is torn).
    Returns the new file size."""
    if drop_bytes < 1:
        raise ConfigurationError(f"drop_bytes must be >= 1, got {drop_bytes}")
    size = os.path.getsize(path)
    if size <= drop_bytes:
        raise ConfigurationError(
            f"{path}: {size} bytes is too small to tear {drop_bytes} bytes off"
        )
    with open(path, "r+b") as handle:
        handle.truncate(size - drop_bytes)
    return size - drop_bytes
