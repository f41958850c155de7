"""Self-healing policy for the warm worker pool.

When a worker process dies (SIGKILL, OOM, a hard crash inside native
code), :class:`concurrent.futures.ProcessPoolExecutor` breaks the whole
pool: every in-flight future raises ``BrokenProcessPool`` and the pool
is unusable.  :class:`~repro.engine.executor.ParallelExecutor` recovers
by forking a fresh pool and re-dispatching the incomplete chunks; this
module holds the pure policy pieces — the backoff schedule, the
redispatch bounds, and the poison-trial quarantine threshold — so they
can be unit-tested without forking anything.

Poison-trial semantics: a worker death is attributed to the trial the
dead worker had most recently *started* (its heartbeat mark — see
``_run_chunk``'s heartbeat slot).  Because a single co-incident death is
never proof (the chaos suite SIGKILLs perfectly innocent workers), a
suspect always gets ``trial_retries + 1`` clean re-runs: a trial is
quarantined only once its kill count reaches
:func:`quarantine_threshold` (``trial_retries + 2``).  When no heartbeat
survives the crash, attribution falls back to whole-task death counts:
a chunk that has died :data:`SPLIT_AFTER_DEATHS` times is split into
single-trial tasks so the poison isolates itself.
"""

from __future__ import annotations

from repro.sim.errors import ConfigurationError

#: First respawn delay; doubles per consecutive respawn without progress.
RESPAWN_BACKOFF_S = 0.05

#: Backoff ceiling — a flapping pool never waits longer than this.
MAX_RESPAWN_BACKOFF_S = 2.0

#: A multi-trial chunk that has died this many times is split into
#: single-trial tasks (heartbeat-less poison isolation).
SPLIT_AFTER_DEATHS = 2


class WorkerPoolError(ConfigurationError):
    """The warm pool kept dying with no forward progress — respawning was
    abandoned after :func:`max_consecutive_respawns` consecutive
    failures.  Subclasses :class:`~repro.sim.errors.ConfigurationError`
    so existing broad handlers keep working."""


def respawn_backoff(consecutive: int) -> float:
    """Delay before the ``consecutive``-th respawn in a row (1-based):
    exponential from :data:`RESPAWN_BACKOFF_S`, capped at
    :data:`MAX_RESPAWN_BACKOFF_S`."""
    if consecutive < 1:
        raise ConfigurationError(
            f"consecutive respawn count must be >= 1, got {consecutive}"
        )
    return min(MAX_RESPAWN_BACKOFF_S, RESPAWN_BACKOFF_S * 2 ** (consecutive - 1))


def max_consecutive_respawns(trial_retries: int) -> int:
    """How many respawns without a single completed chunk are tolerated
    before the run aborts with :class:`WorkerPoolError`.  High enough
    that a lone poison trial can burn through its quarantine budget
    (split + ``trial_retries + 1`` single-task kills) even when it is
    the only trial left."""
    return max(6, trial_retries + 4)


def quarantine_threshold(trial_retries: int) -> int:
    """The kill count at which a trial is quarantined:
    ``trial_retries + 2``.  The first death is never proof (the chaos
    suite SIGKILLs perfectly innocent workers), so every suspect gets
    ``trial_retries + 1`` clean re-runs before being declared poison."""
    if trial_retries < 0:
        raise ConfigurationError(
            f"trial_retries must be >= 0, got {trial_retries}"
        )
    return trial_retries + 2
