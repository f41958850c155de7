"""Crash safety for the experiment engine.

The engine's determinism contract (one plan → one byte-identical result
document, whatever backend ran it) makes crash recovery unusually clean:
a completed trial's record is final the moment it exists, so an
interrupted run can be resumed by re-executing *only* the missing trials
and merging by plan index — the reassembled document is byte-identical
to an uninterrupted run.  This package holds the three recovery layers:

* :mod:`repro.engine.recovery.checkpoint` — the ``repro-run-checkpoint``
  v1 journal: an append-only, flushed-per-line JSONL file recording each
  completed trial (full record + integrity digest) under a header that
  pins the plan digest and executor.  ``run_plan`` / ``stream_plan`` /
  ``run_experiment`` accept ``checkpoint=`` (write one, auto-resuming if
  it already exists) and ``resume_from=`` (seed a run from one).
* :mod:`repro.engine.recovery.healing` — self-healing for the warm
  worker pool: the policy (respawn backoff, redispatch bounds,
  poison-trial quarantine), the workers' heartbeat slot, and
  :class:`~repro.engine.recovery.healing.PoolHealer`, the fork-free
  break → suspects → replay state machine that
  :class:`~repro.engine.executor.ParallelExecutor` drives when a worker
  dies mid-chunk (``BrokenProcessPool``).
* :mod:`repro.engine.recovery.chaos` — a deterministic engine-level
  fault injector (SIGINT after N trials, SIGKILL a warm worker at the
  Nth chunk, ENOSPC on store append, torn tails) driving the
  conformance suite that proves resume-after-every-failure-point yields
  the baseline bytes.

See ``docs/RECOVERY.md`` for the journal format and resume semantics.
"""
