#!/usr/bin/env python3
"""Engine perf emitter: serial vs warm-pool wall-time into BENCH_engine.json.

Runs one fixed plan (the E4 churn-sweep shape) five ways — the serial
reference backend, the same backend with a telemetry recorder attached,
the same backend with a checkpoint journal attached, the chunked
warm-pool parallel backend, and the streaming (JSONL) path on the same
warm pool — asserts all five produce the byte-identical canonical
result document (the engine's core guarantee), and records wall-times
plus the derived ``speedup``, ``trials_per_sec_*``,
``telemetry_overhead_ratio`` and ``checkpoint_overhead_ratio`` metrics
that ``repro bench diff`` gates in CI (telemetry and checkpoint
journalling must each stay under 5% overhead).

Run:  PYTHONPATH=src python benchmarks/emit_bench.py [--jobs N] [--output FILE]

The committed ``benchmarks/BENCH_engine.json`` is the regression
baseline for these families; re-emit it (``--jobs 2``, as CI runs it)
when the engine's perf profile intentionally changes.  ``--smoke``
shrinks the plan to a seconds-scale run for CI, which executes it with
DeprecationWarnings promoted to errors — any internal code path that
still routes through a deprecated shim fails the build.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time

from repro.api import (
    ExecutorSpec,
    build_plan,
    load_document,
    run_plan,
    stream_plan,
)

RATES = [0.0, 0.5, 2.0, 8.0]
TRIALS = 8
BASE = {"n": 32, "topology": "er", "aggregate": "COUNT", "horizon": 300.0}

SMOKE_RATES = [0.0, 2.0]
SMOKE_TRIALS = 2
SMOKE_BASE = {"n": 12, "topology": "er", "aggregate": "COUNT",
              "horizon": 150.0}


def _metrics_totals(store) -> dict[str, int | float]:
    """Sum the per-trial counter blocks into whole-plan totals."""
    totals: dict[str, int | float] = {}
    for result in store.results:
        for name, value in result.metrics.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + value
    return {name: totals[name] for name in sorted(totals)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="workers for the parallel backend")
    parser.add_argument("--chunk", type=int, default=None,
                        help="fixed trials per task (default: adaptive)")
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny plan for CI: same checks, seconds-scale")
    args = parser.parse_args()

    rates = SMOKE_RATES if args.smoke else RATES
    trials = SMOKE_TRIALS if args.smoke else TRIALS
    base = SMOKE_BASE if args.smoke else BASE

    plan = build_plan(
        "bench-engine", kind="query",
        grid={"churn_rate": rates}, base=base,
        trials=trials, root_seed=2007,
    )
    total = len(plan)
    print(f"plan: {total} trials "
          f"({len(rates)} rates x {trials} trials), n={base['n']}"
          f"{' [smoke]' if args.smoke else ''}")

    # Untimed warm-up pass: the very first execution pays one-time import
    # and cache-fill costs that would otherwise land entirely on the
    # serial arm and skew the telemetry-overhead ratio.
    run_plan(plan, executor=ExecutorSpec.serial())

    def timed_serial(telemetry=None):
        start = time.perf_counter()
        store = run_plan(plan, executor=ExecutorSpec.serial(),
                         telemetry=telemetry)
        return store, time.perf_counter() - start

    # Median-of-3 for the serial/telemetry/checkpoint trio: the overhead
    # gates are a tight 5%, so the arms must be measured above
    # run-to-run noise.  Each checkpoint arm gets a fresh journal path —
    # an existing same-plan journal would auto-resume and execute
    # nothing, timing the no-op instead of the journalling cost.
    serial_walls, telemetry_walls, checkpoint_walls = [], [], []
    for _ in range(3):
        serial_store, wall = timed_serial()
        serial_walls.append(wall)
        with tempfile.NamedTemporaryFile(
            mode="w", suffix=".telemetry.jsonl", delete=False
        ) as handle:
            telemetry_path = handle.name
        try:
            telemetry_store, wall = timed_serial(telemetry=telemetry_path)
        finally:
            os.unlink(telemetry_path)
        telemetry_walls.append(wall)
        with tempfile.NamedTemporaryFile(
            mode="w", suffix=".checkpoint.jsonl", delete=False
        ) as handle:
            checkpoint_path = handle.name
        os.unlink(checkpoint_path)
        try:
            start = time.perf_counter()
            checkpoint_store = run_plan(plan, executor=ExecutorSpec.serial(),
                                        checkpoint=checkpoint_path)
            wall = time.perf_counter() - start
        finally:
            if os.path.exists(checkpoint_path):
                os.unlink(checkpoint_path)
        checkpoint_walls.append(wall)
    serial_wall = sorted(serial_walls)[1]
    telemetry_wall = sorted(telemetry_walls)[1]
    checkpoint_wall = sorted(checkpoint_walls)[1]
    print(f"serial   : {serial_wall:.2f}s (median of 3)")
    # Overhead below 1.0 is timing noise, not a speedup: clamp so the
    # committed baseline is a stable 1.0 and the diff gate's 5% budget
    # bounds the absolute overhead.
    telemetry_overhead = max(1.0, telemetry_wall / serial_wall)
    print(f"telemetry: {telemetry_wall:.2f}s "
          f"({telemetry_overhead:.3f}x serial, median of 3)")
    checkpoint_overhead = max(1.0, checkpoint_wall / serial_wall)
    print(f"checkpoint: {checkpoint_wall:.2f}s "
          f"({checkpoint_overhead:.3f}x serial, median of 3)")

    # One materialised backend for both parallel runs: the pool forks and
    # warms once, then run_plan and stream_plan reuse it.  The untimed
    # warm-up run pays that one-time fork/import cost so the timed runs
    # measure steady-state chunked dispatch — the regime every run after
    # the first sees in real use.
    spec = ExecutorSpec.parallel(jobs=args.jobs, chunk=args.chunk)
    with spec.make() as backend:
        run_plan(plan, executor=backend)
        start = time.perf_counter()
        parallel_store = run_plan(plan, executor=backend)
        parallel_wall = time.perf_counter() - start
        chunks = getattr(backend, "chunks_dispatched", 0)
        print(f"parallel : {parallel_wall:.2f}s "
              f"(jobs={args.jobs}, {chunks} chunks)")

        with tempfile.NamedTemporaryFile(
            mode="w", suffix=".jsonl", delete=False
        ) as handle:
            stream_path = handle.name
        try:
            start = time.perf_counter()
            stream_plan(plan, stream_path, executor=backend)
            stream_wall = time.perf_counter() - start
            stream_doc = load_document(stream_path)
        finally:
            os.unlink(stream_path)
        print(f"streaming: {stream_wall:.2f}s (same pool)")

    canonical = json.dumps(serial_store.document(), sort_keys=True)
    identical = (
        serial_store.to_json() == parallel_store.to_json()
        and serial_store.to_json() == telemetry_store.to_json()
        and serial_store.to_json() == checkpoint_store.to_json()
        and canonical == json.dumps(stream_doc, sort_keys=True)
    )
    print("documents byte-identical "
          f"(serial/telemetry/checkpoint/parallel/stream): {identical}")
    if not identical:
        raise SystemExit("executor backends disagree — engine bug")

    trial_walls = [r.wall_time for r in serial_store.results]
    payload = {
        "benchmark": "engine-serial-vs-parallel",
        "plan": plan.meta(),
        "grid": {"churn_rate": rates},
        "base": base,
        "smoke": args.smoke,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "jobs": args.jobs,
        "chunks_dispatched": chunks,
        "serial_wall_s": round(serial_wall, 4),
        "telemetry_wall_s": round(telemetry_wall, 4),
        "checkpoint_wall_s": round(checkpoint_wall, 4),
        "parallel_wall_s": round(parallel_wall, 4),
        "streaming_wall_s": round(stream_wall, 4),
        "telemetry_overhead_ratio": round(telemetry_overhead, 4),
        "checkpoint_overhead_ratio": round(checkpoint_overhead, 4),
        "speedup": round(serial_wall / parallel_wall, 3),
        "trials_per_sec_serial": round(total / serial_wall, 3),
        "trials_per_sec_parallel": round(total / parallel_wall, 3),
        "documents_identical": identical,
        "trial_wall_s": {
            "min": round(min(trial_walls), 4),
            "max": round(max(trial_walls), 4),
            "mean": round(sum(trial_walls) / len(trial_walls), 4),
        },
        "events_executed_total": sum(
            r.events_executed for r in serial_store.results
        ),
        "metrics_totals": _metrics_totals(serial_store),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output} (speedup {payload['speedup']}x "
          f"on {payload['machine']['cpu_count']} core(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
