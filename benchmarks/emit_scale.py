#!/usr/bin/env python3
"""Scale-curve emitter: events/sec vs population size into BENCH_scale.json.

The scenario is a **ping storm under silent churn** — the regime the
slot-backed core was built for: a complete communication graph, every
entity re-arming a 1.0-period timer and pinging one uniformly random
neighbor per period, with ``n//20`` scheduled leave+join pairs spread over
the horizon.  Arrivals and departures are silent (``notify_joins=False``,
``notify_leaves=False``): at 10⁴⁺ entities a perfect membership oracle is
both unrealistic (the paper's large-scale systems have *local* knowledge)
and an O(n)-per-change cost that would swamp the measurement.

Per size the payload records ``events_per_sec_n<N>`` (higher is better),
``peak_rss_kb_n<N>``, ``sim_wall_s_n<N>`` and ``setup_s_n<N>`` (lower is
better; set-up is the spawn loop alone) — names ``repro bench diff``
gates by family, so committing this file as a baseline turns scale
regressions into CI failures.  The full curve also runs n = 10³ and
3·10³ with each queue backend pinned (``events_per_sec_n1000_heap``,
``..._calendar``): the sizes where the adaptive queue's promotion to the
calendar is closest to a toss-up.

Run:  PYTHONPATH=src python benchmarks/emit_scale.py [--output FILE]

``--smoke`` runs only n in {32, 10k} with short horizons for CI;
``--check`` additionally asserts the scale curve's *shape*: per-event cost
at n=10k must stay within 50x of n=32 (the seed core is ~90x off),
per-entity set-up cost at n=20k within 3x of n=1k (a membership scan per
spawn — O(n²) set-up — sits at 6-9x; the linear build at 1.4-1.8x), and
the cost of one churn replacement at n=20k within 5x of n=500 (copying or
sorting the membership per event sits at 20-30x; the sorted index at
1.2-3.4x depending on the box).  These are the only assertions on measured
durations in the repository: tier-1 pins the *mechanisms* by counting
(``tests/sim/test_scale_regressions.py``, ``test_hot_path_budget.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import time

import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.churn.models import ReplacementChurn
from repro.obs.sinks import CountingSink
from repro.sim.events import CalendarEventQueue, EventQueue
from repro.sim.node import Process
from repro.sim.scheduler import Simulator

#: Ping period per entity in sim-time units.
PERIOD = 1.0

#: Population sizes and sim horizons.  Horizons shrink as n grows so every
#: point executes a comparable (6-figure) event count in tolerable wall
#: time; events/sec is horizon-independent once n dominates.
SIZES: dict[int, float] = {32: 200.0, 1_000: 60.0, 10_000: 12.0, 100_000: 4.0}

SMOKE_SIZES: dict[int, float] = {32: 50.0, 10_000: 2.0}

#: Sizes the full curve runs again with each queue backend pinned: the
#: adaptive queue promotes to the calendar above ``CALENDAR_THRESHOLD``
#: pending events, and these sizes sit just above it, where the heap has
#: measured faster per event.  Their scalars carry a ``_heap`` /
#: ``_calendar`` suffix (``events_per_sec_n1000_heap``).
PINNED_SIZES: dict[int, float] = {1_000: 60.0, 3_000: 20.0}

#: The pinned backends: the heap that never promotes, and the calendar
#: from the first push.
PINNED_QUEUES = {
    "heap": lambda: EventQueue(calendar_threshold=None),
    "calendar": CalendarEventQueue,
}

#: Set-up-only sizes for ``--check``'s set-up shape assertion.  The pair
#: has to straddle n ~ 3000: below it the ~20 us/entity of real work (one
#: Mersenne Twister, the first timer, the JOIN trace line) hides a
#: per-spawn membership scan.
SETUP_SHAPE_SIZES = (1_000, 20_000)

#: Line-population sizes for ``--check``'s membership-event shape assertion.
REPLACEMENT_SHAPE_SIZES = (500, 20_000)


class PingNode(Process):
    """One entity of the storm: ping a random neighbor every PERIOD."""

    def on_start(self) -> None:
        # Uniform initial phase so the pings spread over the period
        # instead of arriving as one synchronized burst.
        self.set_timer(self.rng.uniform(0.0, PERIOD), "ping")

    def on_timer(self, name: str, payload: object) -> None:
        target = self.random_neighbor()
        if target is not None:
            self.send(target, "PING")
        self.set_timer(PERIOD, "ping")


def _peak_rss_kb() -> float:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def spawn_population(
    n: int, seed: int = 2007, queue: str | None = None,
) -> tuple[Simulator, list[int], float]:
    """Spawn the storm's ``n`` entities; returns (sim, pids, set-up seconds).
    ``queue`` pins a backend from :data:`PINNED_QUEUES` (default: the
    adaptive queue)."""
    sim = Simulator(seed=seed, complete=True, notify_leaves=False,
                    notify_joins=False, trace_sink=CountingSink())
    if queue is not None:
        sim.queue = PINNED_QUEUES[queue]()
    t0 = time.perf_counter()
    pids = [sim.spawn(PingNode(1.0)).pid for _ in range(n)]
    return sim, pids, time.perf_counter() - t0


def setup_us_per_entity(n: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` set-up cost per entity (microseconds) of a
    set-up-only point: the population is built and thrown away."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        best = min(best, spawn_population(n)[2])
    return best / n * 1e6


def replacement_us(n: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time per churn replacement (one leave, one
    join, one reschedule; microseconds) on a line of ``n`` idle processes
    with one immortal — the E-suite's shape."""
    best = float("inf")
    for _ in range(repeats):
        sim = Simulator(seed=2007, trace_sink=CountingSink())
        pids = [sim.spawn(Process(0)).pid]
        for _ in range(n - 1):
            pids.append(sim.spawn(Process(0), neighbors=[pids[-1]]).pid)
        churn = ReplacementChurn(lambda: Process(0), rate=200.0)
        churn.immortal.add(pids[0])
        churn.install(sim)
        gc.collect()
        start = time.perf_counter()
        sim.run(until=10.0)
        best = min(best, (time.perf_counter() - start) / churn.leaves)
    return best * 1e6


def run_scale_trial(
    n: int, horizon: float, seed: int = 2007, queue: str | None = None,
) -> dict:
    """One ping-storm trial; returns the per-size measurement dict.

    ``peak_rss_kb`` is the *process* high-water mark, so when sizes run in
    increasing order each value reflects the largest trial so far — only
    the largest n's reading is a true per-trial figure.  ``queue`` pins
    the backend (see :func:`spawn_population`).
    """
    sim, pids, setup_s = spawn_population(n, seed, queue)
    rng = sim.rng_for("scale-churn")
    for _ in range(n // 20):
        at = rng.uniform(0.1, horizon)
        sim.schedule_leave(at, rng.choice(pids))
        sim.schedule_join(at, lambda: PingNode(1.0), lambda present: ())
    t0 = time.perf_counter()
    sim.run(until=horizon, max_events=500_000_000)
    sim_wall_s = time.perf_counter() - t0
    return {
        "n": n,
        "horizon": horizon,
        "setup_s": round(setup_s, 6),
        "sim_wall_s": round(sim_wall_s, 3),
        "events": sim.events_executed,
        "events_per_sec": round(sim.events_executed / sim_wall_s, 1)
        if sim_wall_s > 0 else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
        "queue_backend": queue or sim.queue.backend,
        "queue_pinned": queue is not None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_scale.json")
    parser.add_argument("--smoke", action="store_true",
                        help="only n in {32, 10k}, short horizons (CI)")
    parser.add_argument("--check", action="store_true",
                        help="assert the curve's shape: per-event cost at "
                        "n=10k within 50x of n=32, per-entity set-up cost "
                        "at n=20k within 3x of n=1k, per-replacement cost "
                        "at n=20k within 5x of n=500")
    args = parser.parse_args()

    sizes = SMOKE_SIZES if args.smoke else SIZES
    runs = [(n, horizon, None) for n, horizon in sizes.items()]
    if not args.smoke:
        runs += [(n, horizon, queue) for n, horizon in PINNED_SIZES.items()
                 for queue in PINNED_QUEUES]
    points = []
    # Increasing n, so ru_maxrss stays interpretable.
    for n, horizon, queue in sorted(runs, key=lambda run: (run[0], run[2] or "")):
        point = run_scale_trial(n, horizon, queue=queue)
        pinned = " (pinned)" if queue else ""
        print(f"n={n:>6}: {point['events_per_sec']:>9.0f} ev/s "
              f"({point['events']} events in {point['sim_wall_s']}s, "
              f"setup {point['setup_s']:.3f}s, queue={point['queue_backend']}"
              f"{pinned}, rss {point['peak_rss_kb'] / 1024:.0f} MB)")
        points.append(point)

    payload = {
        "benchmark": "scale-curve",
        "scenario": "ping-storm: complete graph, silent churn (n//20 "
                    "leave+join pairs), 1.0-period timers, counts sink",
        "smoke": args.smoke,
        "seed": 2007,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "points": points,
    }
    # Flat per-size scalars so `repro bench diff` gates them by family.  A
    # pinned point's peak RSS is the high-water mark of the points before
    # it, so it gets none.
    for point in points:
        n = point["n"]
        if point["queue_pinned"]:
            suffix = f"n{n}_{point['queue_backend']}"
            payload[f"events_per_sec_{suffix}"] = point["events_per_sec"]
            payload[f"sim_wall_s_{suffix}"] = point["sim_wall_s"]
            continue
        payload[f"events_per_sec_n{n}"] = point["events_per_sec"]
        payload[f"peak_rss_kb_n{n}"] = point["peak_rss_kb"]
        payload[f"sim_wall_s_n{n}"] = point["sim_wall_s"]
        payload[f"setup_s_n{n}"] = point["setup_s"]

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        by_n = {p["n"]: p for p in points if not p["queue_pinned"]}
        small, large = by_n[32], by_n[10_000]
        small_cost = 1.0 / small["events_per_sec"]
        large_cost = 1.0 / large["events_per_sec"]
        ratio = large_cost / small_cost
        print(f"per-event cost ratio n=10k/n=32: {ratio:.1f}x (limit 50x)")
        if ratio > 50.0:
            raise SystemExit(
                f"scale check failed: per-event cost grew {ratio:.1f}x from "
                "n=32 to n=10k (> 50x) — an O(n) cost is back on the hot "
                "path (seed core sits near 90x)"
            )
        small_n, large_n = SETUP_SHAPE_SIZES
        small_us = setup_us_per_entity(small_n)
        large_us = setup_us_per_entity(large_n)
        ratio = large_us / small_us
        print(f"per-entity set-up cost n={large_n}: {large_us:.1f} us, "
              f"n={small_n}: {small_us:.1f} us, ratio {ratio:.1f}x (limit 3x)")
        if ratio > 3.0:
            raise SystemExit(
                f"scale check failed: per-entity set-up cost grew {ratio:.1f}x "
                f"from n={small_n} to n={large_n} (> 3x) — spawning an entity "
                "iterates the membership again (O(n²) population build)"
            )
        small_n, large_n = REPLACEMENT_SHAPE_SIZES
        small_us = replacement_us(small_n)
        large_us = replacement_us(large_n)
        ratio = large_us / small_us
        print(f"per-replacement cost n={large_n}: {large_us:.1f} us, "
              f"n={small_n}: {small_us:.1f} us, ratio {ratio:.1f}x (limit 5x)")
        if ratio > 5.0:
            raise SystemExit(
                f"scale check failed: per-replacement cost grew {ratio:.1f}x "
                f"from n={small_n} to n={large_n} (> 5x) — a churn join or "
                "leave copies or sorts the membership again"
            )
        print("scale check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
