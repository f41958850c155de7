"""The benchmark's metric tables, its statistics, and ``--compare``.

The names here are the contract later issues are judged by: the tables are
what ``perf/run.py`` prints, what ``BENCHMARK.json`` lists, and what
``perf/README.md`` documents (``perf/tests`` holds the three in step).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

#: Workload names, in run order.
WORKLOADS = ("e4-sweep", "e22-faults", "storm-10k", "engine-pool")

#: A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100


@dataclass(frozen=True)
class Metric:
    """One named metric.

    ``bound`` is the share of the baseline by which an end-to-end metric
    may worsen before ``--compare`` (and the driver) calls it a
    regression; per-layer metrics carry none.  ``workloads`` restricts a
    metric to the workloads it is defined on (``None``: all four).
    ``exact`` marks counts that repeat exactly for a fixed seed.
    """

    name: str
    unit: str
    better: str
    bound: float | None = None
    workloads: frozenset[str] | None = None
    exact: bool = False
    #: Absolute difference ``--compare`` always tolerates, in the metric's
    #: unit (the bound of ``setup_s`` is max(25 %, 5 ms)).
    slack: float = 0.0

    def applies_to(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


def _only(*workloads: str) -> frozenset[str]:
    return frozenset(workloads)


#: Host-time bounds are 25 %, the most the driver allows: on the 2-core
#: reference box ten runs of the same commit spread (Q3-Q1)/median by up
#: to 17 % and back-to-back full sets came out up to 20 % apart (see
#: perf/baseline.json and the Bounds note in perf/README.md).
END_TO_END: tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25, slack=0.005),
    Metric("events_per_s", "events/s", "higher", 0.25),
    Metric("trials_per_s", "trials/s", "higher", 0.25),
    Metric("trial_ms_p50", "ms", "lower", 0.25),
    Metric("trial_ms_p90", "ms", "lower", 0.25, _only("e4-sweep", "engine-pool")),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("cli_wall_s", "s", "lower", 0.25, _only("e4-sweep")),
    Metric("failed_share", "ratio", "lower", 0.0),
    Metric("digest_mismatch", "count", "lower", 0.0),
)


def _layer(name: str, unit: str, better: str = "lower", exact: bool = False) -> Metric:
    return Metric(name, unit, better, exact=exact)


PER_LAYER: tuple[Metric, ...] = (
    _layer("cli.import_s", "s"),
    _layer("experiments.load_s", "s"),
    _layer("experiments.to_plan_s", "s"),
    _layer("experiments.verdict_s", "s"),
    _layer("experiments.self_s", "s"),
    _layer("engine.plan.build_s", "s"),
    _layer("engine.plan.trials", "count", exact=True),
    _layer("engine.executor.overhead_us_per_trial", "us"),
    _layer("engine.executor.chunks", "count"),
    _layer("engine.executor.pool_start_s", "s"),
    _layer("engine.executor.pool_speedup", "ratio", "higher"),
    _layer("engine.executor.redispatched", "count"),
    _layer("engine.executor.self_s", "s"),
    _layer("engine.trials.calls", "count", exact=True),
    _layer("engine.trials.build_s", "s"),
    _layer("engine.trials.simulate_s", "s"),
    _layer("engine.trials.check_s", "s"),
    _layer("engine.trials.other_s", "s"),
    _layer("engine.trials.self_s", "s"),
    _layer("engine.results.to_json_s", "s"),
    _layer("engine.results.append_us", "us"),
    _layer("engine.results.load_s", "s"),
    _layer("engine.results.doc_bytes", "B", exact=True),
    _layer("engine.results.self_s", "s"),
    _layer("engine.recovery.append_us", "us"),
    _layer("engine.recovery.load_s", "s"),
    _layer("engine.recovery.journal_bytes", "B"),
    _layer("engine.recovery.self_s", "s"),
    _layer("engine.telemetry.spans", "count"),
    _layer("engine.telemetry.bytes", "B"),
    _layer("engine.telemetry.self_s", "s"),
    _layer("sim.scheduler.events", "count", exact=True),
    _layer("sim.scheduler.loop_self_s", "s"),
    _layer("sim.scheduler.deliver_events", "count", exact=True),
    _layer("sim.scheduler.timer_events", "count", exact=True),
    _layer("sim.scheduler.membership_events", "count", exact=True),
    _layer("sim.scheduler.other_events", "count", exact=True),
    _layer("sim.scheduler.other_self_s", "s"),
    _layer("sim.events.push.calls", "count", exact=True),
    _layer("sim.events.pop.calls", "count", exact=True),
    _layer("sim.events.self_s", "s"),
    _layer("sim.events.calendar", "count", exact=True),
    _layer("sim.network.send.calls", "count", exact=True),
    _layer("sim.network.send.self_s", "s"),
    _layer("sim.network.deliver.calls", "count", exact=True),
    _layer("sim.network.deliver.self_s", "s"),
    _layer("sim.network.membership.calls", "count", exact=True),
    _layer("sim.network.membership.self_s", "s"),
    _layer("sim.network.spawn_us", "us"),
    _layer("sim.network.dropped", "count", exact=True),
    _layer("protocols.handler.calls", "count", exact=True),
    _layer("protocols.handler.self_s", "s"),
    _layer("sim.trace.record.calls", "count", exact=True),
    _layer("sim.trace.self_s", "s"),
    _layer("sim.trace.retained", "count", exact=True),
    _layer("obs.metrics.calls", "count", exact=True),
    _layer("obs.metrics.self_s", "s"),
    _layer("churn.joins", "count", exact=True),
    _layer("churn.leaves", "count", exact=True),
    _layer("churn.self_s", "s"),
    _layer("churn.install_s", "s"),
    _layer("faults.send_effect.calls", "count", exact=True),
    _layer("faults.self_s", "s"),
    _layer("faults.dropped", "count", exact=True),
    _layer("faults.duplicates", "count", exact=True),
    _layer("resilience.outbound.calls", "count", exact=True),
    _layer("resilience.inbound.calls", "count", exact=True),
    _layer("resilience.self_s", "s"),
    _layer("resilience.retransmits", "count", exact=True),
    _layer("resilience.abandoned", "count", exact=True),
    _layer("core.run_from_trace_s", "s"),
    _layer("core.check_query_s", "s"),
    _layer("core.self_s", "s"),
    _layer("topology.generate_s", "s"),
    _layer("topology.attach.calls", "count", exact=True),
    _layer("topology.self_s", "s"),
    _layer("trace.overhead_ratio", "ratio"),
    _layer("trace.harness_self_s", "s"),
    _layer("trace.accounted_share", "ratio", "higher"),
)

#: The driver (BENCHMARK.json) wants every end-to-end metric on every
#: workload and never 0, so its end-to-end list is the bounded metrics
#: defined on all four; the workload-specific ones ride in its per-layer
#: list (reported as 0 where they do not apply).
DRIVER_END_TO_END = tuple(
    metric for metric in END_TO_END if metric.workloads is None and metric.bound
)
DRIVER_PER_LAYER = PER_LAYER + tuple(
    metric for metric in END_TO_END if metric.workloads is not None
)

#: Ledger-key prefixes -> the per-layer metric their self time lands in.
#: Every key a probe can produce matches exactly one row, so the rows sum
#: to the traced passes' wall time.
SELF_TIME_ROWS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("experiments.self_s", ("experiments:",)),
    ("engine.plan.build_s", ("engine.plan:",)),
    ("engine.executor.self_s", ("engine.executor:",)),
    ("engine.trials.self_s", ("engine.trials:",)),
    ("engine.results.self_s", ("engine.results:",)),
    ("engine.recovery.self_s", ("engine.recovery:",)),
    ("engine.telemetry.self_s", ("engine.telemetry:",)),
    ("sim.scheduler.loop_self_s", (
        "sim.scheduler:run", "sim.scheduler:step",
        "sim.scheduler:spawn", "sim.scheduler:kill",
    )),
    ("sim.scheduler.other_self_s", ("sim.scheduler:other_event",)),
    ("sim.events.self_s", ("sim.events:",)),
    ("sim.network.send.self_s", ("sim.network:send",)),
    ("sim.network.deliver.self_s", ("sim.network:deliver",)),
    ("sim.network.membership.self_s", ("sim.network:membership",)),
    ("protocols.handler.self_s", ("protocols:", "sim.node:")),
    ("sim.trace.self_s", ("sim.trace:",)),
    ("obs.metrics.self_s", ("obs.metrics:",)),
    ("churn.self_s", ("churn:",)),
    ("faults.self_s", ("faults:",)),
    ("resilience.self_s", ("resilience:",)),
    ("core.self_s", ("core:",)),
    ("topology.self_s", ("topology:",)),
    ("trace.harness_self_s", ("harness:",)),
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def summarise(samples: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    summary: dict[str, float] = {
        "value": statistics.median(samples), "n": len(samples),
    }
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        summary["q1"], summary["q3"] = q1, q3
    return summary


def p90(samples: Sequence[float]) -> float | None:
    """The 90th percentile, or ``None`` below :data:`P90_MIN_SAMPLES`."""
    if len(samples) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10)[8]


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def _worsening(metric: Metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative:
    better).  A zero baseline compares by absolute difference."""
    delta = (b - a) if metric.better == "lower" else (a - b)
    return delta / abs(a) if a else delta


def compare(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> tuple[list[str], int, int]:
    """Compare two result documents (``perf/out/results.json`` shape).

    Returns ``(report lines, end-to-end disagreements, exact-count
    mismatches)``.  Two sets *disagree* on an end-to-end metric when
    either side is worse than the other by more than the metric's bound.
    """
    lines: list[str] = []
    disagreements = 0
    count_mismatches = 0

    def side(entry: Mapping[str, Any]) -> str:
        text = f"{entry['value']:.6g}"
        if "q1" in entry:
            text += f" [{entry['q1']:.6g}, {entry['q3']:.6g}]"
        return text

    for name in WORKLOADS:
        wa = a.get("workloads", {}).get(name)
        wb = b.get("workloads", {}).get(name)
        if wa is None or wb is None:
            continue
        lines.append(f"== {name}")
        for metric in END_TO_END:
            ea = wa["end_to_end"].get(metric.name)
            eb = wb["end_to_end"].get(metric.name)
            if ea is None or eb is None:
                continue
            worse = _worsening(metric, ea["value"], eb["value"])
            verdict = "ok"
            apart = abs(eb["value"] - ea["value"])
            if abs(worse) > metric.bound and apart > metric.slack:
                verdict = "DISAGREE (B worse)" if worse > 0 else "DISAGREE (B better)"
                disagreements += 1
            lines.append(
                f"  {metric.name:<16} {metric.unit:<9} A {side(ea):<34} "
                f"B {side(eb):<34} {worse:+8.2%} (bound {metric.bound:.0%}) "
                f"{verdict}"
            )
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        if la and lb:
            for metric in PER_LAYER:
                if not metric.exact:
                    continue
                va = la.get(metric.name, {}).get("value")
                vb = lb.get(metric.name, {}).get("value")
                if va != vb:
                    count_mismatches += 1
                    lines.append(
                        f"  count {metric.name} differs: A {va} B {vb}"
                    )
    lines.append(
        f"{disagreements} end-to-end disagreement(s), "
        f"{count_mismatches} exact-count mismatch(es)"
    )
    return lines, disagreements, count_mismatches
