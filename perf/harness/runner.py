"""Measure one workload inside its child process.

:func:`measure` is what ``perf/run.py --child-out`` runs: warm up, time
the untraced passes, optionally run the traced pass, check every output,
and return the workload's block of ``perf/out/results.json``.

A pass that raises, a quarantined trial, a failed ``expect:`` rule or an
invalid document is *counted* (``failed`` / ``failed_share``) and printed
with the workload and pass number; it never aborts the run.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from harness import probes
from harness.metrics import (
    END_TO_END, PER_LAYER, SELF_TIME_ROWS, p90, summarise,
)
from harness.spans import Tracer
from harness.workloads import PINNED_SEED, Context, PassSample, make


class _Tally:
    """Attempted / failed operations and the printed reasons."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, where: str, reason: str) -> None:
        self.failed += 1
        message = f"{self.workload} {where}: {reason}"
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def passes(
        self, run_one: Callable[[], PassSample], cap: int,
        budget_s: float | None, label: str,
    ) -> list[PassSample]:
        """Run up to ``cap`` passes, stopping early once the next pass
        would overrun ``budget_s``.  A pass that raises counts as one
        failed operation and the loop goes on."""
        samples: list[PassSample] = []
        started = time.perf_counter()
        for number in range(1, cap + 1):
            if samples and budget_s is not None:
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / len(samples) > budget_s:
                    break
            gc.collect()
            where = f"{label} pass {number}"
            try:
                sample = run_one()
            except Exception as error:  # noqa: BLE001 - counted, not fatal
                self.attempted += 1
                self.fail(where, f"{type(error).__name__}: {error}")
                continue
            self.attempted += sample.attempted
            for reason in sample.failures:
                self.fail(where, reason)
            samples.append(sample)
        return samples


def _median_facts(samples: list[PassSample]) -> dict[str, float]:
    keys = {key for sample in samples for key in sample.facts}
    return {
        key: statistics.median(
            sample.facts[key] for sample in samples if key in sample.facts
        )
        for key in keys
    }


def _layer_values(
    tracer: Tracer, facts: dict[str, float], overhead_ratio: float
) -> dict[str, float]:
    """The per-layer table: probe ledger first, published facts on top."""
    def per_call_us(key: str) -> float:
        calls = tracer.calls(key)
        return tracer.total_s(key) / calls * 1e6 if calls else 0.0

    values: dict[str, float] = {
        name: tracer.self_s(*prefixes) for name, prefixes in SELF_TIME_ROWS
    }
    passes_s = tracer.total_s("harness:pass")
    values.update({
        "experiments.load_s": tracer.total_s("experiments:load"),
        "experiments.to_plan_s": tracer.total_s("experiments:to_plan"),
        "experiments.verdict_s": tracer.total_s("experiments:verdict"),
        "engine.trials.build_s": tracer.total_s("engine.trials:build"),
        "engine.results.to_json_s": tracer.total_s("engine.results:to_json"),
        "engine.results.append_us": per_call_us("engine.results:append"),
        "engine.results.load_s": tracer.total_s("engine.results:load"),
        "engine.recovery.append_us": per_call_us("engine.recovery:append"),
        "engine.recovery.load_s": tracer.total_s("engine.recovery:load"),
        "sim.scheduler.events": tracer.calls("sim.scheduler:step"),
        "sim.scheduler.deliver_events": tracer.calls("sim.network:deliver"),
        "sim.scheduler.timer_events": tracer.calls("sim.node:timer"),
        "sim.scheduler.membership_events": tracer.calls("churn:event"),
        "sim.scheduler.other_events": tracer.calls(
            "faults:event", "resilience:event", probes.OTHER_EVENT_KEY
        ),
        "sim.events.push.calls": tracer.calls("sim.events:push"),
        "sim.events.pop.calls": tracer.calls(
            "sim.events:pop", "sim.events:calendar_pop"
        ),
        "sim.events.calendar": int(tracer.calls("sim.events:calendar_pop") > 0),
        "sim.network.send.calls": tracer.calls("sim.network:send"),
        "sim.network.deliver.calls": tracer.calls("sim.network:deliver"),
        "sim.network.membership.calls": tracer.calls("sim.network:membership"),
        "sim.network.spawn_us": per_call_us("sim.scheduler:spawn"),
        "protocols.handler.calls": tracer.calls("protocols:handler"),
        "sim.trace.record.calls": tracer.calls("sim.trace:record"),
        "obs.metrics.calls": tracer.calls("obs.metrics:write"),
        "churn.install_s": tracer.total_s("churn:install"),
        "faults.send_effect.calls": tracer.calls("faults:send_effect"),
        "resilience.outbound.calls": tracer.calls("resilience:outbound"),
        "resilience.inbound.calls": tracer.calls("resilience:inbound"),
        "core.run_from_trace_s": tracer.total_s("core:run_from_trace"),
        "core.check_query_s": tracer.total_s("core:check_query"),
        "topology.generate_s": tracer.total_s("topology:generate"),
        "topology.attach.calls": tracer.calls("topology:attach"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.accounted_share": (
            1.0 - values["trace.harness_self_s"] / passes_s if passes_s else 0.0
        ),
    })
    for metric in PER_LAYER:
        value = facts.get(metric.name, values.get(metric.name, 0))
        if metric.unit in ("count", "B") and float(value).is_integer():
            value = int(value)
        values[metric.name] = value
    return values


@dataclass
class _Arms:
    """What the arms of one workload run produced."""

    setups: list[float] = field(default_factory=list)
    reference: list[PassSample] = field(default_factory=list)
    samples: list[PassSample] = field(default_factory=list)
    traced: list[PassSample] = field(default_factory=list)
    tracer: Tracer | None = None
    cli_walls: list[float] = field(default_factory=list)
    cli_digests: list[str] = field(default_factory=list)
    facts: dict[str, float] = field(default_factory=dict)
    peak_rss_kb: float = 0.0


def _run_arms(
    workload: Any, tally: _Tally, seconds: float | None, trace: bool,
    smoke: bool, tmp: Path, trace_path: Path, header: dict[str, Any],
) -> _Arms:
    """Warm up, then run every arm: set-up repeats, the untraced passes
    (end-to-end metrics), the traced pass, the cold-start arm."""
    arms = _Arms()
    cap = (lambda n: min(n, 1)) if smoke else (lambda n: n)
    # With tracing on, most of the time budget belongs to the traced pass;
    # the untraced passes only anchor the digest and the overhead ratio.
    budget = None if seconds is None else (seconds / 4 if trace else seconds)
    workload.warm_up()
    # Set-up takes milliseconds, so a run of samples fits inside one brief
    # disturbance of the host: take half before the passes, half after.
    repeats = cap(workload.setup_repeats)
    arms.setups = [workload.setup_sample() for _ in range(repeats // 2)]
    if workload.reference_passes:
        arms.reference = tally.passes(
            workload.run_reference, cap(workload.reference_passes),
            None if budget is None else budget / 5, "reference",
        )
        budget = None if budget is None else budget * 3 / 4
    arms.samples = tally.passes(
        workload.run_pass, cap(workload.passes), budget, "untraced",
    )
    arms.setups += [
        workload.setup_sample() for _ in range(repeats - repeats // 2)
    ]
    arms.facts = _median_facts(arms.samples)
    arms.peak_rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        arms.facts.pop("worker_rss_kb", 0),
    )

    if trace:
        tracer = arms.tracer = Tracer()
        remove = probes.install(tracer)
        try:
            # The reference arm (engine-pool's in-process Arm A) carries the
            # simulator layers; the pool pass after it adds the parent side
            # of the three append-only files (its workers stay unprobed).
            runs = [(workload.run_pass, "traced")]
            if workload.reference_passes:
                runs.insert(0, (workload.run_reference, "traced reference"))
            for number, (run_one, label) in enumerate(runs, start=1):
                def spanned(run_one: Any = run_one, number: int = number) -> PassSample:
                    with tracer.span("harness:pass", ident=number):
                        return run_one()

                arms.traced += tally.passes(spanned, 1, None, label)
        finally:
            remove()
        tracer.write_jsonl(str(trace_path), header)

    # The cold-start arm is an end-to-end metric of the full run and a
    # per-layer one for the driver, which reads it from traced runs.
    if workload.cli_runs and (seconds is None or trace):
        for number in range(1, cap(workload.cli_runs) + 1):
            tally.attempted += 1
            try:
                wall, digest = workload.cold_cli(tmp / "cli-output.json")
            except Exception as error:  # noqa: BLE001 - counted, not fatal
                tally.fail(f"cli run {number}", f"{type(error).__name__}: {error}")
                continue
            arms.cli_walls.append(wall)
            arms.cli_digests.append(digest)
        if trace:
            arms.facts["cli.import_s"] = workload.import_cost(cap(5))
    return arms


def _digest_mismatches(
    name: str, arms: _Arms, pinned: str | None
) -> tuple[int, int]:
    """Compare every pass's digest with the pinned one (or, unpinned, with
    the first pass's); print each miss.  Returns (mismatches, compared)."""
    anchor = pinned or arms.samples[0].digest
    labelled = [
        (f"{label} pass {number}", sample.digest)
        for label, group in (("reference", arms.reference),
                             ("untraced", arms.samples),
                             ("traced", arms.traced))
        for number, sample in enumerate(group, start=1)
    ] + [
        (f"cli run {number}", digest)
        for number, digest in enumerate(arms.cli_digests, start=1)
    ]
    missed = 0
    for where, digest in labelled:
        if digest != anchor:
            missed += 1
            print(
                f"DIGEST MISMATCH {name} {where}: {digest} (expected "
                f"{anchor}{', pinned' if pinned else ''})", file=sys.stderr,
            )
    return missed, len(labelled)


def measure(
    name: str, seed: int, seconds: float | None, trace: bool, smoke: bool,
    tmp: Path, out_dir: Path, expected: dict[str, str],
) -> dict[str, Any]:
    """Run workload ``name`` and return its result block."""
    workload = make(name)
    workload.prepare(Context(seed=seed, tmp=tmp, smoke=smoke))
    tally = _Tally(name)
    try:
        arms = _run_arms(
            workload, tally, seconds, trace, smoke, tmp,
            out_dir / f"trace-{name}.jsonl",
            {"workload": name, "seed": seed, "smoke": smoke},
        )
    finally:
        workload.close()
    block: dict[str, Any] = {
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures,
    }
    samples = arms.samples
    if not samples:
        return block

    pinned = expected.get(name) if seed == PINNED_SEED and not smoke else None
    mismatches, compared = _digest_mismatches(name, arms, pinned)
    trial_ms = [ms for sample in samples for ms in sample.trial_ms]
    setup_samples = arms.setups + (
        [sample.setup_s for sample in samples] if workload.setup_in_pass else []
    )
    measured: dict[str, Any] = {
        "wall_s": summarise([s.wall_s for s in samples]),
        "setup_s": summarise(setup_samples),
        "events_per_s": summarise(
            [s.events / (s.wall_s - s.setup_s) for s in samples]
        ),
        "trials_per_s": summarise([s.attempted / s.wall_s for s in samples]),
        "trial_ms_p50": summarise(trial_ms),
        "peak_rss_mb": {"value": arms.peak_rss_kb / 1024, "n": 1},
        "failed_share": {
            "value": tally.failed / tally.attempted, "n": tally.attempted,
        },
        "digest_mismatch": {"value": mismatches, "n": compared},
    }
    tail = p90(trial_ms)
    if tail is not None:
        measured["trial_ms_p90"] = {"value": tail, "n": len(trial_ms)}
    if arms.cli_walls:
        measured["cli_wall_s"] = summarise(arms.cli_walls)
    block.update({
        "passes": {
            "untraced": len(samples), "reference": len(arms.reference),
            "traced": len(arms.traced), "setup": len(setup_samples),
            "cli": len(arms.cli_walls),
        },
        "digest": samples[0].digest,
        "digest_pinned": pinned is not None,
        "end_to_end": {
            metric.name: {**measured[metric.name], "unit": metric.unit}
            for metric in END_TO_END
            if metric.applies_to(name) and metric.name in measured
        },
    })

    if arms.traced:
        facts, unmeasured = workload.layer_facts(arms.reference, samples)
        # The traced pass is compared with untraced passes of the same arm.
        baseline = arms.reference or samples
        overhead = arms.traced[0].wall_s / statistics.median(
            sample.wall_s for sample in baseline
        )
        values = _layer_values(arms.tracer, {**arms.facts, **facts}, overhead)
        block["per_layer"] = {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in PER_LAYER
        }
        block["unmeasured"] = unmeasured
    return block
