"""Bench regression gate: compare two result documents metric by metric.

Every engine result document is deterministic for a fixed plan and root
seed (wall clock is quarantined), so a committed baseline document is an
exact fixture: re-running the same plan must reproduce its per-point
summaries within the configured per-metric relative thresholds, and any
drift beyond them is a behavioral regression the gate should catch before
merge.  ``repro bench diff`` (and the CI workflow, against
``benchmarks/BASELINE.json``) runs exactly this comparison and exits
non-zero on regression when ``--fail-on-regression`` is set.

Two input shapes are understood:

* **schema-v2 result documents** (``repro-engine-results``) — points are
  matched on their grid coordinates and each summary metric is compared
  with a direction (higher-better for ``ok``/``completeness``/
  ``fully_complete``, lower-better for ``error``/``latency``/``messages``
  and the deterministic ``events_executed``);
* **BENCH payloads** (``benchmarks/emit_bench.py`` output) — flat numeric
  fields; wall-clock fields get a generous lower-is-better threshold,
  deterministic totals are held to exact agreement by default.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.analysis.stats import bootstrap_mean_ci, paired_differences
from repro.analysis.tables import render_table
from repro.engine.results import SCHEMA_NAME, read_document, validate_document
from repro.sim.errors import ConfigurationError

#: Default per-metric relative thresholds for result-document summaries:
#: ``(allowed relative worsening, higher_is_better)``.  The documents are
#: deterministic, so the defaults are tight; loosen per metric with
#: ``--metric name=rel`` when a plan intentionally changes.
DOCUMENT_THRESHOLDS: dict[str, tuple[float, bool]] = {
    "ok": (0.0, True),
    "completeness": (0.0, True),
    "fully_complete": (0.0, True),
    "error": (0.0, False),
    "latency": (0.0, False),
    "messages": (0.0, False),
    "events_executed": (0.0, False),
}

#: Default thresholds for BENCH payload scalars.  Wall-clock numbers are
#: machine noise, so they get room; deterministic totals do not.
BENCH_THRESHOLDS: dict[str, tuple[float, bool]] = {
    "serial_wall_s": (0.50, False),
    "parallel_wall_s": (0.50, False),
    "speedup": (0.50, True),
    "events_executed_total": (0.0, False),
    # The size ledger's count of committed mutants: dropping one fails.
    "mutants": (0.0, True),
}

#: Prefix/suffix rules for BENCH payload metrics with no exact entry above.
#: ``emit_scale.py`` emits one ``events_per_sec_n<N>`` / ``peak_rss_kb_n<N>``
#: / ``sim_wall_s_n<N>`` / ``setup_s_n<N>`` scalar per population size (the
#: size suffix means the ``*_wall_s`` suffix rule below never sees them, so
#: the two time families are prefixes here) and ``emit_bench.py`` emits a
#: ``trials_per_sec_<backend>`` pair, so the gate matches metric
#: *families* by shape: throughput is higher-better, memory and wall time
#: lower-better, all with the 50% machine-noise slack.  Telemetry and
#: checkpoint overheads are same-box wall-time *ratios* (feature on /
#: feature off), so the machine noise largely cancels and the budget is
#: the tight 5% the observability and crash-safety contracts promise.
_BENCH_PREFIX_RULES: tuple[tuple[str, tuple[float, bool]], ...] = (
    ("events_per_sec", (0.50, True)),
    ("trials_per_sec", (0.50, True)),
    ("peak_rss", (0.50, False)),
    ("sim_wall_s", (0.50, False)),
    ("setup_s", (0.50, False)),
    ("telemetry_overhead", (0.05, False)),
    ("checkpoint_overhead", (0.05, False)),
)


def _bench_rule(name: str) -> tuple[float, bool] | None:
    """The (threshold, higher_is_better) rule for a BENCH metric name,
    or ``None`` when the metric is not gated (plain descriptive fields
    like ``n`` or ``trials``)."""
    if name in BENCH_THRESHOLDS:
        return BENCH_THRESHOLDS[name]
    for prefix, rule in _BENCH_PREFIX_RULES:
        if name.startswith(prefix):
            return rule
    if name.endswith("_wall_s"):
        return (0.50, False)
    return None


@dataclass(frozen=True)
class MetricDiff:
    """One baseline-vs-candidate comparison of a single metric.

    When the comparison ran with ``bootstrap`` resamples, ``ci_low`` /
    ``ci_high`` bound the mean per-seed *worsening* (positive = candidate
    worse, same sign convention as ``rel_change``) and the regression
    verdict additionally requires the interval to exclude zero — point
    noise within the seed pairing can no longer flip the gate.
    """

    label: str
    metric: str
    baseline: float
    candidate: float
    rel_change: float  # positive = worse, in units of |baseline|
    threshold: float
    regressed: bool
    ci_low: float | None = None
    ci_high: float | None = None
    ci_confidence: float | None = None
    n_pairs: int | None = None

    @property
    def significant(self) -> bool:
        """The worsening CI excludes zero (only when bootstrapped)."""
        return self.ci_low is not None and self.ci_low > 0.0

    def __str__(self) -> str:
        flag = "REGRESSED" if self.regressed else "ok"
        ci = ""
        if self.ci_low is not None and self.ci_high is not None:
            ci = (
                f" delta CI [{self.ci_low:+g}, {self.ci_high:+g}]"
                f"@{self.ci_confidence:.0%}"
            )
        return (
            f"{self.label} {self.metric}: {self.baseline:g} -> "
            f"{self.candidate:g} ({self.rel_change:+.2%} vs "
            f"threshold {self.threshold:.2%}){ci} {flag}"
        )


@dataclass
class BenchDiff:
    """The full comparison: every metric at every matched point."""

    entries: list[MetricDiff] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # baseline-only labels
    extra: list[str] = field(default_factory=list)    # candidate-only labels

    @property
    def regressions(self) -> list[MetricDiff]:
        return [entry for entry in self.entries if entry.regressed]

    @property
    def ok(self) -> bool:
        """No regressions and no baseline point missing from the candidate
        (new candidate-only points are fine — grids may grow)."""
        return not self.regressions and not self.missing

    @property
    def exit_code(self) -> int:
        """The gate's process exit code under ``--fail-on-regression``.

        ``0`` clean, ``1`` regression, ``2`` comparison-shape problems —
        a baseline point or gated metric missing (schema drift), which
        dominates because a drifted comparison proves nothing about
        performance either way.
        """
        if self.missing:
            return 2
        if self.regressions:
            return 1
        return 0

    def render(self, only_regressions: bool = False) -> str:
        """A human-readable comparison table."""
        rows = []
        shown = self.regressions if only_regressions else self.entries
        with_ci = any(entry.ci_low is not None for entry in shown)
        for entry in shown:
            row = [
                entry.label,
                entry.metric,
                f"{entry.baseline:g}",
                f"{entry.candidate:g}",
                f"{entry.rel_change:+.2%}",
            ]
            if with_ci:
                row.append(
                    f"[{entry.ci_low:+g}, {entry.ci_high:+g}]"
                    if entry.ci_low is not None else "-"
                )
            row.append("REGRESSED" if entry.regressed else "ok")
            rows.append(row)
        header = ["point", "metric", "baseline", "candidate", "change"]
        if with_ci:
            header.append("delta CI")
        header.append("verdict")
        table = render_table(
            header,
            rows,
            title=(f"bench diff: {len(self.entries)} comparisons, "
                   f"{len(self.regressions)} regression(s)"),
        )
        notes = []
        if self.missing:
            notes.append(
                f"baseline points missing from candidate: {self.missing}"
            )
        if self.extra:
            notes.append(f"candidate-only points (ignored): {self.extra}")
        return "\n".join([table] + notes)


def _relative_change(
    baseline: float, candidate: float, higher_is_better: bool
) -> float:
    """Signed relative worsening: positive means the candidate is worse."""
    worsening = baseline - candidate if higher_is_better else candidate - baseline
    if math.isnan(baseline) and math.isnan(candidate):
        return 0.0
    if math.isinf(baseline) and math.isinf(candidate) and baseline == candidate:
        return 0.0
    if not math.isfinite(baseline) or not math.isfinite(candidate):
        # One side finite, the other not: direction decides severity.
        return math.copysign(math.inf, worsening) if worsening != 0 else 0.0
    if baseline == 0.0:
        return 0.0 if worsening == 0.0 else math.copysign(math.inf, worsening)
    return worsening / abs(baseline)


def _compare(
    label: str,
    metric: str,
    baseline: float,
    candidate: float,
    threshold: float,
    higher_is_better: bool,
) -> MetricDiff:
    rel = _relative_change(baseline, candidate, higher_is_better)
    return MetricDiff(
        label=label,
        metric=metric,
        baseline=baseline,
        candidate=candidate,
        rel_change=rel,
        threshold=threshold,
        regressed=rel > threshold,
    )


#: Per-trial value of each summary metric, for seed-paired bootstraps.
#: Mirrors :func:`repro.engine.results.summarize_point` (``ok`` and
#: ``fully_complete`` are per-trial indicator variables whose means are
#: the summary fractions).
_TRIAL_EXTRACTORS: dict[str, Callable[[Mapping[str, Any]], float]] = {
    "ok": lambda t: 1.0 if t.get("ok") else 0.0,
    "completeness": lambda t: float(t.get("completeness", 0.0)),
    "fully_complete": lambda t: 1.0 if t.get("completeness") == 1.0 else 0.0,
    "error": lambda t: float(t.get("error", 0.0)),
    "latency": lambda t: float(t.get("latency", 0.0)),
    "messages": lambda t: float(t.get("messages", 0)),
    "events_executed": lambda t: float(t.get("events_executed", 0)),
}


def _ci_seed(label: str, metric: str) -> int:
    """Deterministic bootstrap seed per (point, metric) comparison."""
    return zlib.crc32(f"{label}|{metric}".encode("utf-8"))


def _paired_worsening(
    base_trials: list[Mapping[str, Any]],
    cand_trials: list[Mapping[str, Any]],
    metric: str,
    higher_is_better: bool,
    label: str,
) -> list[float]:
    """Per-seed worsening deltas (positive = candidate worse).

    Both arms of an engine comparison run the same plan, so trial ``t``
    of a point carries the same seed in both documents; the pairing keys
    on ``(trial, seed)`` and refuses mismatched arms — a comparison whose
    seed fan-outs differ is not the paired experiment the CI describes.
    """
    extract = _TRIAL_EXTRACTORS[metric]

    def keyed(trials: list[Mapping[str, Any]]) -> dict[tuple, float]:
        return {
            (int(t.get("trial", i)), int(t.get("seed", 0))): extract(t)
            for i, t in enumerate(trials)
        }

    try:
        deltas = paired_differences(keyed(base_trials), keyed(cand_trials))
    except ValueError as error:
        raise ConfigurationError(
            f"{label} {metric}: arms are not seed-paired — {error}"
        ) from None
    if higher_is_better:
        return [-d for d in deltas]
    return deltas


def _point_label(point: Mapping[str, Any]) -> str:
    if not point:
        return "(base)"
    return ",".join(f"{key}={point[key]}" for key in sorted(point))


def _merge_thresholds(
    defaults: dict[str, tuple[float, bool]],
    overrides: Mapping[str, float] | None,
) -> dict[str, tuple[float, bool]]:
    merged = dict(defaults)
    for name, rel in (overrides or {}).items():
        if rel < 0:
            raise ConfigurationError(
                f"threshold for {name!r} must be >= 0, got {rel}"
            )
        _, higher = merged.get(name, (0.0, False))
        merged[name] = (float(rel), higher)
    return merged


def diff_documents(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    thresholds: Mapping[str, float] | None = None,
    bootstrap: int = 0,
    confidence: float = 0.95,
) -> BenchDiff:
    """Compare two schema-versioned result documents point by point.

    ``thresholds`` overrides the allowed relative worsening per metric
    (direction stays as in :data:`DOCUMENT_THRESHOLDS`).  Baseline points
    absent from the candidate count against :attr:`BenchDiff.ok`;
    candidate-only points are reported but tolerated.

    With ``bootstrap`` > 0, every comparison also pairs the two arms'
    trials by seed, bootstraps the mean per-seed worsening with that many
    resamples (deterministically — the bootstrap seed is derived from the
    point label and metric name), and attaches the ``confidence`` interval
    to the entry.  The regression verdict then requires both the relative
    threshold *and* the interval to exclude zero, so a single noisy seed
    cannot fail the gate on its own.
    """
    validate_document(baseline)
    validate_document(candidate)
    merged = _merge_thresholds(DOCUMENT_THRESHOLDS, thresholds)
    if bootstrap < 0:
        raise ConfigurationError(
            f"bootstrap resamples must be >= 0, got {bootstrap}"
        )

    def summaries(
        doc: Mapping[str, Any],
    ) -> dict[tuple, tuple[str, Mapping[str, Any], list[Mapping[str, Any]]]]:
        out: dict[tuple, tuple[str, Mapping[str, Any], list[Mapping[str, Any]]]] = {}
        for entry in doc["points"]:
            point = entry["point"]
            key = tuple(sorted((str(k), repr(v)) for k, v in point.items()))
            out[key] = (
                _point_label(point),
                entry.get("summary", {}),
                entry.get("trials", []),
            )
        return out

    base_points = summaries(baseline)
    cand_points = summaries(candidate)
    diff = BenchDiff()
    diff.missing = [
        label for key, (label, _, _) in base_points.items()
        if key not in cand_points
    ]
    diff.extra = [
        label for key, (label, _, _) in cand_points.items()
        if key not in base_points
    ]
    for key, (label, base_summary, base_trials) in base_points.items():
        if key not in cand_points:
            continue
        _, cand_summary, cand_trials = cand_points[key]
        for metric, (threshold, higher) in merged.items():
            if metric not in base_summary or metric not in cand_summary:
                continue
            entry = _compare(
                label, metric,
                float(base_summary[metric]), float(cand_summary[metric]),
                threshold, higher,
            )
            if bootstrap and metric in _TRIAL_EXTRACTORS \
                    and base_trials and cand_trials:
                deltas = _paired_worsening(
                    base_trials, cand_trials, metric, higher, label,
                )
                ci = bootstrap_mean_ci(
                    deltas, confidence=confidence, resamples=bootstrap,
                    seed=_ci_seed(label, metric),
                )
                entry = MetricDiff(
                    label=entry.label,
                    metric=entry.metric,
                    baseline=entry.baseline,
                    candidate=entry.candidate,
                    rel_change=entry.rel_change,
                    threshold=entry.threshold,
                    regressed=entry.regressed and ci.low > 0.0,
                    ci_low=ci.low,
                    ci_high=ci.high,
                    ci_confidence=confidence,
                    n_pairs=ci.n,
                )
            diff.entries.append(entry)
    return diff


def diff_bench_payloads(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    thresholds: Mapping[str, float] | None = None,
) -> BenchDiff:
    """Compare two ``emit_bench.py`` payloads on their numeric scalars.

    Wall-clock fields use generous lower-is-better thresholds; the
    deterministic ``events_executed_total`` and every ``metrics_totals``
    counter are held to exact agreement unless overridden.  Metric
    *families* — ``events_per_sec_*`` (higher-better), ``peak_rss*``,
    ``sim_wall_s*``, ``setup_s*`` and ``*_wall_s`` (lower-better) — are
    gated by shape, so scale-curve payloads with one entry per population
    size need no per-size configuration.  Metrics absent from either
    payload are skipped.
    """
    overrides = dict(thresholds or {})
    for name, rel in overrides.items():
        if rel < 0:
            raise ConfigurationError(
                f"threshold for {name!r} must be >= 0, got {rel}"
            )
    label = str(baseline.get("benchmark", "bench"))
    diff = BenchDiff()

    def numeric_names(payload: Mapping[str, Any]) -> set[str]:
        return {
            name for name, value in payload.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }

    for metric in sorted(numeric_names(baseline) | numeric_names(candidate)):
        rule = _bench_rule(metric)
        if metric in overrides:
            # An override adjusts the slack; the direction still comes
            # from the rule (default lower-is-better for unknown names).
            rule = (overrides[metric], rule[1] if rule else False)
        if rule is None:
            continue
        if metric not in baseline:
            # A gated metric the candidate emits but the committed
            # baseline lacks is schema drift, not a perf verdict: the
            # gate cannot have been protecting it.  Surface it as
            # missing (exit code 2) instead of silently skipping.
            diff.missing.append(f"baseline:{metric}")
            continue
        if metric not in candidate:
            # Baseline-only gated metrics stay tolerated: smoke payloads
            # legitimately emit a subset of the committed curve (e.g. the
            # scale gate's per-size families).
            continue
        threshold, higher = rule
        diff.entries.append(_compare(
            label, metric,
            float(baseline[metric]), float(candidate[metric]),
            threshold, higher,
        ))
    base_totals = baseline.get("metrics_totals", {}) or {}
    cand_totals = candidate.get("metrics_totals", {}) or {}
    for name in sorted(base_totals):
        if name not in cand_totals:
            diff.missing.append(f"metrics_totals.{name}")
            continue
        threshold = overrides.get(f"metrics_totals.{name}", 0.0)
        higher = False
        diff.entries.append(_compare(
            label, f"metrics_totals.{name}",
            float(base_totals[name]), float(cand_totals[name]),
            threshold, higher,
        ))
    return diff


def load_comparable(path: str | Path) -> Mapping[str, Any]:
    """Load a JSON file the gate knows how to compare.

    Schema-versioned engine documents are validated (raising the typed
    :class:`~repro.obs.codec.SchemaVersionError` on unknown
    versions); anything with a ``benchmark`` field is treated as an
    ``emit_bench.py`` payload.
    """
    document = read_document(str(path))
    if isinstance(document, Mapping) and document.get("schema") == SCHEMA_NAME:
        validate_document(document)
        return document
    if isinstance(document, Mapping) and "benchmark" in document:
        return document
    raise ConfigurationError(
        f"{path} is neither a {SCHEMA_NAME} document nor an emit_bench "
        "payload; nothing to compare"
    )


def diff_files(
    baseline_path: str | Path,
    candidate_path: str | Path,
    thresholds: Mapping[str, float] | None = None,
    bootstrap: int = 0,
    confidence: float = 0.95,
) -> BenchDiff:
    """Load two files (result documents or BENCH payloads) and diff them.

    ``bootstrap``/``confidence`` apply to result documents only (BENCH
    payloads are flat scalars with no per-trial samples to pair).
    """
    baseline = load_comparable(baseline_path)
    candidate = load_comparable(candidate_path)
    base_is_doc = baseline.get("schema") == SCHEMA_NAME
    cand_is_doc = candidate.get("schema") == SCHEMA_NAME
    if base_is_doc != cand_is_doc:
        raise ConfigurationError(
            "cannot compare a result document against a BENCH payload; "
            "pass two files of the same shape"
        )
    if base_is_doc:
        return diff_documents(
            baseline, candidate, thresholds,
            bootstrap=bootstrap, confidence=confidence,
        )
    return diff_bench_payloads(baseline, candidate, thresholds)
