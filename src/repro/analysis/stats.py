"""Small statistics toolkit for experiment results.

Trial outcomes are floats; experiments repeat trials over independent seeds
and report a :class:`Summary` (mean, spread, confidence interval).  Only the
standard library and optional :mod:`math` are used so the analysis layer
stays dependency-light.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

#: Bootstrap interval constructions understood by :func:`bootstrap_mean_ci`.
BOOTSTRAP_METHODS = ("percentile", "bca")


@dataclass(frozen=True)
class Summary:
    """Descriptive statistics of one metric over repeated trials."""

    count: int
    mean: float
    stddev: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        return (
            f"{self.mean:.4g} ± {(self.ci_high - self.ci_low) / 2:.2g} "
            f"[{self.minimum:.4g}, {self.maximum:.4g}] (n={self.count})"
        )


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


def variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (0.0 for a single value)."""
    if not values:
        raise ValueError("variance of no values")
    if len(values) == 1:
        return 0.0
    m = mean(values)
    return sum((v - m) ** 2 for v in values) / (len(values) - 1)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation."""
    return math.sqrt(variance(values))


def sem(values: Sequence[float]) -> float:
    """Standard error of the mean."""
    if not values:
        raise ValueError("sem of no values")
    return stddev(values) / math.sqrt(len(values))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    if not values:
        raise ValueError("quantile of no values")
    if not 0 <= q <= 1:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high or ordered[low] == ordered[high]:
        # The equal-values case also dodges denormal rounding noise in the
        # interpolation below.
        return ordered[low]
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def summarize(values: Sequence[float], confidence: float = 0.95) -> Summary:
    """Summary statistics with a normal-approximation confidence interval.

    For the small trial counts used here the normal approximation slightly
    understates the interval; the benchmark tables only need the order of
    magnitude of the spread.
    """
    if not values:
        raise ValueError("summarize of no values")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    m = mean(values)
    s = stddev(values)
    # Two-sided normal critical value.
    z = _norm_ppf((1 + confidence) / 2)
    half = z * s / math.sqrt(len(values))
    return Summary(
        count=len(values),
        mean=m,
        stddev=s,
        minimum=min(values),
        maximum=max(values),
        ci_low=m - half,
        ci_high=m + half,
    )


def _norm_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2)))


def _norm_ppf(p: float) -> float:
    """Standard normal inverse CDF via bisection on :func:`math.erf` (no
    scipy dependency); ``p`` is clamped away from the endpoints so
    degenerate bootstrap distributions (every resample on one side of the
    point estimate) stay finite.
    """
    p = min(max(p, 1e-9), 1.0 - 1e-9)
    low, high = -10.0, 10.0
    for _ in range(80):
        mid = (low + high) / 2
        if _norm_cdf(mid) < p:
            low = mid
        else:
            high = mid
    return (low + high) / 2


@dataclass(frozen=True)
class BootstrapCI:
    """A bootstrap confidence interval for the mean of one sample.

    Deterministic: the interval is a pure function of ``(values, seed,
    confidence, resamples, method)``, so re-running a comparison reproduces
    the same bounds bit for bit.
    """

    low: float
    high: float
    point: float
    confidence: float
    resamples: int
    method: str
    n: int

    @property
    def width(self) -> float:
        return self.high - self.low

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.point:.4g} [{self.low:.4g}, {self.high:.4g}] "
            f"({self.confidence:.0%} {self.method}, B={self.resamples}, "
            f"n={self.n})"
        )


def bootstrap_mean_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
    method: str = "percentile",
) -> BootstrapCI:
    """Bootstrap confidence interval for the mean, seeded and typed.

    ``method`` selects the interval construction: ``"percentile"`` (the
    empirical quantiles of the resampled means) or ``"bca"`` (bias-corrected
    and accelerated — the bias correction comes from the fraction of
    resampled means below the point estimate, the acceleration from the
    jackknife skewness; better coverage for skewed metrics at small n).
    A constant sample collapses the interval to the point estimate.
    """
    if not values:
        raise ValueError("bootstrap of no values")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    if method not in BOOTSTRAP_METHODS:
        raise ValueError(
            f"unknown bootstrap method {method!r}; use "
            f"{' or '.join(BOOTSTRAP_METHODS)}"
        )
    values = [float(v) for v in values]
    n = len(values)
    point = sum(values) / n

    def make(low: float, high: float) -> BootstrapCI:
        return BootstrapCI(
            low=low, high=high, point=point, confidence=confidence,
            resamples=resamples, method=method, n=n,
        )

    if min(values) == max(values):
        return make(point, point)
    rng = random.Random(seed)
    means = []
    for _ in range(resamples):
        sample = [values[rng.randrange(n)] for _ in range(n)]
        means.append(sum(sample) / n)
    alpha = (1 - confidence) / 2
    if method == "percentile":
        return make(quantile(means, alpha), quantile(means, 1 - alpha))
    # BCa: bias correction z0 from the bootstrap distribution's position
    # relative to the point estimate, acceleration a from the jackknife.
    below = sum(1 for m in means if m < point)
    ties = sum(1 for m in means if m == point)
    z0 = _norm_ppf((below + 0.5 * ties) / resamples)
    if n > 1:
        jack = [(point * n - v) / (n - 1) for v in values]
        jbar = sum(jack) / n
        num = sum((jbar - j) ** 3 for j in jack)
        den = sum((jbar - j) ** 2 for j in jack) ** 1.5
        accel = num / (6 * den) if den > 0 else 0.0
    else:
        accel = 0.0
    out: list[float] = []
    for a in (alpha, 1 - alpha):
        z = _norm_ppf(a)
        denom = 1 - accel * (z0 + z)
        if denom <= 0:
            # Extreme acceleration: fall back to the raw quantile rather
            # than extrapolate past the bootstrap distribution's support.
            out.append(quantile(means, a))
            continue
        out.append(quantile(means, _norm_cdf(z0 + (z0 + z) / denom)))
    return make(min(out), max(out))


def paired_differences(
    baseline: Mapping[Any, float], candidate: Mapping[Any, float]
) -> list[float]:
    """Per-key deltas ``candidate[k] - baseline[k]`` for paired samples.

    The pairing is a bijection on the key set (for engine documents the
    keys are trial seeds — the same-seed fan-out in both arms): both
    mappings must carry exactly the same keys, and the returned order is
    canonical (sorted by key repr), so any permutation of either input
    yields the identical list.
    """
    base_keys, cand_keys = set(baseline), set(candidate)
    if base_keys != cand_keys:
        only_base = sorted(map(repr, base_keys - cand_keys))
        only_cand = sorted(map(repr, cand_keys - base_keys))
        raise ValueError(
            "paired comparison needs the same keys in both arms; "
            f"baseline-only: {only_base}, candidate-only: {only_cand}"
        )
    return [
        float(candidate[key]) - float(baseline[key])
        for key in sorted(baseline, key=repr)
    ]


@dataclass(frozen=True)
class PairedComparison:
    """A paired-seed comparison of one metric across two arms."""

    n_pairs: int
    baseline_mean: float
    candidate_mean: float
    delta_mean: float
    ci: BootstrapCI

    @property
    def significant(self) -> bool:
        """The confidence interval for the mean delta excludes zero."""
        return not self.ci.contains(0.0)

    def __str__(self) -> str:
        verdict = "significant" if self.significant else "inconclusive"
        return (
            f"delta {self.delta_mean:+.4g} "
            f"[{self.ci.low:+.4g}, {self.ci.high:+.4g}] over "
            f"{self.n_pairs} pairs ({verdict})"
        )


def paired_seed_compare(
    baseline: Mapping[Any, float],
    candidate: Mapping[Any, float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
    method: str = "percentile",
) -> PairedComparison:
    """Paired bootstrap comparison of two same-seed arms.

    Pairs the two mappings by key (trial seed), bootstraps the mean of the
    per-seed deltas, and reports the comparison with its confidence
    interval; :attr:`PairedComparison.significant` is the CI-overlap
    verdict ``repro bench diff --bootstrap`` prints.
    """
    deltas = paired_differences(baseline, candidate)
    if not deltas:
        raise ValueError("paired comparison of no pairs")
    keys = sorted(baseline, key=repr)
    base_values = [float(baseline[key]) for key in keys]
    cand_values = [float(candidate[key]) for key in keys]
    ci = bootstrap_mean_ci(
        deltas, confidence=confidence, resamples=resamples, seed=seed,
        method=method,
    )
    return PairedComparison(
        n_pairs=len(deltas),
        baseline_mean=sum(base_values) / len(base_values),
        candidate_mean=sum(cand_values) / len(cand_values),
        delta_mean=sum(deltas) / len(deltas),
        ci=ci,
    )


def proportion(flags: Iterable[bool]) -> float:
    """Fraction of ``True`` among the flags; 0.0 for empty input."""
    flags = list(flags)
    if not flags:
        return 0.0
    return sum(1 for f in flags if f) / len(flags)
