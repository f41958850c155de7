"""Tests for the statistics toolkit (repro.analysis.stats)."""

from __future__ import annotations

import math
import random

import pytest

from repro.analysis.stats import (
    bootstrap_mean_ci,
    mean,
    paired_differences,
    paired_seed_compare,
    proportion,
    quantile,
    sem,
    stddev,
    summarize,
    variance,
)


class TestBasicMoments:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_variance(self):
        assert variance([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(4.571, abs=0.01)

    def test_variance_single_value(self):
        assert variance([3.0]) == 0.0

    def test_stddev(self):
        assert stddev([1.0, 1.0]) == 0.0
        assert stddev([0.0, 2.0]) == pytest.approx(math.sqrt(2.0))

    def test_sem_shrinks_with_n(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert sem(values * 4) < sem(values)


class TestQuantile:
    def test_median(self):
        assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 5.0

    def test_interpolation(self):
        assert quantile([0.0, 10.0], 0.25) == 2.5

    def test_single_value(self):
        assert quantile([7.0], 0.9) == 7.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestSummarize:
    def test_fields(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_zero_spread(self):
        summary = summarize([5.0, 5.0, 5.0])
        assert summary.ci_low == summary.ci_high == 5.0

    def test_ci_width_shrinks_with_n(self):
        r = random.Random(0)
        small = summarize([r.gauss(0, 1) for _ in range(10)])
        large = summarize([r.gauss(0, 1) for _ in range(1000)])
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)

    def test_confidence_95_z_value(self):
        # With one known case: z(0.95) ~= 1.96
        summary = summarize([0.0, 2.0], confidence=0.95)
        half = (summary.ci_high - summary.ci_low) / 2
        expected = 1.959964 * stddev([0.0, 2.0]) / math.sqrt(2)
        assert half == pytest.approx(expected, rel=1e-4)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            summarize([1.0], confidence=1.5)

    def test_str(self):
        assert "n=3" in str(summarize([1.0, 2.0, 3.0]))


class TestBootstrap:
    def test_contains_mean_for_tight_data(self):
        values = [10.0, 10.1, 9.9, 10.0, 10.05]
        ci = bootstrap_mean_ci(values, seed=0)
        assert ci.low <= 10.0 <= ci.high
        assert ci.width < 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([], seed=0)

    def test_deterministic_given_rng(self):
        values = [1.0, 5.0, 3.0]
        a = bootstrap_mean_ci(values, seed=4)
        b = bootstrap_mean_ci(values, seed=4)
        assert (a.low, a.high) == (b.low, b.high)


class TestProportion:
    def test_basic(self):
        assert proportion([True, False, True, True]) == 0.75

    def test_empty(self):
        assert proportion([]) == 0.0

    def test_accepts_generator(self):
        assert proportion(x > 1 for x in [0, 1, 2, 3]) == 0.5


class TestBootstrapMeanCI:
    def test_percentile_contains_point_estimate(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        ci = bootstrap_mean_ci(values, seed=7)
        assert ci.method == "percentile"
        assert ci.contains(ci.point)
        assert ci.point == mean(values)

    def test_constant_sample_collapses_to_point(self):
        ci = bootstrap_mean_ci([3.0] * 8, seed=1)
        assert (ci.low, ci.point, ci.high) == (3.0, 3.0, 3.0)
        assert ci.width == 0.0

    def test_deterministic_under_fixed_seed(self):
        values = [0.4, 1.7, -0.3, 2.2, 0.9]
        a = bootstrap_mean_ci(values, seed=42, resamples=500)
        b = bootstrap_mean_ci(values, seed=42, resamples=500)
        assert (a.low, a.high) == (b.low, b.high)
        c = bootstrap_mean_ci(values, seed=43, resamples=500)
        assert (a.low, a.high) != (c.low, c.high)

    def test_bca_method(self):
        values = [0.1, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4]
        ci = bootstrap_mean_ci(values, seed=5, method="bca")
        assert ci.method == "bca"
        assert ci.low < ci.point < ci.high

    def test_validation(self):
        with pytest.raises(ValueError, match="no values"):
            bootstrap_mean_ci([])
        with pytest.raises(ValueError, match="confidence"):
            bootstrap_mean_ci([1.0, 2.0], confidence=1.5)
        with pytest.raises(ValueError, match="resamples"):
            bootstrap_mean_ci([1.0, 2.0], resamples=0)
        with pytest.raises(ValueError, match="method"):
            bootstrap_mean_ci([1.0, 2.0], method="jackknife")

    def test_str_shows_bounds(self):
        text = str(bootstrap_mean_ci([1.0, 2.0, 3.0], seed=0))
        assert "95%" in text and "[" in text and "]" in text


class TestPairedDifferences:
    def test_candidate_minus_baseline_in_key_order(self):
        base = {("t", 2): 1.0, ("t", 1): 5.0}
        cand = {("t", 1): 4.0, ("t", 2): 3.0}
        assert paired_differences(base, cand) == [-1.0, 2.0]

    def test_mismatched_keys_name_both_sides(self):
        with pytest.raises(ValueError) as err:
            paired_differences({"a": 1.0, "b": 2.0}, {"b": 2.0, "c": 3.0})
        assert "'a'" in str(err.value) and "'c'" in str(err.value)

    def test_empty_arms_compare_as_no_pairs(self):
        assert paired_differences({}, {}) == []
        with pytest.raises(ValueError, match="no pairs"):
            paired_seed_compare({}, {})


class TestPairedSeedCompare:
    def test_shift_detected_as_significant(self):
        base = {i: float(i % 5) for i in range(20)}
        cand = {i: float(i % 5) + 2.0 for i in range(20)}
        cmp = paired_seed_compare(base, cand, seed=3)
        assert cmp.n_pairs == 20
        assert cmp.delta_mean == pytest.approx(2.0)
        assert cmp.significant
        assert cmp.ci.low > 0.0

    def test_identical_arms_not_significant(self):
        arm = {i: float(i) for i in range(10)}
        cmp = paired_seed_compare(arm, dict(arm), seed=3)
        assert cmp.delta_mean == 0.0
        assert not cmp.significant
