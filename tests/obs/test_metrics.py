"""Tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    strip_timings,
)
from repro.sim.errors import ConfigurationError

_finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_decrease_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("x").inc(-1)
        with pytest.raises(ConfigurationError, match=r"counter 'x' cannot decrease \(amount=-1\)"):
            Metrics().inc("x", -1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("x")
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram("x", buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 9.0):
            h.observe(value)
        assert h.counts == [2, 1, 1]  # <=1, <=2, overflow
        assert h.count == 4
        assert h.sum == 12.0

    def test_summary_is_jsonable(self):
        h = Histogram("x")
        h.observe(0.2)
        json.dumps(h.summary())

    def test_empty_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("x", buckets=())

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("x", buckets=(2.0, 1.0))

    @given(
        bounds=st.lists(_finite, min_size=1, max_size=12, unique=True).map(sorted),
        values=st.lists(st.one_of(_finite, st.integers(-50, 50)), max_size=30),
        on_bound=st.lists(st.integers(0, 11), max_size=6),
    )
    def test_observe_matches_linear_scan(self, bounds, values, on_bound):
        """The slot is the first bound >= the value, else the overflow, both
        through ``Histogram.observe`` and ``Metrics.observe``."""
        buckets = tuple(bounds)
        values = list(values) + [buckets[i % len(buckets)] for i in on_bound]
        values += [buckets[0] - 1.0, buckets[-1] + 1.0]  # below first, above last
        expected = [0] * (len(buckets) + 1)
        for value in values:
            expected[next((i for i, b in enumerate(buckets) if value <= b), len(buckets))] += 1
        histogram, metrics = Histogram("h", buckets), Metrics()
        for value in values:
            histogram.observe(value)
            metrics.observe("h", value, buckets=buckets)
        assert histogram.counts == expected and histogram.count == len(values)
        assert metrics.snapshot()["histograms"]["h"] == histogram.summary()


class TestMetricsRegistry:
    def test_get_or_create_by_name(self):
        m = Metrics()
        assert m.counter("a") is m.counter("a")
        assert m.gauge("b") is m.gauge("b")
        assert m.histogram("c") is m.histogram("c")

    def test_one_line_write_paths(self):
        m = Metrics()
        m.inc("sent", 3)
        m.set_gauge("pop", 12)
        m.observe("delay", 0.4)
        assert m.value("sent") == 3
        assert m.value("pop") == 12
        assert m.histogram("delay").count == 1

    def test_value_of_unknown_name_is_zero(self):
        assert Metrics().value("never") == 0

    def test_snapshot_sorted_and_jsonable(self):
        m = Metrics()
        m.inc("z")
        m.inc("a")
        m.set_gauge("g", 1.0)
        m.observe("h", 2.0)
        snap = m.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert set(snap) == {"counters", "gauges", "histograms"}
        json.dumps(snap)

    def test_timings_excluded_unless_requested(self):
        m = Metrics()
        with m.timer("simulate"):
            pass
        assert "timings" not in m.snapshot()
        timed = m.snapshot(include_timing=True)
        assert "simulate" in timed["timings"]

    def test_timer_accumulates_across_entries(self):
        m = Metrics()
        with m.timer("p"):
            pass
        first = m.timings()["p"]
        with m.timer("p"):
            pass
        assert m.timings()["p"] >= first

    def test_add_timing_accumulates(self):
        m = Metrics()
        m.add_timing("plan", 0.5)
        m.add_timing("plan", 0.25)
        assert m.timings()["plan"] == 0.75

    def test_strip_timings(self):
        snap = {"counters": {"a": 1}, "timings": {"x": 0.1}}
        assert strip_timings(snap) == {"counters": {"a": 1}}
        assert "timings" in snap  # original untouched


class TestSimulatorIntegration:
    def test_simulator_populates_substrate_metrics(self):
        from repro.api import QueryConfig, run_query

        outcome = run_query(
            QueryConfig(n=12, topology="er", aggregate="COUNT", seed=3)
        )
        counters = outcome.metrics["counters"]
        assert counters["net.sent"] > 0
        assert counters["net.delivered"] > 0
        assert counters["net.sent"] == outcome.trace.count("send")
        assert outcome.metrics["histograms"]["net.delivery_delay"]["count"] > 0
        assert outcome.metrics["gauges"]["sim.population"] == 12

    def test_snapshot_deterministic_for_fixed_seed(self):
        from repro.api import QueryConfig, run_query

        config = QueryConfig(n=10, topology="er", aggregate="SUM", seed=9)
        a = run_query(config).metrics
        b = run_query(config).metrics
        assert strip_timings(a) == strip_timings(b)
