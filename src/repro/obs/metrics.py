"""The metrics registry: counters, gauges and fixed-bucket histograms.

Every simulator owns a :class:`Metrics` registry
(:attr:`repro.sim.scheduler.Simulator.metrics`).  The substrate writes into
it as it runs — the network counts sends/deliveries/drops and observes
delivery delays, churn models count membership turnover, the heartbeat
detector counts suspicions, protocols count queries — and the experiment
engine embeds one :meth:`Metrics.snapshot` per trial into the schema-v2
result document.

Determinism contract: everything except the ``timings`` section is derived
from the simulation alone, so for a fixed seed the snapshot is identical no
matter where or how fast the trial ran.  Wall-clock phase timers are
quarantined under ``timings`` and excluded from canonical documents (the
same rule as :class:`~repro.engine.results.TrialResult.wall_time`).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from repro.sim.errors import ConfigurationError

#: Default histogram bucket upper bounds (roughly log-spaced; values above
#: the last edge land in the overflow bucket).
DEFAULT_BUCKETS: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with a running count and sum.

    ``buckets`` are upper bounds of the value ranges, in increasing order;
    an observation greater than the last bound is counted in the overflow
    bucket.  The summary is fully determined by the observations, so it is
    safe to embed in canonical result documents.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name!r} needs >= 1 bucket")
        if any(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram buckets must strictly increase, got {bounds}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # + overflow
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # First bound >= value; past the last bound is the overflow slot.
        self.counts[bisect_left(self.buckets, value)] += 1

    def summary(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class Metrics:
    """A named registry of counters, gauges, histograms and phase timers.

    Instruments get-or-create by name, so call sites stay one-liners::

        sim.metrics.inc("net.sent")
        sim.metrics.observe("net.delivery_delay", delay)

    :meth:`snapshot` renders everything as a plain, JSON-able, key-sorted
    dict.  Wall-clock phase timers (:meth:`timer`) are kept in a separate
    ``timings`` section that the snapshot omits by default.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timings: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Instrument accessors
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    # ------------------------------------------------------------------
    # One-line write paths
    # ------------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` (created on first use)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {name!r} cannot decrease (amount={amount})"
            )
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        instrument.value += amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (created on first use)."""
        self.gauge(name).set(value)

    def observe(
        self, name: str, value: float, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        """Observe ``value`` in histogram ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        # Histogram.observe, inline: one call per observation, not two.
        instrument.count += 1
        instrument.sum += value
        instrument.counts[bisect_left(instrument.buckets, value)] += 1

    @contextmanager
    def timer(self, phase: str) -> Iterator[None]:
        """Accumulate wall time of the ``with`` body under ``timings``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._timings[phase] = (
                self._timings.get(phase, 0.0) + time.perf_counter() - start
            )

    def add_timing(self, phase: str, seconds: float) -> None:
        """Accumulate an externally measured wall time under ``timings``."""
        self._timings[phase] = self._timings.get(phase, 0.0) + seconds

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def value(self, name: str) -> float:
        """Current value of a counter or gauge (0 if never written)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return 0

    def timings(self) -> dict[str, float]:
        """Accumulated wall time per phase, in seconds."""
        return dict(self._timings)

    def snapshot(self, include_timing: bool = False) -> dict[str, Any]:
        """Everything measured, as a plain key-sorted JSON-able dict.

        The ``timings`` section (non-deterministic wall clock) only appears
        when ``include_timing`` is true; everything else is a pure function
        of the simulation and therefore deterministic for a fixed seed.
        The output must stay JSON-native — str keys; ints, floats, lists
        and dicts only — because trial records embed it as is
        (:meth:`repro.engine.results.TrialResult.to_record` never walks it).
        """
        snapshot: dict[str, Any] = {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }
        if include_timing:
            snapshot["timings"] = {
                name: seconds for name, seconds in sorted(self._timings.items())
            }
        return snapshot


def strip_timings(snapshot: dict[str, Any]) -> dict[str, Any]:
    """A copy of ``snapshot`` without its non-deterministic ``timings``."""
    return {key: value for key, value in snapshot.items() if key != "timings"}
