"""Synthetic session traces.

The paper motivates dynamic systems with deployed peer-to-peer networks but
reports no traces (it is a position paper).  As the documented substitution,
this module generates synthetic session traces with the empirically observed
statistics — Poisson arrivals with optional diurnal modulation, and
heavy-tailed (Pareto) session lengths — and a churn model that replays any
trace.  Protocols only ever observe join/leave events, so replaying a
synthetic trace exercises exactly the code paths a measured trace would.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.churn.lifetimes import LifetimeModel, ParetoLifetime
from repro.churn.models import ChurnModel, ProcessFactory
from repro.core.arrival import ArrivalClass, InfiniteArrivalFinite
from repro.sim.errors import ConfigurationError
from repro.sim.events import PRIORITY_MEMBERSHIP
from repro.topology.attachment import AttachmentRule


@dataclass(frozen=True)
class Session:
    """One entity's visit: arrives at ``arrival``, stays ``duration``."""

    arrival: float
    duration: float

    def __post_init__(self) -> None:
        if self.arrival < 0 or self.duration <= 0:
            raise ValueError(f"invalid session ({self.arrival}, {self.duration})")

    @property
    def departure(self) -> float:
        return self.arrival + self.duration


def synthetic_sessions(
    rng: random.Random,
    horizon: float,
    arrival_rate: float,
    lifetimes: LifetimeModel | None = None,
    diurnal_amplitude: float = 0.0,
    diurnal_period: float = 100.0,
) -> list[Session]:
    """Generate a session trace over ``[0, horizon]``.

    Arrivals form a (possibly modulated) Poisson process.  With
    ``diurnal_amplitude`` in ``(0, 1]`` the instantaneous rate oscillates as
    ``rate * (1 + A sin(2πt/period))`` via thinning, reproducing day/night
    population swings.

    Args:
        rng: random stream.
        horizon: generate arrivals in ``[0, horizon]``.
        arrival_rate: base arrivals per time unit.
        lifetimes: session-length model (default Pareto(1.5), heavy tail).
        diurnal_amplitude: modulation depth ``A`` (0 disables).
        diurnal_period: modulation period.
    """
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")
    if arrival_rate <= 0:
        raise ConfigurationError(f"arrival rate must be > 0, got {arrival_rate}")
    if not 0 <= diurnal_amplitude <= 1:
        raise ConfigurationError(
            f"diurnal amplitude must be in [0, 1], got {diurnal_amplitude}"
        )
    lifetimes = lifetimes or ParetoLifetime(alpha=1.5, xm=1.0)
    peak_rate = arrival_rate * (1 + diurnal_amplitude)
    sessions = []
    t = 0.0
    while True:
        t += rng.expovariate(peak_rate)
        if t > horizon:
            break
        if diurnal_amplitude > 0:
            instantaneous = arrival_rate * (
                1 + diurnal_amplitude * math.sin(2 * math.pi * t / diurnal_period)
            )
            if rng.random() >= instantaneous / peak_rate:
                continue  # thinned out
        sessions.append(Session(arrival=t, duration=lifetimes.sample(rng)))
    return sessions


def trace_statistics(sessions: list[Session]) -> dict[str, float]:
    """Summary statistics of a trace (used in tests and reports)."""
    if not sessions:
        return {"count": 0.0, "mean_duration": 0.0, "median_duration": 0.0, "max_concurrency": 0.0}
    durations = sorted(s.duration for s in sessions)
    mid = len(durations) // 2
    median = (
        durations[mid]
        if len(durations) % 2 == 1
        else (durations[mid - 1] + durations[mid]) / 2
    )
    deltas = []
    for s in sessions:
        deltas.append((s.arrival, 1))
        deltas.append((s.departure, -1))
    deltas.sort()
    peak = count = 0
    for _, delta in deltas:
        count += delta
        peak = max(peak, count)
    return {
        "count": float(len(sessions)),
        "mean_duration": sum(durations) / len(durations),
        "median_duration": median,
        "max_concurrency": float(peak),
    }


def save_sessions(sessions: list[Session], path: "str | Path") -> int:
    """Write a session trace as JSON Lines; returns the session count."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for session in sessions:
            handle.write(json.dumps(
                {"arrival": session.arrival, "duration": session.duration}
            ) + "\n")
    return len(sessions)


def load_sessions(path: "str | Path") -> list[Session]:
    """Read a session trace written by :func:`save_sessions`."""
    sessions = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            sessions.append(
                Session(arrival=record["arrival"], duration=record["duration"])
            )
    return sessions


class TraceReplayChurn(ChurnModel):
    """Replays a session trace: one join per session, one leave per end."""

    def __init__(
        self,
        factory: ProcessFactory,
        sessions: list[Session],
        attachment: AttachmentRule | None = None,
    ) -> None:
        super().__init__(factory, attachment)
        self.sessions = sorted(sessions, key=lambda s: s.arrival)

    def _start(self) -> None:
        for session in self.sessions:
            self.sim.at(
                session.arrival,
                partial(self._step, lifetime=session.duration),
                priority=PRIORITY_MEMBERSHIP,
                label="churn:trace-join",
            )

    def arrival_class(self) -> ArrivalClass:
        return InfiniteArrivalFinite()

    def __repr__(self) -> str:
        return f"TraceReplayChurn(sessions={len(self.sessions)})"
