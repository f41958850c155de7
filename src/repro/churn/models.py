"""Churn models: generative processes over joins and leaves.

A churn model, installed on a simulator, schedules the membership events
that make the system *dynamic*.  Each model declares which arrival class
(:mod:`repro.core.arrival`) its runs belong to, tying the generative
substrate to the paper's taxonomy.
"""

from __future__ import annotations

import abc
import random
from bisect import bisect_left
from typing import Callable

from repro.churn.lifetimes import LifetimeModel
from repro.core.arrival import (
    ArrivalClass,
    FiniteArrival,
    InfiniteArrivalBounded,
    InfiniteArrivalFinite,
    StaticArrival,
)
from repro.sim.errors import ConfigurationError, SchedulingError, SimulationError
from repro.sim.events import PRIORITY_MEMBERSHIP
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.topology.attachment import AttachmentRule, UniformAttachment

#: Creates a fresh process (with its local value) for each arriving entity.
ProcessFactory = Callable[[], Process]


class ChurnModel(abc.ABC):
    """Base class for generative churn processes.

    Args:
        factory: builds the process object for each arriving entity.
        attachment: how newcomers pick their first neighbors.
    """

    def __init__(
        self,
        factory: ProcessFactory,
        attachment: AttachmentRule | None = None,
    ) -> None:
        self.factory = factory
        self.attachment = attachment or UniformAttachment(2)
        self._sim: Simulator | None = None
        self._rng: random.Random | None = None
        self._stop_at: float | None = None
        self.joins = 0
        self.leaves = 0
        #: Pids that random-victim selection must never remove (e.g. the
        #: querier, when an experiment studies completeness rather than
        #: querier mortality).
        self.immortal: set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def install(self, sim: Simulator, stop_at: float | None = None) -> None:
        """Attach to ``sim`` and begin generating membership events.

        ``stop_at`` freezes churn from that time on (useful to observe the
        quiescent phase of finite-arrival runs).
        """
        if self._sim is not None:
            raise SimulationError("churn model is already installed")
        self._sim = sim
        # Bound once for the per-event path below; streams are derived
        # from their name, so fetching it here draws nothing.
        self._rng = sim.rng_for("churn")
        self._stop_at = stop_at
        self._start()

    @property
    def sim(self) -> Simulator:
        if self._sim is None:
            raise SimulationError("churn model is not installed")
        return self._sim

    @property
    def rng(self) -> random.Random:
        return self.sim.rng_for("churn")

    def active_at(self, time: float) -> bool:
        """Whether churn is still running at ``time``."""
        return self._stop_at is None or time < self._stop_at

    @abc.abstractmethod
    def _start(self) -> None:
        """Schedule the model's first event(s)."""

    @abc.abstractmethod
    def arrival_class(self) -> ArrivalClass:
        """The entity-dimension class this model's runs belong to."""

    # ------------------------------------------------------------------
    # Helpers for subclasses: the per-event join/leave path.  Flat on
    # purpose (see "Per-event budget" in docs/SCALING.md): ``self._sim``
    # and ``self._rng`` are read directly, not through the checked
    # properties, and nothing here copies or sorts the membership.
    # ------------------------------------------------------------------

    def _join_now(self, lifetime: float | None = None) -> Process:
        """Create, attach and (optionally) doom a new process."""
        sim = self._sim
        network = sim.network
        proc = self.factory()
        sim.spawn(proc, self.attachment.choose(network, self._rng))
        self.joins += 1
        sim.metrics.inc("churn.joins")
        if lifetime is not None:
            self._doom(proc.pid, lifetime)
        return proc

    def _depart(self, pid: int) -> None:
        """The one leave path: ``pid`` leaves and is counted, on the model
        (:attr:`leaves`) and in the ``churn.leaves`` metric alike."""
        sim = self._sim
        sim.network.remove_process(pid)
        self.leaves += 1
        sim.metrics.inc("churn.leaves")

    def _doom(self, pid: int, lifetime: float) -> None:
        """``pid`` leaves ``lifetime`` from now, unless it has left by then."""
        network = self._sim.network

        def _expire() -> None:
            if network.is_present(pid):
                self._depart(pid)

        self._schedule(lifetime, _expire, f"churn:lifetime-leave:{pid}")

    def _leave_random(self) -> int | None:
        """Remove a uniformly random present, non-immortal process.

        Draw for draw ``rng.choice(sorted(present() - immortal))`` — one
        ``randbelow`` over the number of candidates, none when there are
        no candidates — without building that list: the draw indexes the
        sorted membership and steps over the immortals' positions.
        """
        view = self._sim.network.present_sorted()
        size = len(view)
        # Where the immortals sit in the view (an absent one sits nowhere).
        skipped: list[int] = []
        for pid in self.immortal:
            position = bisect_left(view, pid)
            if position < size and view[position] == pid:
                skipped.append(position)
        if size == len(skipped):
            return None
        index = self._rng.randrange(size - len(skipped))
        skipped.sort()
        for position in skipped:
            if position > index:
                break
            index += 1
        victim = view[index]
        self._depart(victim)
        return victim

    def _replace_one(self) -> None:
        """A random member leaves and a fresh entity takes its place
        (nobody joins when nobody could leave)."""
        if self._leave_random() is not None:
            self._join_now()

    def _schedule(self, delay: float, action: Callable[[], None], label: str) -> None:
        # Straight onto the queue, with the check ``Simulator.schedule`` makes.
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay} in the past")
        sim = self._sim
        sim.queue.push(
            sim._now + delay, action, priority=PRIORITY_MEMBERSHIP, label=label
        )


class NoChurn(ChurnModel):
    """The static system: whatever population exists at install time stays."""

    def __init__(self, n: int | None = None) -> None:
        super().__init__(factory=Process, attachment=UniformAttachment(1))
        self._n = n

    def _start(self) -> None:
        if self._n is None:
            self._n = self.sim.network.population()

    def arrival_class(self) -> ArrivalClass:
        return StaticArrival(max(1, self._n or 1))

    def __repr__(self) -> str:
        return f"NoChurn(n={self._n})"


class ArrivalDepartureChurn(ChurnModel):
    """Poisson arrivals, independent session lifetimes.

    The general infinite-arrival model: entities arrive at rate
    ``arrival_rate`` and each stays for a lifetime drawn from ``lifetimes``.
    With no ``concurrency_cap`` the stationary population is
    ``arrival_rate * mean_lifetime`` (finite in each run, unbounded across
    runs — ``M_inf_finite``); with a cap, arrivals finding the system full
    are rejected and the model realises ``M_inf_bounded(cap)``.
    """

    def __init__(
        self,
        factory: ProcessFactory,
        arrival_rate: float,
        lifetimes: LifetimeModel,
        attachment: AttachmentRule | None = None,
        concurrency_cap: int | None = None,
        doom_initial: bool = False,
    ) -> None:
        super().__init__(factory, attachment)
        if arrival_rate <= 0:
            raise ConfigurationError(f"arrival rate must be > 0, got {arrival_rate}")
        if concurrency_cap is not None and concurrency_cap < 1:
            raise ConfigurationError(f"concurrency cap must be >= 1, got {concurrency_cap}")
        self.arrival_rate = arrival_rate
        self.lifetimes = lifetimes
        self.concurrency_cap = concurrency_cap
        #: If true, the population present at install time also receives
        #: session lifetimes (instead of staying forever): the whole system
        #: churns, not just the newcomers.
        self.doom_initial = doom_initial
        self.rejected = 0

    def _start(self) -> None:
        if self.doom_initial:
            immortal = self.immortal
            for pid in self._sim.network.present_sorted():
                if pid not in immortal:
                    self._doom(pid, self.lifetimes.sample(self._rng))
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        gap = self._rng.expovariate(self.arrival_rate)
        self._schedule(gap, self._arrive, "churn:arrival")

    def _arrive(self) -> None:
        sim = self._sim
        if not self.active_at(sim._now):
            return
        population = sim.network.population()
        if self.concurrency_cap is not None and population >= self.concurrency_cap:
            self.rejected += 1
        else:
            self._join_now(lifetime=self.lifetimes.sample(self._rng))
        self._schedule_next_arrival()

    def arrival_class(self) -> ArrivalClass:
        if self.concurrency_cap is not None:
            return InfiniteArrivalBounded(self.concurrency_cap)
        return InfiniteArrivalFinite()

    def __repr__(self) -> str:
        return (
            f"ArrivalDepartureChurn(rate={self.arrival_rate}, "
            f"lifetimes={self.lifetimes!r}, cap={self.concurrency_cap})"
        )


class ReplacementChurn(ChurnModel):
    """Constant-population churn: at rate ``rate`` a random member leaves
    and a fresh entity immediately joins in its place.

    This is the classical "churn rate c" model: the population size never
    changes but its composition turns over.  Runs belong to
    ``M_inf_bounded(n)`` where ``n`` is the installed population.
    """

    def __init__(
        self,
        factory: ProcessFactory,
        rate: float,
        attachment: AttachmentRule | None = None,
    ) -> None:
        super().__init__(factory, attachment)
        if rate < 0:
            raise ConfigurationError(f"churn rate must be >= 0, got {rate}")
        self.rate = rate
        self._n = 0

    def _start(self) -> None:
        self._n = self.sim.network.population()
        if self.rate > 0 and self._n > 0:
            self._schedule_next()

    def _schedule_next(self) -> None:
        gap = self._rng.expovariate(self.rate)
        self._schedule(gap, self._replace, "churn:replace")

    def _replace(self) -> None:
        if not self.active_at(self._sim._now):
            return
        self._replace_one()
        self._schedule_next()

    def arrival_class(self) -> ArrivalClass:
        return InfiniteArrivalBounded(max(1, self._n))

    def __repr__(self) -> str:
        return f"ReplacementChurn(rate={self.rate})"


class FiniteArrivalChurn(ChurnModel):
    """Finitely many arrivals, then quiescence (``M_finite``).

    ``total_arrivals`` entities join at Poisson rate ``arrival_rate``; each
    may optionally leave after a session lifetime.  Once the last scheduled
    departure fires the membership never changes again.
    """

    def __init__(
        self,
        factory: ProcessFactory,
        total_arrivals: int,
        arrival_rate: float,
        lifetimes: LifetimeModel | None = None,
        attachment: AttachmentRule | None = None,
    ) -> None:
        super().__init__(factory, attachment)
        if total_arrivals < 0:
            raise ConfigurationError(f"total arrivals must be >= 0, got {total_arrivals}")
        if arrival_rate <= 0:
            raise ConfigurationError(f"arrival rate must be > 0, got {arrival_rate}")
        self.total_arrivals = total_arrivals
        self.arrival_rate = arrival_rate
        self.lifetimes = lifetimes
        self._remaining = total_arrivals

    def _start(self) -> None:
        if self._remaining > 0:
            self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        gap = self._rng.expovariate(self.arrival_rate)
        self._schedule(gap, self._arrive, "churn:finite-arrival")

    def _arrive(self) -> None:
        if self._remaining <= 0 or not self.active_at(self._sim._now):
            return
        lifetime = self.lifetimes.sample(self._rng) if self.lifetimes else None
        self._join_now(lifetime=lifetime)
        self._remaining -= 1
        if self._remaining > 0:
            self._schedule_next_arrival()

    def arrival_class(self) -> ArrivalClass:
        return FiniteArrival()

    def __repr__(self) -> str:
        return (
            f"FiniteArrivalChurn(total={self.total_arrivals}, "
            f"rate={self.arrival_rate})"
        )


class PhasedChurn(ChurnModel):
    """Bursty churn: alternating storm and calm phases.

    During a storm, replacement churn runs at ``storm_rate``; during a calm
    phase nothing changes.  The phase structure models diurnal or flash-
    crowd population dynamics and is the regime in which *adaptive* query
    timing (defer until calm) beats fixed timing — the E15 experiment.
    """

    def __init__(
        self,
        factory: ProcessFactory,
        storm_rate: float,
        storm_length: float,
        calm_length: float,
        attachment: AttachmentRule | None = None,
        start_calm: bool = False,
    ) -> None:
        super().__init__(factory, attachment)
        if storm_rate <= 0:
            raise ConfigurationError(f"storm rate must be > 0, got {storm_rate}")
        if storm_length <= 0 or calm_length <= 0:
            raise ConfigurationError("phase lengths must be > 0")
        self.storm_rate = storm_rate
        self.storm_length = storm_length
        self.calm_length = calm_length
        self.start_calm = start_calm
        self._in_storm = not start_calm
        self._phase_ends = 0.0

    def in_storm(self) -> bool:
        """Whether a storm phase is currently active (omniscient view)."""
        return self._in_storm

    def _start(self) -> None:
        self._phase_ends = self.sim.now + (
            self.calm_length if self.start_calm else self.storm_length
        )
        self._schedule_phase_flip()
        if self._in_storm:
            self._schedule_next_replacement()

    def _schedule_phase_flip(self) -> None:
        delay = self._phase_ends - self.sim.now
        self._schedule(max(0.0, delay), self._flip_phase, "churn:phase-flip")

    def _flip_phase(self) -> None:
        if not self.active_at(self.sim.now):
            return
        self._in_storm = not self._in_storm
        length = self.storm_length if self._in_storm else self.calm_length
        self._phase_ends = self.sim.now + length
        self._schedule_phase_flip()
        if self._in_storm:
            self._schedule_next_replacement()

    def _schedule_next_replacement(self) -> None:
        gap = self._rng.expovariate(self.storm_rate)
        self._schedule(gap, self._replace, "churn:storm-replace")

    def _replace(self) -> None:
        if not self._in_storm or not self.active_at(self._sim._now):
            return
        self._replace_one()
        self._schedule_next_replacement()

    def arrival_class(self) -> ArrivalClass:
        return InfiniteArrivalBounded(
            max(1, self.sim.network.population()) if self._sim else 1
        )

    def __repr__(self) -> str:
        return (
            f"PhasedChurn(storm_rate={self.storm_rate}, "
            f"storm={self.storm_length}, calm={self.calm_length})"
        )


class ScheduledChurn(ChurnModel):
    """Replays an explicit schedule of membership actions.

    The schedule is a list of ``(time, action)`` pairs where ``action`` is
    ``"join"`` (a fresh entity joins) or ``("leave", pid)``.  Used by unit
    tests and by adversary constructions that need exact control.
    """

    def __init__(
        self,
        factory: ProcessFactory,
        schedule: list[tuple[float, object]],
        attachment: AttachmentRule | None = None,
        arrival: ArrivalClass | None = None,
    ) -> None:
        super().__init__(factory, attachment)
        self.schedule = sorted(schedule, key=lambda item: item[0])
        self._declared_arrival = arrival

    def _start(self) -> None:
        for time, action in self.schedule:
            if time < self.sim.now:
                raise ConfigurationError(
                    f"scheduled churn action at {time} is in the past"
                )
            if action == "join":
                self.sim.at(
                    time,
                    lambda: self._join_now(),
                    priority=PRIORITY_MEMBERSHIP,
                    label="churn:scheduled-join",
                )
            elif isinstance(action, tuple) and action[0] == "leave":
                pid = action[1]
                self.sim.at(
                    time,
                    lambda pid=pid: self._scheduled_leave(pid),
                    priority=PRIORITY_MEMBERSHIP,
                    label="churn:scheduled-leave",
                )
            else:
                raise ConfigurationError(f"unknown churn action {action!r}")

    def _scheduled_leave(self, pid: int) -> None:
        if self.sim.network.is_present(pid):
            self._depart(pid)

    def arrival_class(self) -> ArrivalClass:
        if self._declared_arrival is not None:
            return self._declared_arrival
        return FiniteArrival()

    def __repr__(self) -> str:
        return f"ScheduledChurn(actions={len(self.schedule)})"
