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
from functools import partial
from math import log
from typing import TYPE_CHECKING, Callable

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

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.metrics import Counter

#: Creates a fresh process (with its local value) for each arriving entity.
ProcessFactory = Callable[[], Process]


class ChurnModel(abc.ABC):
    """Base class for generative churn processes.

    Every membership change a model makes — a replacement, an arrival, a
    lifetime running out, a scheduled join or leave — is one call of
    :meth:`_step`, the model's single join/leave path.

    Args:
        factory: builds the process object for each arriving entity.
        attachment: how newcomers pick their first neighbors.
    """

    #: Whether each event of the model's own arrival process replaces a
    #: random member (it leaves, and a fresh entity joins in its place) or
    #: only admits a newcomer.
    _replaces = False

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
        #: Arrivals refused because the population was at the cap.
        self.rejected = 0
        #: Pids that random-victim selection must never remove (e.g. the
        #: querier, when an experiment studies completeness rather than
        #: querier mortality).
        self.immortal: set[int] = set()
        # The model's own arrival process, run by ``_step`` and set once by
        # each subclass from its parameters: the rate and queue label of
        # its next event (rate 0: there is none), whether it runs
        # (PhasedChurn pauses it between storms), the session lifetimes of
        # the entities it admits (``None``: they stay), the population at
        # which arrivals are refused and how many arrivals are left
        # (``None``: no cap, no end).
        self._rate = 0.0
        self._label = "churn"
        self._running = True
        self._lifetimes: LifetimeModel | None = None
        self._cap: int | None = None
        self._remaining: int | None = None
        # The ``churn.joins``/``churn.leaves`` counters, each bound where
        # the step first writes it (a snapshot shows only written ones).
        self._joined: Counter | None = None
        self._left: Counter | None = None

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
    # The membership step.  Flat on purpose (see "Per-event budget" in
    # docs/SCALING.md): one frame per replacement, ``self._sim`` and
    # ``self._rng`` read directly, stdlib draws made inline, counters
    # bumped through bound handles, nothing that copies or sorts the
    # membership.
    # ------------------------------------------------------------------

    def _step(self, leaver: int | None = None, lifetime: float | None = None) -> None:
        """One membership event.

        With a ``leaver``: that pid leaves if it is still present (its
        lifetime ran out, or a scheduled leave), and nothing else happens.

        Otherwise one event of the model's arrival process, unless churn
        has stopped (``stop_at``) or is paused.  A model that replaces has
        a uniformly random present, non-immortal member leave — draw for
        draw ``rng.choice(sorted(present() - immortal))``, and when nobody
        could leave nobody joins; a capped model at its cap refuses the
        arrival.  Then a fresh entity joins, doomed to ``lifetime`` (or to
        a draw from the model's lifetimes), and the next event is drawn
        at the model's rate — draw for draw ``rng.expovariate(rate)``.
        """
        sim = self._sim
        network = sim.network
        rng = self._rng
        # Only an event of the arrival process draws the next one.
        recurring = arriving = leaver is None
        if recurring:
            stop_at = self._stop_at
            if not self._running or (stop_at is not None and sim._now >= stop_at):
                return
            if self._replaces:
                # ``rng.randrange`` over the candidates, without building
                # them: the draw indexes the sorted membership and steps
                # over the immortals' positions (an absent one sits nowhere).
                view = network._sorted
                size = len(view)
                skipped: list[int] = []
                for pid in self.immortal:
                    position = bisect_left(view, pid)
                    if position < size and view[position] == pid:
                        skipped.append(position)
                candidates = size - len(skipped)
                if candidates:
                    getrandbits = rng.getrandbits
                    bits = candidates.bit_length()
                    index = getrandbits(bits)
                    while index >= candidates:
                        index = getrandbits(bits)
                    skipped.sort()
                    for position in skipped:
                        if position > index:
                            break
                        index += 1
                    leaver = view[index]
                else:
                    arriving = False
            elif self._cap is not None and len(network._slot_of) >= self._cap:
                self.rejected += 1
                arriving = False
        elif leaver not in network._slot_of:
            return
        if leaver is not None:
            network.remove_process(leaver)
            self.leaves += 1
            left = self._left
            if left is None:
                left = self._left = sim.metrics.counter("churn.leaves")
            left.value += 1
        if arriving:
            if lifetime is None and self._lifetimes is not None:
                lifetime = self._lifetimes.sample(rng)
            # ``Simulator.spawn``, inline.
            proc = self.factory()
            proc.pid = pid = next(sim._pid_counter)
            proc._sim = sim
            network.add_process(proc, self.attachment.choose(network, rng))
            self.joins += 1
            joined = self._joined
            if joined is None:
                joined = self._joined = sim.metrics.counter("churn.joins")
            joined.value += 1
            if lifetime is not None:
                self._schedule(
                    lifetime, partial(self._step, pid),
                    "churn:lifetime-leave",
                )
            if self._remaining is not None:
                self._remaining -= 1
                if not self._remaining:
                    return
        if recurring and self._rate:
            # ``_schedule_step``, inline.
            gap = -log(1.0 - rng.random()) / self._rate
            sim.queue.push(
                sim._now + gap, self._step,
                priority=PRIORITY_MEMBERSHIP, label=self._label,
            )

    def _schedule_step(self) -> None:
        """Queue the arrival process's next event, ``rng.expovariate(rate)``
        from now (its expression, draw for draw)."""
        gap = -log(1.0 - self._rng.random()) / self._rate
        self._schedule(gap, self._step, self._label)

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
        self._rate = arrival_rate
        self._label = "churn:arrival"
        self._lifetimes = lifetimes
        self._cap = concurrency_cap

    def _start(self) -> None:
        if self.doom_initial:
            immortal = self.immortal
            for pid in self._sim.network.present_sorted():
                if pid not in immortal:
                    self._schedule(
                        self.lifetimes.sample(self._rng), partial(self._step, pid),
                        "churn:lifetime-leave",
                    )
        self._schedule_step()

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

    _replaces = True

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
        self._rate = rate
        self._label = "churn:replace"

    def _start(self) -> None:
        self._n = self.sim.network.population()
        if self.rate > 0 and self._n > 0:
            self._schedule_step()

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
        self._rate = arrival_rate
        self._label = "churn:finite-arrival"
        self._lifetimes = lifetimes
        self._remaining = total_arrivals

    def _start(self) -> None:
        if self._remaining > 0:
            self._schedule_step()

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

    _replaces = True

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
        self._rate = storm_rate
        self._label = "churn:storm-replace"
        self._running = not start_calm
        self._phase_ends = 0.0

    def in_storm(self) -> bool:
        """Whether a storm phase is currently active (omniscient view)."""
        return self._running

    def _start(self) -> None:
        self._phase_ends = self.sim.now + (
            self.calm_length if self.start_calm else self.storm_length
        )
        self._schedule_phase_flip()
        if self._running:
            self._schedule_step()

    def _schedule_phase_flip(self) -> None:
        delay = self._phase_ends - self.sim.now
        self._schedule(max(0.0, delay), self._flip_phase, "churn:phase-flip")

    def _flip_phase(self) -> None:
        if not self.active_at(self.sim.now):
            return
        self._running = not self._running
        length = self.storm_length if self._running else self.calm_length
        self._phase_ends = self.sim.now + length
        self._schedule_phase_flip()
        if self._running:
            self._schedule_step()

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
                    self._step,
                    priority=PRIORITY_MEMBERSHIP,
                    label="churn:scheduled-join",
                )
            elif isinstance(action, tuple) and action[0] == "leave":
                self.sim.at(
                    time,
                    partial(self._step, action[1]),
                    priority=PRIORITY_MEMBERSHIP,
                    label="churn:scheduled-leave",
                )
            else:
                raise ConfigurationError(f"unknown churn action {action!r}")

    def arrival_class(self) -> ArrivalClass:
        if self._declared_arrival is not None:
            return self._declared_arrival
        return FiniteArrival()

    def __repr__(self) -> str:
        return f"ScheduledChurn(actions={len(self.schedule)})"
