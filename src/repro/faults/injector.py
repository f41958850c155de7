"""Compiling fault plans into simulator events, and interposing on sends.

:class:`FaultInjector` is the runtime half of the fault plane: it takes a
:class:`~repro.faults.spec.FaultPlan` and

* compiles every spec into scheduled simulator events (window open/close,
  flaps, partitions, crashes) at install time — the same shape churn
  models use — and
* registers itself as the **single interposition point** on
  :meth:`repro.sim.network.Network.send`: while a message-level window is
  open, each send is offered to :meth:`send_effect`, which may drop it,
  delay it or duplicate it (with every window closed, a send costs the
  injector no call).

Every activation is counted under ``faults.injected`` (and
``faults.injected.<kind>``) in the metrics registry and recorded as a
``fault_injected`` trace event, so injections appear inline in result
documents, causal analysis and Perfetto timelines.  All randomness draws
from the simulator's dedicated ``"faults"`` stream: the transport stream is
untouched, so messages outside fault windows sample exactly the delays they
would without a plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.faults.spec import FaultPlan, FaultSpec
from repro.sim import trace as tr
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.events import PRIORITY_MEMBERSHIP
from repro.sim.messages import Message
from repro.topology.attachment import AttachmentRule, UniformAttachment
from repro.topology.partition import PartitionFault, random_bisection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.node import Process
    from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class SendEffect:
    """What the active fault windows decided about one message.

    Attributes:
        drop: discard the message instead of delivering it.
        reason: drop reason recorded in the trace (``fault:<kind>``).
        extra_delay: additional transmission delay, added to the sampled
            one.
        copies: extra deliveries to schedule (duplication).
    """

    drop: bool = False
    reason: str | None = None
    extra_delay: float = 0.0
    copies: int = 0


class FaultInjector:
    """Executes a :class:`FaultPlan` against one simulator.

    Args:
        plan: the declarative fault schedule.
        protected: pids exempt from crash victim selection (the trial
            runners pass the querier / reader / origin when the matching
            ``protect_*`` config flag is set, mirroring churn immortality).
    """

    def __init__(
        self, plan: FaultPlan, protected: Iterable[int] = ()
    ) -> None:
        if not isinstance(plan, FaultPlan):
            raise ConfigurationError(
                f"plan must be a FaultPlan, got {type(plan).__name__}"
            )
        self.plan = plan
        self.protected = frozenset(protected)
        self._sim: "Simulator | None" = None
        self._factory: Callable[[], "Process"] | None = None
        self._attachment: AttachmentRule = UniformAttachment(2)
        #: Open message-level windows as (spec index, spec), in spec order;
        #: ``Network.send`` offers a message to :meth:`send_effect` only
        #: while this is non-empty.
        self.windows: list[tuple[int, FaultSpec]] = []
        self.partitions: list[PartitionFault] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def sim(self) -> "Simulator":
        if self._sim is None:
            raise SimulationError("fault injector is not installed")
        return self._sim

    @property
    def rng(self) -> random.Random:
        """The dedicated fault randomness stream."""
        return self.sim.rng_for("faults")

    def install(
        self,
        sim: "Simulator",
        factory: Callable[[], "Process"] | None = None,
        attachment: AttachmentRule | None = None,
    ) -> "FaultInjector":
        """Compile the plan into events on ``sim`` and hook the network.

        ``factory`` builds the replacement process for ``crash_rejoin``
        specs (required iff the plan contains one); ``attachment`` is how
        the replacement picks its first neighbors.
        """
        if self._sim is not None:
            raise SimulationError("fault injector is already installed")
        if sim.network.fault_injector is not None:
            raise SimulationError(
                "the simulator already has a fault injector installed"
            )
        needs_factory = any(
            spec.kind == "crash_rejoin" for spec in self.plan.specs
        )
        if needs_factory and factory is None:
            raise ConfigurationError(
                "this plan contains crash_rejoin faults; install() needs a "
                "process factory to build the replacement entities"
            )
        self._sim = sim
        self._factory = factory
        if attachment is not None:
            self._attachment = attachment
        for index, spec in enumerate(self.plan.specs):
            self._compile(index, spec)
        sim.network.fault_injector = self
        return self

    # ------------------------------------------------------------------
    # Compilation: one spec -> scheduled events
    # ------------------------------------------------------------------

    def _compile(self, index: int, spec: FaultSpec) -> None:
        sim = self.sim
        if spec.kind in ("drop_burst", "duplicate", "delay_spike"):
            sim.at(spec.start, lambda: self._open_window(index, spec),
                   priority=PRIORITY_MEMBERSHIP,
                   label=f"fault:{spec.kind}:open")
            sim.at(spec.start + spec.duration,
                   lambda: self._close_window(index, spec),
                   priority=PRIORITY_MEMBERSHIP,
                   label=f"fault:{spec.kind}:close")
        elif spec.kind == "link_flap":
            for flap in range(spec.count):
                at = spec.start + flap * spec.period
                sim.at(at, lambda f=flap: self._flap(index, spec, f),
                       priority=PRIORITY_MEMBERSHIP, label="fault:link_flap")
        elif spec.kind == "partition":
            fault = PartitionFault(
                at=spec.start,
                heal_at=(spec.start + spec.duration) if spec.duration else None,
                groups=random_bisection(spec.fraction),
            )
            fault.install(sim)
            self.partitions.append(fault)
            sim.at(spec.start, lambda: self._mark(index, spec),
                   priority=PRIORITY_MEMBERSHIP, label="fault:partition")
        elif spec.kind in ("crash", "crash_rejoin"):
            sim.at(spec.start, lambda: self._crash(index, spec),
                   priority=PRIORITY_MEMBERSHIP, label=f"fault:{spec.kind}")
        else:  # pragma: no cover - FaultSpec validation forbids this
            raise ConfigurationError(f"unknown fault kind {spec.kind!r}")

    def _record_injection(self, index: int, spec: FaultSpec, **data: object) -> None:
        sim = self.sim
        sim.metrics.inc("faults.injected")
        sim.metrics.inc(f"faults.injected.{spec.kind}")
        sim.trace.record(
            sim.now, tr.FAULT_INJECTED, fault=spec.kind, spec=index, **data
        )

    # --- message-level windows ---------------------------------------

    def _open_window(self, index: int, spec: FaultSpec) -> None:
        self.windows.append((index, spec))
        self.windows.sort(key=lambda pair: pair[0])
        self._record_injection(
            index, spec, until=spec.start + spec.duration,
            probability=spec.probability,
        )

    def _close_window(self, index: int, spec: FaultSpec) -> None:
        self.windows = [pair for pair in self.windows if pair[0] != index]
        self.sim.trace.record(
            self.sim.now, tr.FAULT_CLEARED, fault=spec.kind, spec=index
        )

    # --- link flaps ---------------------------------------------------

    def _flap(self, index: int, spec: FaultSpec, flap: int) -> None:
        network = self.sim.network
        if spec.links is not None:
            candidates = [
                pair for pair in spec.links if pair in network.edges()
            ]
        else:
            candidates = sorted(network.edges())
        severed: list[tuple[int, int]] = []
        if candidates:
            goal = max(1, round(len(candidates) * spec.probability))
            severed = sorted(self.rng.sample(candidates, min(goal, len(candidates))))
        self._record_injection(
            index, spec, flap=flap, severed=len(severed),
        )
        for a, b in severed:
            network.remove_edge(a, b)
        if severed:
            self.sim.metrics.inc("faults.links_severed", len(severed))
            self.sim.schedule(
                spec.duration, lambda: self._restore(index, spec, severed),
                priority=PRIORITY_MEMBERSHIP, label="fault:link_flap:restore",
            )

    def _restore(
        self, index: int, spec: FaultSpec, severed: list[tuple[int, int]]
    ) -> None:
        network = self.sim.network
        restored = 0
        for a, b in severed:
            if network.is_present(a) and network.is_present(b):
                network.add_edge(a, b)
                restored += 1
        self.sim.trace.record(
            self.sim.now, tr.FAULT_CLEARED, fault=spec.kind, spec=index,
            restored=restored,
        )

    # --- partitions ---------------------------------------------------

    def _mark(self, index: int, spec: FaultSpec) -> None:
        self._record_injection(
            index, spec, fraction=spec.fraction,
            heal_at=(spec.start + spec.duration) if spec.duration else None,
        )

    # --- crashes ------------------------------------------------------

    def _crash(self, index: int, spec: FaultSpec) -> None:
        sim = self.sim
        network = sim.network
        candidates = [
            pid for pid in network.present_sorted() if pid not in self.protected
        ]
        victims: list[int] = []
        if candidates:
            victims = sorted(
                self.rng.sample(candidates, min(spec.count, len(candidates)))
            )
        self._record_injection(
            index, spec, victims=tuple(victims), silent=True,
        )
        # Crash-without-notify: suppress the perfect-failure-detector
        # courtesy callback no matter how the network is configured.
        saved = network.notify_leaves
        network.notify_leaves = False
        try:
            for pid in victims:
                sim.kill(pid)
        finally:
            network.notify_leaves = saved
        if victims:
            sim.metrics.inc("faults.crashes", len(victims))
        if spec.kind == "crash_rejoin":
            for _ in victims:
                sim.schedule(
                    spec.rejoin_after, self._rejoin,
                    priority=PRIORITY_MEMBERSHIP, label="fault:rejoin",
                )

    def _rejoin(self) -> None:
        sim = self.sim
        assert self._factory is not None  # validated at install time
        proc = self._factory()
        neighbors = self._attachment.choose(sim.network, self.rng)
        sim.spawn(proc, neighbors)
        sim.metrics.inc("faults.rejoins")

    # ------------------------------------------------------------------
    # The send interposition point (called by Network.send)
    # ------------------------------------------------------------------

    def send_effect(self, message: Message) -> SendEffect | None:
        """Decide what the open windows do to one message.

        Returns ``None`` when the message comes through untouched (with no
        window open ``Network.send`` does not ask).  Specs are consulted
        in plan order; a drop short-circuits the rest.
        """
        link = (
            min(message.sender, message.receiver),
            max(message.sender, message.receiver),
        )
        rng = self.rng
        extra_delay = 0.0
        copies = 0
        for index, spec in self.windows:
            if spec.links is not None and link not in spec.links:
                continue
            if spec.kind == "drop_burst":
                if rng.random() < spec.probability:
                    return SendEffect(drop=True, reason=f"fault:{spec.kind}")
            elif spec.kind == "duplicate":
                if rng.random() < spec.probability:
                    copies += spec.copies
            elif spec.kind == "delay_spike":
                if spec.probability >= 1.0 or rng.random() < spec.probability:
                    extra_delay += spec.magnitude
        if extra_delay == 0.0 and copies == 0:
            return None
        return SendEffect(extra_delay=extra_delay, copies=copies)


def install_plan(
    plan: "FaultPlan | str | None",
    sim: "Simulator",
    factory: Callable[[], "Process"] | None = None,
    protected: Iterable[int] = (),
    attachment: AttachmentRule | None = None,
) -> FaultInjector | None:
    """Resolve ``plan`` and install an injector on ``sim`` (or do nothing).

    The one-call convenience the trial runners use: ``None`` and empty
    plans install nothing and return ``None``, preserving byte-identical
    no-plan behavior.
    """
    resolved = FaultPlan.resolve(plan)
    if resolved is None:
        return None
    injector = FaultInjector(resolved, protected=protected)
    return injector.install(sim, factory=factory, attachment=attachment)
