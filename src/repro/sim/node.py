"""The process (node) runtime.

A :class:`Process` is one entity of the dynamic system.  Protocol authors
subclass it and implement the ``on_*`` hooks; the base class provides the
actions a real networked process would have — send to a neighbor, set a
timer, read the local clock — and *only* those.  In particular a process can
see its current neighbor set but has no built-in way to observe the global
membership, which is exactly the paper's locality constraint.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.sim.errors import ProtocolError
from repro.sim.events import Event
from repro.sim.messages import Message
from repro.sim.trace import TIMER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Simulator


class Process:
    """Base class for simulated processes.

    Attributes:
        pid: globally unique entity id, assigned at spawn time.
        value: the local input value aggregated by query protocols.
    """

    # The base class is slotted so 10⁵-entity populations do not pay a
    # per-process ``__dict__``.  Subclasses without ``__slots__`` still
    # get one for their own attributes, so protocol code is unaffected.
    __slots__ = ("pid", "value", "_sim", "_timers", "_timer_ids", "_alive",
                 "__weakref__")

    def __init__(self, value: Any = None) -> None:
        self.pid: int = -1
        self.value = value
        self._sim: "Simulator | None" = None
        self._timers: dict[int, Event] = {}
        self._timer_ids = 0
        self._alive = False

    # ------------------------------------------------------------------
    # Environment accessors
    # ------------------------------------------------------------------

    @property
    def sim(self) -> "Simulator":
        if self._sim is None:
            raise ProtocolError(f"process {self.pid} is not attached to a simulator")
        return self._sim

    @property
    def now(self) -> float:
        """Current simulation time (every process has a perfect local clock;
        the paper's model is about membership, not clock synchronisation)."""
        try:
            return self._sim._now  # type: ignore[union-attr]
        except AttributeError:
            raise ProtocolError(
                f"process {self.pid} is not attached to a simulator"
            ) from None

    @property
    def rng(self) -> random.Random:
        """Per-process deterministic random stream."""
        return self.sim.process_rng(self.pid)

    @property
    def alive(self) -> bool:
        """Whether this process is currently a member of the system."""
        return self._alive

    def neighbors(self) -> frozenset[int]:
        """The ids of the processes this one can currently talk to.

        This is the *only* membership information available to a process —
        the geography dimension of the model.
        """
        return self.sim.network.neighbors(self.pid)

    def degree(self) -> int:
        """How many neighbors this process currently has (O(1); no
        neighbor set is materialised)."""
        return self.sim.network.degree(self.pid)

    def random_neighbor(self) -> int | None:
        """A uniformly random current neighbor, or ``None`` if isolated.

        O(1) on complete graphs — at scale, use this instead of
        ``self.rng.choice(sorted(self.neighbors()))``, which materialises
        and sorts the whole population.  Draws from the per-process
        stream, so it is deterministic for a fixed seed.
        """
        sim = self._sim or self.sim
        pid = self.pid
        return sim.network.sample_neighbor(pid, sim.process_rng(pid))

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def send(self, receiver: int, kind: str, **payload: Any) -> None:
        """Send a message to a neighbor.

        Raises:
            TopologyError: if ``receiver`` is not currently a neighbor.
        """
        sim = self._sim or self.sim
        sim.network.send(Message(self.pid, receiver, kind, payload))

    def broadcast(self, kind: str, exclude: int | None = None, **payload: Any) -> int:
        """Send ``kind`` to every current neighbor; return how many were sent.

        ``exclude`` skips one neighbor (typically the process the triggering
        message came from).  Each message goes to the network the way
        :meth:`send` sends it, without a :meth:`send` frame per neighbor.
        """
        sim = self._sim or self.sim
        network = sim.network
        pid = self.pid
        sent = 0
        for neighbor in sorted(network.neighbors(pid)):
            if neighbor == exclude:
                continue
            network.send(Message(pid, neighbor, kind, dict(payload)))
            sent += 1
        return sent

    def set_timer(self, delay: float, name: str, payload: Any = None) -> int:
        """Schedule :meth:`on_timer` after ``delay``; return a cancel handle."""
        if delay < 0:
            raise ProtocolError(f"timer delay must be >= 0, got {delay}")
        sim = self._sim or self.sim
        self._timer_ids = timer_id = self._timer_ids + 1
        self._timers[timer_id] = sim.queue.push(
            sim._now + delay,
            partial(self._fire_timer, timer_id, name, payload),
            label=f"timer:{self.pid}:{name}",
        )
        return timer_id

    def cancel_timer(self, timer_id: int) -> None:
        """Cancel a pending timer; cancelling a fired timer is a no-op."""
        event = self._timers.pop(timer_id, None)
        if event is not None:
            event.cancel()
            self.sim.queue.note_cancelled()

    def _fire_timer(self, timer_id: int, name: str, payload: Any) -> None:
        self._timers.pop(timer_id, None)
        if self._alive:
            sim = self._sim or self.sim
            trace = sim.trace
            if TIMER in trace.count_only:
                trace.tallies[TIMER] += 1
            else:
                trace.record(sim._now, TIMER, entity=self.pid, name=name)
            self.on_timer(name, payload)

    def record(self, kind: str, **data: Any) -> None:
        """Write a protocol-level event to the simulation trace."""
        self.sim.trace.record(self.now, kind, entity=self.pid, **data)

    # ------------------------------------------------------------------
    # Lifecycle hooks (override in subclasses)
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the process joins the system."""

    def on_stop(self) -> None:
        """Called when the process leaves (crash or departure)."""

    def on_message(self, message: Message) -> None:
        """Called when a message is delivered to this process."""

    def on_timer(self, name: str, payload: Any) -> None:
        """Called when a timer set with :meth:`set_timer` fires."""

    def on_neighbor_join(self, pid: int) -> None:
        """Called when ``pid`` becomes a neighbor of this process."""

    def on_neighbor_leave(self, pid: int) -> None:
        """Called when neighbor ``pid`` leaves the system."""

    def on_delivery_abandoned(self, message: Message) -> None:
        """Called when the resilience layer gives up on a message this
        process sent (see :mod:`repro.resilience.transport`).  ``message``
        is the original, unwrapped message.  Only ever invoked when a
        reliable transport is installed; protocols that can degrade
        gracefully override this to stop waiting on the receiver."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(pid={self.pid}, value={self.value!r})"
