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
from typing import TYPE_CHECKING, Any

from repro.sim.errors import MembershipError, ProtocolError
from repro.sim.events import Event
from repro.sim.messages import Message
from repro.sim.trace import TIMER

# ``Message(sender, receiver, kind, payload)`` and ``PendingTimer(...)``
# without a ``__new__`` frame: the per-event send and timer paths build
# the tuple directly.
_new_message = _new_timer = tuple.__new__

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
    __slots__ = ("pid", "value", "_sim", "_alive", "__weakref__")

    # Whether the class overrides ``on_start``/``on_stop``/
    # ``on_neighbor_join``/``on_neighbor_leave``/``on_message``: the
    # network's membership and delivery paths call a hook only where one
    # is defined, not the no-ops below.
    _starts = _stops = _hears_joins = _hears_leaves = _hears_messages = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._starts = cls.on_start is not Process.on_start
        cls._stops = cls.on_stop is not Process.on_stop
        cls._hears_joins = cls.on_neighbor_join is not Process.on_neighbor_join
        cls._hears_leaves = cls.on_neighbor_leave is not Process.on_neighbor_leave
        cls._hears_messages = cls.on_message is not Process.on_message

    def __init__(self, value: Any = None) -> None:
        self.pid: int = -1
        self.value = value
        self._sim: "Simulator | None" = None
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
        return (self._sim or self.sim).network.neighbors(self.pid)

    def degree(self) -> int:
        """How many neighbors this process currently has (O(1); no
        neighbor set is materialised)."""
        return (self._sim or self.sim).network.degree(self.pid)

    def random_neighbor(self) -> int | None:
        """A uniformly random current neighbor, or ``None`` if isolated.

        O(1) on complete graphs — at scale, use this instead of
        ``self.rng.choice(sorted(self.neighbors()))``, which materialises
        and sorts the whole population.  Draws from the per-process
        stream, so it is deterministic for a fixed seed.
        """
        sim = self._sim or self.sim
        pid = self.pid
        rng = sim._process_streams.get(pid)
        if rng is None:
            rng = sim.process_rng(pid)
        network = sim.network
        if not network.complete:
            return network.sample_neighbor(pid, rng)
        # ``network.sample_present(rng, exclude=pid)``, inline: the same
        # draw over the same dense slots, without two more frames.
        if pid not in network._slot_of:
            raise MembershipError(f"process {pid} is not present")
        dense = network._dense
        last = len(dense) - 1
        if last <= 0:
            return None
        # ``rng.randrange(last)``, draw for draw, without its two frames.
        getrandbits = rng.getrandbits
        bits = last.bit_length()
        index = getrandbits(bits)
        while index >= last:
            index = getrandbits(bits)
        slot_pid = network._slot_pid
        other = slot_pid[dense[index]]
        return slot_pid[dense[last]] if other == pid else other

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def send(self, receiver: int, kind: str, **payload: Any) -> None:
        """Send a message to a neighbor.

        Raises:
            TopologyError: if ``receiver`` is not currently a neighbor.
        """
        sim = self._sim or self.sim
        sim.network.send(
            _new_message(Message, (self.pid, receiver, kind, payload))
        )

    def broadcast(self, kind: str, exclude: int | None = None, **payload: Any) -> int:
        """Send ``kind`` to every current neighbor; return how many were sent.

        ``exclude`` skips one neighbor (typically the process the triggering
        message came from).  The neighbors, in increasing order, are one
        fan-out ``Network.send``: each gets its own copy of ``payload``,
        exactly as a :meth:`send` to each would send it.
        """
        sim = self._sim or self.sim
        network = sim.network
        pid = self.pid
        slot = network._slot_of.get(pid)
        # The adjacency set itself in place of a ``neighbors()`` frozenset
        # copy; an absent process or a complete graph asks ``neighbors``.
        adjacent = (
            network.neighbors(pid) if slot is None or network.complete
            else network._adj[slot]
        )
        targets = sorted(adjacent)
        if exclude in adjacent:
            targets.remove(exclude)
        network.send(_new_message(Message, (pid, None, kind, payload)), targets)
        return len(targets)

    def set_timer(self, delay: float, name: str, payload: Any = None) -> Event:
        """Schedule :meth:`on_timer` after ``delay``; return its queued
        event, the handle :meth:`cancel_timer` takes."""
        if delay < 0:
            raise ProtocolError(f"timer delay must be >= 0, got {delay}")
        sim = self._sim or self.sim
        timer = _new_timer(PendingTimer, (self, name, payload))
        return sim.queue.push(sim._now + delay, timer, label=TIMER)

    def cancel_timer(self, timer: Event) -> None:
        """Cancel a pending timer (a no-op once it fired or was cancelled);
        a pending handle that is not one of this process's timers raises
        :class:`ProtocolError`."""
        action = timer[3]
        if action is None:
            return
        # The label says that the event is a timer: an instrumented queue
        # (``perf/``'s probes) may wrap the action in a closure.
        if timer[4] != TIMER or type(action) is PendingTimer and action[0] is not self:
            raise ProtocolError(f"process {self.pid} cancelled a handle that "
                                f"is not one of its timers ({timer[4]!r})")
        (self._sim or self.sim).cancel(timer)

    def record(self, kind: str, **data: Any) -> None:
        """Write a protocol-level event to the simulation trace."""
        sim = self._sim or self.sim
        sim.trace.record(sim._now, kind, entity=self.pid, **data)

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


class PendingTimer(tuple):
    """A timer set and not yet fired: the action its event runs.

    A ``(process, name, payload)`` tuple built in one ``tuple.__new__``,
    like :class:`~repro.sim.messages.Message`: one object per pending
    timer, where a ``partial`` of a bound method costs three; its queued
    event is the timer's only handle.  Calling it fires the timer: if the
    process is alive, it traces the firing and runs :meth:`Process.on_timer`.
    """

    __slots__ = ()

    def __call__(self) -> None:
        process, name, payload = self
        if process._alive:
            sim = process._sim or process.sim
            trace = sim.trace
            if TIMER in trace.count_only:
                trace.tallies[TIMER] += 1
            else:
                trace.record(sim._now, TIMER, entity=process.pid, name=name)
            process.on_timer(name, payload)
