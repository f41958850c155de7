"""The discrete-event simulator core.

:class:`Simulator` ties together the event queue, the virtual clock, the
network, seeded randomness and the trace log.  A simulation is fully
deterministic given its configuration and seed.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Set
from typing import Any, Callable, Iterable

from repro.obs.metrics import Metrics
from repro.obs.sinks import TraceSink
from repro.sim.errors import SchedulingError, SimulationError
from repro.sim.events import Event, EventQueue, PRIORITY_MEMBERSHIP, PRIORITY_NORMAL
from repro.sim.latency import DelayModel, LossModel
from repro.sim.network import Network
from repro.sim.node import Process
from repro.sim.rng import SeedSequence
from repro.sim.trace import TraceLog


def _raise_closed(*args: Any, **kwargs: Any) -> Any:
    """What ``run`` and ``spawn`` become on a closed simulator."""
    raise SimulationError("the simulator is closed")


class Simulator:
    """A deterministic discrete-event simulator for dynamic systems.

    Args:
        seed: root seed; all randomness derives from it.
        delay_model: message delay distribution (default: uniform [0.5, 1.5]).
        loss_model: message loss model (default: reliable).
        complete: if ``True`` the communication graph is complete
            (the ``G_complete`` knowledge class).
        fifo: if ``True`` channels are FIFO (no per-link reordering).
        notify_leaves: if ``False`` departures are silent (no perfect
            failure detection; protocols must use timeouts/heartbeats).
        notify_joins: if ``False`` arrivals are silent too — on complete
            graphs a join otherwise notifies everyone (O(n)), which
            dominates at 10⁴⁺ entities.
        trace_sink: where trace events go (default: all in memory); see
            :mod:`repro.obs.sinks` for the space-saving alternatives.
    """

    def __init__(
        self,
        seed: int = 0,
        delay_model: DelayModel | None = None,
        loss_model: LossModel | None = None,
        complete: bool = False,
        fifo: bool = False,
        notify_leaves: bool = True,
        notify_joins: bool = True,
        trace_sink: TraceSink | None = None,
    ) -> None:
        self.seeds = SeedSequence(seed)
        self.queue = EventQueue()
        self.trace = TraceLog(sink=trace_sink)
        self.metrics = Metrics()
        # Instrumented sinks (CheckingSink) count into this registry.
        self.trace.sink.attach_metrics(self.metrics)
        self.network = Network(
            self, delay_model=delay_model, loss_model=loss_model,
            complete=complete, fifo=fifo, notify_leaves=notify_leaves,
            notify_joins=notify_joins,
        )
        self._now = 0.0
        self._pid_counter = itertools.count()
        self._qid_counter = itertools.count()
        self._streams: dict[str, random.Random] = {}
        self._process_seeds = self.seeds.spawn("process")
        self._process_streams: dict[int, random.Random] = {}
        self._events_executed = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Clock & randomness
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far."""
        return self._events_executed

    def rng_for(self, name: str) -> random.Random:
        """Return the named component's random stream (created on demand)."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self.seeds.stream(name)
            self._streams[name] = stream
        return stream

    def process_rng(self, pid: int) -> random.Random:
        """Return the per-process random stream for ``pid``."""
        stream = self._process_streams.get(pid)
        if stream is None:
            stream = self._process_seeds.stream(pid)
            self._process_streams[pid] = stream
        return stream

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        action: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay} in the past")
        return self.queue.push(self._now + delay, action, priority=priority, label=label)

    def at(
        self,
        time: float,
        action: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SchedulingError(f"cannot schedule at {time} < now ({self._now})")
        return self.queue.push(time, action, priority=priority, label=label)

    def call_soon(self, action: Callable[[], Any], *, label: str = "") -> Event:
        """Schedule ``action`` at the current instant (after pending ties)."""
        return self.queue.push(self._now, action, label=label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event: flag it, drop its action and take it out
        of ``len(queue)``.  A no-op once it has fired, was cancelled or was
        cleared by :meth:`close`."""
        if event[3] is not None and not event[5]:
            event[5] = True
            event[3] = None
            self.queue.note_cancelled()

    # ------------------------------------------------------------------
    # Membership actions (used by churn models and experiment drivers)
    # ------------------------------------------------------------------

    def new_pid(self) -> int:
        """Allocate a fresh entity id.

        Ids are never reused: an entity that leaves and "comes back" is, per
        the paper's entity dimension, a *new* entity.
        """
        return next(self._pid_counter)

    def new_qid(self) -> int:
        """Allocate a fresh query id (unique within this simulation)."""
        return next(self._qid_counter)

    def spawn(
        self, proc: Process, neighbors: Iterable[int] = (), pid: int | None = None
    ) -> Process:
        """Add ``proc`` to the system, connected to ``neighbors``."""
        proc.pid = self.new_pid() if pid is None else pid
        proc._sim = self
        self.network.add_process(proc, neighbors)
        return proc

    def kill(self, pid: int) -> Process:
        """Remove process ``pid`` from the system immediately."""
        return self.network.remove_process(pid)

    def schedule_join(
        self,
        delay: float,
        make_process: Callable[[], Process],
        choose_neighbors: Callable[[Set[int]], Iterable[int]],
    ) -> Event:
        """Schedule a join: at ``now + delay`` create a process and attach it.

        ``choose_neighbors`` receives the set of processes present at join
        time and returns the attachment points.  The set is a read-only
        live *view* of the membership (O(1) to hand over, whatever the
        population): ``len``, ``in``, ``sorted`` and the set operators
        work and it cannot be mutated through, but it is valid only during
        the call — copy it (``frozenset(present)``) to keep it.
        """

        def _join() -> None:
            proc = make_process()
            self.spawn(proc, choose_neighbors(self.network._slot_of.keys()))

        return self.schedule(
            delay, _join, priority=PRIORITY_MEMBERSHIP, label="join"
        )

    def schedule_leave(self, delay: float, pid: int) -> Event:
        """Schedule process ``pid`` to leave at ``now + delay`` (no-op if it
        already left)."""

        def _leave() -> None:
            if self.network.is_present(pid):
                self.kill(pid)

        return self.schedule(
            delay, _leave, priority=PRIORITY_MEMBERSHIP, label="leave"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute one event; return ``False`` if the queue was empty."""
        try:
            event = self.queue.pop()
        except SchedulingError:
            # Empty, or only cancelled events left (``pop`` drops those
            # before it raises).
            return False
        time = event[0]
        if time < self._now:
            raise SchedulingError(
                f"time went backwards: {time} < {self._now} ({event[4]})"
            )
        self._now = time
        self._events_executed += 1
        # A fired handle holds nothing: cancelling it is a no-op.
        action = event[3]
        event[3] = None
        action()
        return True

    def run(self, until: float | None = None, max_events: int = 5_000_000) -> float:
        """Run until the queue drains, ``until`` passes, or ``max_events``.

        The ``max_events`` budget is **per call**: each invocation counts
        from zero, so a resumed run (calling ``run`` again with a later
        ``until``) gets a fresh budget.  The lifetime total across all
        calls is exposed separately as :attr:`events_executed`.

        Events scheduled exactly at ``until`` are executed.  Returns the
        simulation time when the run stopped.

        Raises:
            SchedulingError: if ``until`` is NaN or earlier than
                :attr:`now` (the clock never moves backwards), or if
                ``max_events`` events ran and another one is due.
        """
        if until is None:
            limit = math.inf
        elif until >= self._now:
            limit = until
        else:  # earlier than now, or NaN
            raise SchedulingError(
                f"cannot run until {until}: the clock is already at {self._now}"
            )
        queue = self.queue
        step = self.step
        executed = 0
        while True:
            # Looked up per iteration: the queue rebinds it on promotion.
            next_time = queue.peek_time()
            if next_time is None or next_time > limit:
                break
            if executed >= max_events:
                raise SchedulingError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
            step()
            executed += 1
        if until is not None:
            self._now = until
        return self._now

    def close(self) -> None:
        """Cut the simulation's reference cycles, so that reference
        counting frees it (see "Memory: a trial frees itself" in
        ``docs/SCALING.md``): drop every pending event's action, detach
        each present process from the simulator, empty the network and
        detach it from the simulator, resilience layer and fault injector.

        The clock, trace and metrics stay readable.  Idempotent; afterwards
        :meth:`run` and :meth:`spawn` raise
        :class:`~repro.sim.errors.SimulationError`.
        """
        if self._closed:
            return
        self._closed = True
        # Instance attributes over the methods, so that neither pays a check.
        self.run = self.spawn = _raise_closed  # type: ignore[method-assign]
        self.queue.clear()
        network = self.network
        for proc in network._procs:
            if proc is not None:
                proc._sim = None
        for slots in (network._slot_of, network._procs, network._adj,
                      network._slot_pid, network._free, network._dense,
                      network._dense_pos, network._sorted):
            slots.clear()
        network._sim = network.resilience = network.fault_injector = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics_snapshot(self, include_timing: bool = False) -> dict[str, Any]:
        """Final metrics snapshot for this simulation.

        Stamps the end-of-run gauges (clock, executed events, population)
        and returns :meth:`repro.obs.metrics.Metrics.snapshot` — the block
        the experiment engine embeds per trial in schema-v2 result
        documents.  Everything except the optional ``timings`` section is
        deterministic for a fixed seed.
        """
        self.metrics.set_gauge("sim.time", self._now)
        self.metrics.set_gauge("sim.events_executed", self._events_executed)
        self.metrics.set_gauge("sim.population", self.network.population())
        self.metrics.set_gauge("sim.trace_events", len(self.trace))
        return self.metrics.snapshot(include_timing=include_timing)
