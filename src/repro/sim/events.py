"""Event queues for the discrete-event simulator.

Ordering is total and deterministic: events fire by ``(time, priority,
sequence)``, so two events scheduled for the same instant fire in
scheduling order and simulations are exactly reproducible for a given
seed.

Two interchangeable implementations honour that contract:

* :class:`HeapEventQueue` — a binary heap, O(log n) per operation.  Best
  at the population sizes the seed experiments run at (n ≈ 32).
* :class:`CalendarEventQueue` — a bucketed calendar queue, O(1) amortised
  per operation.  Wins once the pending-event population reaches the
  thousands (n ≈ 10⁴–10⁵ entities with one timer each).

:class:`EventQueue` — the type the simulator actually uses — starts as a
heap and migrates to a calendar queue when the live-event count crosses
:data:`CALENDAR_THRESHOLD`.  The switch is unobservable: both backends
pop in the identical total order (proven by the differential suite in
``tests/sim/test_event_ordering_differential.py``).

Cancellation is cooperative and lazy (:meth:`Event.cancel` just sets a
flag), but not leaky: both backends count tombstones and compact their
storage once cancelled-but-unpopped entries outnumber live ones, so
memory stays proportional to the live event count.  Both keep
``storage_size() == len() + tombstones`` whether or not a cancellation was
announced with ``note_cancelled()``.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.sim.errors import SchedulingError

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for membership changes; they fire before message deliveries
#: scheduled at the same instant so a leave at time t suppresses deliveries
#: at time t (the adversary controls ties).
PRIORITY_MEMBERSHIP = -1
#: Priority for bookkeeping that must run after everything else at an instant.
PRIORITY_LATE = 1

#: Live-event count above which the adaptive :class:`EventQueue` migrates
#: from the binary heap to the calendar queue.  Seed-scale experiments
#: (n ≈ 32, a few hundred pending events) never cross it, so their
#: execution path — and therefore their result documents — are untouched.
CALENDAR_THRESHOLD = 2048

#: Tombstone compaction floor: below this many cancelled entries the
#: queues do not bother rebuilding storage.
_COMPACT_FLOOR = 64


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Attributes:
        time: simulation time at which the event fires.
        priority: tie-break between events at the same instant (lower first).
        seq: global sequence number; makes ordering total.
        action: zero-argument callable executed when the event fires.
        label: human-readable tag used in traces and debugging.
        cancelled: cooperatively-cancelled events are skipped when popped.
    """

    time: float
    priority: int
    seq: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark this event so the scheduler skips it.

        Safe on its own, any number of times: the queue drops the entry
        when it surfaces and the run ends normally.  Following the first
        call with ``queue.note_cancelled()`` (as :meth:`Process.cancel_timer
        <repro.sim.node.Process.cancel_timer>` does) additionally takes the
        event out of ``len(queue)`` at once and lets the queue compact its
        storage early; without it ``len(queue)`` counts the event until
        then.
        """
        self.cancelled = True


def _discarded(queue: "HeapEventQueue | CalendarEventQueue") -> None:
    """Account for one cancelled entry leaving ``queue``'s storage: a
    tombstone if ``note_cancelled()`` announced it, otherwise — cancelled
    through a bare :meth:`Event.cancel` — an entry still counted live."""
    if queue._tombstones:
        queue._tombstones -= 1
    else:
        queue._live -= 1


class HeapEventQueue:
    """Binary-heap event queue: O(log n) push/pop.

    The heap holds ``(time, priority, seq, event)`` entries, so ``heapq``
    orders them by comparing tuples in C; ``seq`` is unique, so a
    comparison never reaches the :class:`Event` (or its action).
    """

    def __init__(self, counter: Iterator[int] | None = None) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count() if counter is None else counter
        self._live = 0
        self._tombstones = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def storage_size(self) -> int:
        """Number of entries physically held (live + tombstones)."""
        return len(self._heap)

    def push(
        self,
        time: float,
        action: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        if time != time:  # NaN guard
            raise SchedulingError("event time is NaN")
        seq = next(self._counter)
        event = Event(time, priority, seq, action, label)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            SchedulingError: if the queue is empty.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                _discarded(self)
                continue
            self._live -= 1
            return event
        raise SchedulingError("pop from empty event queue")

    def peek_time(self) -> float | None:
        """Return the firing time of the earliest live event, or ``None``."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            _discarded(self)
        return heap[0][0] if heap else None

    def note_cancelled(self) -> None:
        """Account for an event cancelled through its handle.

        :meth:`Event.cancel` does not know about the queue, so the scheduler
        calls this to keep ``len()`` accurate.  Once tombstones outnumber
        live events (i.e. exceed half the heap) the storage is compacted.
        """
        if self._live > 0:
            self._live -= 1
            self._tombstones += 1
            if self._tombstones > max(self._live, _COMPACT_FLOOR):
                self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify; memory stays O(live)."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._live = len(self._heap)
        self._tombstones = 0

    def drain_live(self) -> list[Event]:
        """Remove and return every live event (used for backend migration)."""
        heap, self._heap = self._heap, []
        self._live = 0
        self._tombstones = 0
        return [entry[3] for entry in heap if not entry[3].cancelled]

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
        self._tombstones = 0


class CalendarEventQueue:
    """Bucketed calendar queue: O(1) amortised push/pop at scale.

    Events hash into fixed-width time buckets (``bucket = ⌊time/width⌋ mod
    nbuckets``); each bucket stays sorted, so a pop walks the calendar one
    "day" at a time and takes the front of the current bucket.  The bucket
    count doubles/halves and the width is re-estimated from the live event
    spacing whenever occupancy drifts, keeping a handful of events per
    bucket.

    The pop order is the same total order as the heap — ``(time, priority,
    seq)`` — because same-instant events always share a bucket (identical
    times hash identically) and the in-bucket sort uses the full key.

    Buckets hold :class:`Event` objects, not the heap's key tuples: an
    ``insort`` into a bucket of a handful of events makes ≈ 1.5
    comparisons, and building the tuple costs as much as that saves
    (measured on the n=10⁴ ping storm: no gain either way).
    """

    MIN_BUCKETS = 16

    def __init__(self, counter: Iterator[int] | None = None) -> None:
        self._counter = itertools.count() if counter is None else counter
        self._width = 1.0
        self._nbuckets = self.MIN_BUCKETS
        self._mask = self._nbuckets - 1
        self._buckets: list[list[Event]] = [[] for _ in range(self._nbuckets)]
        self._live = 0
        self._tombstones = 0
        #: Virtual bucket index (``⌊time/width⌋``, *not* reduced modulo
        #: nbuckets) of the scan cursor.  Inserts behind the cursor pull it
        #: back, so the forward scan can never miss an event.
        self._vcur = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def storage_size(self) -> int:
        """Number of entries physically held (live + tombstones)."""
        return self._live + self._tombstones

    # -- construction ---------------------------------------------------

    def _rebuild(self, events: list[Event]) -> None:
        """Re-bucket ``events`` with a width fitted to their spacing."""
        count = len(events)
        nbuckets = self.MIN_BUCKETS
        while nbuckets < count:
            nbuckets *= 2
        if count >= 2:
            times = sorted(event.time for event in events)
            span = times[-1] - times[0]
            width = (2.0 * span / count) if span > 0.0 else 1.0
            width = max(width, 1e-9)
        else:
            width = 1.0
        self._width = width
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._buckets = buckets = [[] for _ in range(nbuckets)]
        self._live = count
        self._tombstones = 0
        self._vcur = int(min((e.time for e in events), default=0.0) / width)
        mask = self._mask
        for event in events:
            insort(buckets[int(event.time / width) & mask], event)

    def _maybe_resize(self) -> None:
        if self._live > 2 * self._nbuckets or (
            self._nbuckets > self.MIN_BUCKETS and self._live < self._nbuckets // 4
        ):
            self._rebuild(
                [e for b in self._buckets for e in b if not e.cancelled]
            )

    # -- queue API ------------------------------------------------------

    def push(
        self,
        time: float,
        action: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        if time != time:  # NaN guard
            raise SchedulingError("event time is NaN")
        event = Event(time, priority, next(self._counter), action, label)
        v = int(time / self._width)
        insort(self._buckets[v & self._mask], event)
        if v < self._vcur:
            # Behind the cursor: pull it back so the scan cannot miss it.
            self._vcur = v
        self._live += 1
        if self._live > 2 * self._nbuckets:
            self._maybe_resize()
        return event

    def _scan(self, remove: bool) -> Event | None:
        """Find (and optionally remove) the earliest live event; ``None``
        if only cancelled entries were left.

        Walks forward from the cursor for at most one calendar rotation;
        if nothing lands inside its own "day" (sparse far-future events),
        falls back to a direct min over the bucket fronts.
        """
        width = self._width
        v = self._vcur
        for _ in range(self._nbuckets):
            bucket = self._buckets[v & self._mask]
            while bucket and bucket[0].cancelled:
                del bucket[0]
                _discarded(self)
            if bucket:
                event = bucket[0]
                if int(event.time / width) == v:
                    self._vcur = v
                    if remove:
                        del bucket[0]
                        self._live -= 1
                    return event
            v += 1
        best: Event | None = None
        for bucket in self._buckets:
            while bucket and bucket[0].cancelled:
                del bucket[0]
                _discarded(self)
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
        if best is None:
            return None
        self._vcur = int(best.time / width)
        if remove:
            del self._buckets[self._vcur & self._mask][0]
            self._live -= 1
        return best

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            SchedulingError: if the queue is empty.
        """
        # The scan's first probe, inline: a peek has usually just left the
        # cursor on the bucket whose front is the answer.
        bucket = self._buckets[self._vcur & self._mask]
        if (
            bucket
            and not bucket[0].cancelled
            and int(bucket[0].time / self._width) == self._vcur
        ):
            event = bucket.pop(0)
            self._live -= 1
        else:
            event = self._scan(remove=True) if self._live else None
            if event is None:
                raise SchedulingError("pop from empty event queue")
        if self._nbuckets > self.MIN_BUCKETS and self._live < self._nbuckets // 4:
            self._maybe_resize()
        return event

    def peek_time(self) -> float | None:
        """Return the firing time of the earliest live event, or ``None``."""
        # Same inline first probe as ``pop``.
        bucket = self._buckets[self._vcur & self._mask]
        if (
            bucket
            and not bucket[0].cancelled
            and int(bucket[0].time / self._width) == self._vcur
        ):
            return bucket[0].time
        event = self._scan(remove=False) if self._live else None
        return None if event is None else event.time

    def note_cancelled(self) -> None:
        """Account for an event cancelled through its handle; compact the
        buckets once tombstones outnumber live events."""
        if self._live > 0:
            self._live -= 1
            self._tombstones += 1
            if self._tombstones > max(self._live, _COMPACT_FLOOR):
                self.compact()

    def compact(self) -> None:
        """Drop cancelled entries; memory stays O(live)."""
        live = 0
        for bucket in self._buckets:
            if bucket:
                bucket[:] = [e for e in bucket if not e.cancelled]
                live += len(bucket)
        self._live = live
        self._tombstones = 0

    def clear(self) -> None:
        """Drop every pending event."""
        self._buckets = [[] for _ in range(self._nbuckets)]
        self._live = 0
        self._tombstones = 0
        self._vcur = 0


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Adaptive: starts on the binary heap and migrates to the calendar
    queue — same total order, proven by the differential suite — once the
    live-event count exceeds ``calendar_threshold``.  Pass
    ``calendar_threshold=None`` to pin the heap backend.

    The hot-path methods (``push``/``pop``/``peek_time``/``note_cancelled``)
    are rebound to the backend's bound methods after migration, so the
    facade adds no steady-state indirection.
    """

    def __init__(self, calendar_threshold: int | None = CALENDAR_THRESHOLD) -> None:
        self._counter = itertools.count()
        self._impl: HeapEventQueue | CalendarEventQueue = HeapEventQueue(
            counter=self._counter
        )
        self._threshold = calendar_threshold
        self.pop = self._impl.pop
        self.peek_time = self._impl.peek_time
        self.note_cancelled = self._impl.note_cancelled

    def __len__(self) -> int:
        return len(self._impl)

    def __bool__(self) -> bool:
        return self._impl._live > 0

    @property
    def backend(self) -> str:
        """Active backend name: ``"heap"`` or ``"calendar"``."""
        return "calendar" if isinstance(self._impl, CalendarEventQueue) else "heap"

    def storage_size(self) -> int:
        """Number of entries physically held (live + tombstones)."""
        return self._impl.storage_size()

    def push(
        self,
        time: float,
        action: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        event = self._impl.push(time, action, priority=priority, label=label)
        if self._threshold is not None and self._impl._live > self._threshold:
            self._promote()
        return event

    def _promote(self) -> None:
        """Migrate the heap's live events into a calendar queue."""
        assert isinstance(self._impl, HeapEventQueue)
        live = self._impl.drain_live()
        calendar = CalendarEventQueue(counter=self._counter)
        calendar._rebuild(live)
        self._impl = calendar
        # Rebind the hot path straight to the backend; push can too, since
        # promotion is one-way.
        self.push = calendar.push  # type: ignore[method-assign]
        self.pop = calendar.pop
        self.peek_time = calendar.peek_time
        self.note_cancelled = calendar.note_cancelled

    def clear(self) -> None:
        """Drop every pending event."""
        self._impl.clear()
