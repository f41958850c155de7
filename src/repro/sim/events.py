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
pop in the identical total order (the queue differential in
``tests/reference/`` holds both to the reference model's sorted list).

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
import math
from bisect import insort
from operator import itemgetter
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


class Event(list):
    """A scheduled callback: ``[time, priority, seq, action, label,
    cancelled]``.

    A ``list`` so that the queues order events by comparing them in C —
    ``heapq`` and ``insort`` compare lists element by element, and ``seq``
    is unique, so a comparison never reaches ``action`` — and so that one
    is built in one C call, without a Python ``__init__`` frame.  The hot
    paths index it (``event[0]`` is the time, ``event[3]`` the action);
    everything else reads the named properties.

    Attributes:
        time: simulation time at which the event fires.
        priority: tie-break between events at the same instant (lower first).
        seq: global sequence number; makes ordering total.
        action: zero-argument callable executed when the event fires
            (``None`` once the simulator has run or cancelled it, or its
            queue is cleared, as ``Simulator.close`` clears it).
        label: the kind of event (``"timer"``, ``"leave"``,
            ``"deliver:PING"``, ...), for debugging and per-layer
            profiles; never an entity or an id.
        cancelled: cooperatively-cancelled events are skipped when popped.
    """

    __slots__ = ()

    time = property(itemgetter(0))
    priority = property(itemgetter(1))
    seq = property(itemgetter(2))
    action = property(itemgetter(3))
    label = property(itemgetter(4))
    cancelled = property(itemgetter(5))

    def cancel(self) -> None:
        """Mark this event so its queue skips it, any number of times.

        A queue-level flag: ``len(queue)`` counts the event until the queue
        drops it.  :meth:`Simulator.cancel
        <repro.sim.scheduler.Simulator.cancel>`, the simulator's one
        cancellation path, also drops the action and tells the queue.
        """
        self[5] = True


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

    The heap holds the :class:`Event` lists themselves, so ``heapq``
    orders them by comparing ``(time, priority, seq)`` in C; ``seq`` is
    unique, so a comparison never reaches the action.
    """

    #: Live-event count above which :meth:`push` calls ``_promote``: never,
    #: for a plain heap; :class:`EventQueue` lowers it.
    _threshold: float = math.inf

    def __init__(self, counter: Iterator[int] | None = None) -> None:
        self._heap: list[Event] = []
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
        event = Event((time, priority, next(self._counter), action, label, False))
        heapq.heappush(self._heap, event)
        self._live += 1
        if self._live > self._threshold:
            self._promote()
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            SchedulingError: if the queue is empty.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if event[5]:
                _discarded(self)
                continue
            self._live -= 1
            return event
        raise SchedulingError("pop from empty event queue")

    def peek_time(self) -> float | None:
        """Return the firing time of the earliest live event, or ``None``."""
        heap = self._heap
        while heap and heap[0][5]:
            heapq.heappop(heap)
            _discarded(self)
        return heap[0][0] if heap else None

    def note_cancelled(self) -> None:
        """Account for an event cancelled through its handle.

        :meth:`Event.cancel` does not know about the queue, so
        ``Simulator.cancel`` calls this to keep ``len()`` accurate.  Once
        tombstones outnumber live events the storage is compacted.
        """
        if self._live > 0:
            self._live -= 1
            self._tombstones += 1
            if self._tombstones > max(self._live, _COMPACT_FLOOR):
                self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify; memory stays O(live)."""
        self._heap = [event for event in self._heap if not event[5]]
        heapq.heapify(self._heap)
        self._live = len(self._heap)
        self._tombstones = 0

    def drain_live(self) -> list[Event]:
        """Remove and return every live event (used for backend migration)."""
        heap, self._heap = self._heap, []
        self._live = 0
        self._tombstones = 0
        return [event for event in heap if not event[5]]

    def clear(self) -> None:
        """Drop every pending event, and its action: a handle kept past
        ``clear`` holds no reference into the simulation."""
        for event in self._heap:
            event[3] = None
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

    Buckets hold the :class:`Event` lists, the same entries the heap
    holds, so ``insort`` and the bucket-front comparisons order them in C
    with no Python ``__lt__`` frame: an ``insort`` makes 3–5.5 comparisons
    on the ping storm (n = 10⁵ to 10³), and none reaches the action.
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

    # The live and tombstone counts work as the heap's do.
    __len__ = HeapEventQueue.__len__
    __bool__ = HeapEventQueue.__bool__
    note_cancelled = HeapEventQueue.note_cancelled

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
            times = sorted(event[0] for event in events)
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
        self._vcur = int(min((e[0] for e in events), default=0.0) / width)
        mask = self._mask
        for event in events:
            insort(buckets[int(event[0] / width) & mask], event)

    def _maybe_resize(self) -> None:
        if self._live > 2 * self._nbuckets or (
            self._nbuckets > self.MIN_BUCKETS and self._live < self._nbuckets // 4
        ):
            self._rebuild(
                [e for b in self._buckets for e in b if not e[5]]
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
        event = Event((time, priority, next(self._counter), action, label, False))
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
            while bucket and bucket[0][5]:
                del bucket[0]
                _discarded(self)
            if bucket:
                event = bucket[0]
                if int(event[0] / width) == v:
                    self._vcur = v
                    if remove:
                        del bucket[0]
                        self._live -= 1
                    return event
            v += 1
        best: Event | None = None
        for bucket in self._buckets:
            while bucket and bucket[0][5]:
                del bucket[0]
                _discarded(self)
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
        if best is None:
            return None
        self._vcur = int(best[0] / width)
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
            and not bucket[0][5]
            and int(bucket[0][0] / self._width) == self._vcur
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
            and not bucket[0][5]
            and int(bucket[0][0] / self._width) == self._vcur
        ):
            return bucket[0][0]
        event = self._scan(remove=False) if self._live else None
        return None if event is None else event[0]

    def compact(self) -> None:
        """Drop cancelled entries; memory stays O(live)."""
        live = 0
        for bucket in self._buckets:
            if bucket:
                bucket[:] = [e for e in bucket if not e[5]]
                live += len(bucket)
        self._live = live
        self._tombstones = 0

    def clear(self) -> None:
        """Drop every pending event, and its action (see
        :meth:`HeapEventQueue.clear`)."""
        for bucket in self._buckets:
            for event in bucket:
                event[3] = None
        self._buckets = [[] for _ in range(self._nbuckets)]
        self._live = 0
        self._tombstones = 0
        self._vcur = 0


class EventQueue(HeapEventQueue):
    """A deterministic priority queue of :class:`Event` objects.

    Adaptive: starts on the binary heap and migrates to the calendar
    queue — same total order, proven by the differential suite — once the
    live-event count exceeds ``calendar_threshold``.  Pass
    ``calendar_threshold=None`` to pin the heap backend.

    The facade *is* the heap until it migrates, so a push or pop costs
    the heap's one frame; migration is one-way and rebinds the queue API
    to the calendar's bound methods.
    """

    def __init__(self, calendar_threshold: int | None = CALENDAR_THRESHOLD) -> None:
        super().__init__()
        if calendar_threshold is not None:
            self._threshold = calendar_threshold
        self._calendar: CalendarEventQueue | None = None

    # The heap's push under the facade's own name, so that rebinding or
    # wrapping ``EventQueue.push`` (perf/harness/probes.py does) leaves
    # ``HeapEventQueue`` alone.
    push = HeapEventQueue.push

    def __len__(self) -> int:
        return self._live if self._calendar is None else self._calendar._live

    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def backend(self) -> str:
        """Active backend name: ``"heap"`` or ``"calendar"``."""
        return "heap" if self._calendar is None else "calendar"

    def _promote(self) -> None:
        """Migrate the heap's live events into a calendar queue."""
        calendar = self._calendar = CalendarEventQueue(counter=self._counter)
        calendar._rebuild(self.drain_live())
        self.push = calendar.push  # type: ignore[method-assign]
        self.pop = calendar.pop  # type: ignore[method-assign]
        self.peek_time = calendar.peek_time  # type: ignore[method-assign]
        self.note_cancelled = calendar.note_cancelled  # type: ignore[method-assign]
        self.compact = calendar.compact  # type: ignore[method-assign]
        self.storage_size = calendar.storage_size  # type: ignore[method-assign]
        self.clear = calendar.clear  # type: ignore[method-assign]
