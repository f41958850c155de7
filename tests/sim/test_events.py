"""Tests for the event queue (repro.sim.events)."""

from __future__ import annotations

import random

import pytest

from repro.sim.errors import SchedulingError
from repro.sim.events import (
    CalendarEventQueue,
    Event,
    EventQueue,
    HeapEventQueue,
    PRIORITY_LATE,
    PRIORITY_MEMBERSHIP,
    PRIORITY_NORMAL,
)


def noop() -> None:
    pass


class TestEventQueue:
    def test_empty_queue_is_falsy(self):
        assert not EventQueue()

    def test_len_counts_live_events(self):
        q = EventQueue()
        q.push(1.0, noop)
        q.push(2.0, noop)
        assert len(q) == 2

    def test_pop_orders_by_time(self):
        q = EventQueue()
        q.push(3.0, noop, label="c")
        q.push(1.0, noop, label="a")
        q.push(2.0, noop, label="b")
        assert [q.pop().label for _ in range(3)] == ["a", "b", "c"]

    def test_ties_broken_by_priority(self):
        q = EventQueue()
        q.push(1.0, noop, priority=PRIORITY_LATE, label="late")
        q.push(1.0, noop, priority=PRIORITY_MEMBERSHIP, label="member")
        q.push(1.0, noop, priority=PRIORITY_NORMAL, label="normal")
        assert [q.pop().label for _ in range(3)] == ["member", "normal", "late"]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        q.push(1.0, noop, label="first")
        q.push(1.0, noop, label="second")
        assert q.pop().label == "first"
        assert q.pop().label == "second"

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError):
            EventQueue().pop()

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        event = q.push(1.0, noop, label="cancel-me")
        q.push(2.0, noop, label="keep")
        event.cancel()
        q.note_cancelled()
        assert q.pop().label == "keep"

    def test_note_cancelled_updates_len(self):
        q = EventQueue()
        event = q.push(1.0, noop)
        event.cancel()
        q.note_cancelled()
        assert len(q) == 0
        assert not q

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(5.0, noop)
        q.push(2.0, noop)
        assert q.peek_time() == 2.0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        event = q.push(1.0, noop)
        q.push(3.0, noop)
        event.cancel()
        q.note_cancelled()
        assert q.peek_time() == 3.0

    def test_nan_time_rejected(self):
        with pytest.raises(SchedulingError):
            EventQueue().push(float("nan"), noop)

    def test_clear(self):
        q = EventQueue()
        q.push(1.0, noop)
        q.push(2.0, noop)
        q.clear()
        assert len(q) == 0
        assert q.peek_time() is None

    def test_actions_preserved(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append("x"))
        q.pop().action()
        assert fired == ["x"]

    def test_many_events_stay_sorted(self):
        q = EventQueue()
        import random

        r = random.Random(9)
        times = [r.uniform(0, 100) for _ in range(500)]
        for t in times:
            q.push(t, noop)
        popped = [q.pop().time for _ in range(500)]
        assert popped == sorted(times)


def _physical(queue) -> int:
    """Entries really held by a backend (cancelled ones included)."""
    if isinstance(queue, HeapEventQueue):
        return len(queue._heap)
    return sum(len(bucket) for bucket in queue._buckets)


@pytest.mark.parametrize("backend", [HeapEventQueue, CalendarEventQueue])
class TestBareCancel:
    """``Event.cancel()`` without ``note_cancelled()``: the queue finds out
    when the entry surfaces, and ``physical == live + tombstones`` holds
    at every step."""

    def _check(self, queue):
        assert _physical(queue) == len(queue) + queue._tombstones
        assert queue._tombstones >= 0
        assert queue.storage_size() == _physical(queue)

    def test_only_event(self, backend):
        queue = backend()
        queue.push(1.0, noop).cancel()
        self._check(queue)
        assert queue.peek_time() is None
        assert len(queue) == 0 and not queue
        self._check(queue)
        with pytest.raises(SchedulingError):
            queue.pop()

    def test_pop_skips_head_and_middle(self, backend):
        queue = backend()
        events = [queue.push(float(t), noop, label=str(t)) for t in range(1, 6)]
        events[0].cancel()
        events[2].cancel()
        assert [queue.pop().label for _ in range(3)] == ["2", "4", "5"]
        assert len(queue) == 0
        self._check(queue)

    def test_mixed_with_noted_cancellations(self, backend):
        queue = backend()
        events = [queue.push(float(t), noop, label=str(t)) for t in range(8)]
        events[1].cancel()                      # bare
        events[2].cancel()
        queue.note_cancelled()                  # announced
        events[2].cancel()                      # a second cancel is a no-op
        events[5].cancel()                      # bare
        assert len(queue) == 7
        self._check(queue)
        popped = []
        while queue.peek_time() is not None:
            popped.append(queue.pop().label)
            self._check(queue)
        assert popped == ["0", "3", "4", "6", "7"]
        assert len(queue) == 0

    def test_compact_counts_what_is_left(self, backend):
        queue = backend()
        events = [queue.push(float(t), noop) for t in range(10)]
        for event in events[::2]:
            event.cancel()
        events[1].cancel()
        queue.note_cancelled()
        queue.compact()
        assert len(queue) == 4
        self._check(queue)
        assert [queue.pop().time for _ in range(4)] == [3.0, 5.0, 7.0, 9.0]


def test_bare_cancel_survives_promotion():
    queue = EventQueue(calendar_threshold=8)
    early = [queue.push(float(t), noop, label=str(t)) for t in range(6)]
    assert queue.backend == "heap"
    early[0].cancel()
    early[3].cancel()
    late = [queue.push(10.0 + t, noop, label=f"late{t}") for t in range(6)]
    assert queue.backend == "calendar"
    late[2].cancel()
    popped = []
    while queue.peek_time() is not None:
        popped.append(queue.pop().label)
    assert popped == ["1", "2", "4", "5", "late0", "late1", "late3", "late4",
                      "late5"]
    assert len(queue) == 0 and not queue


class Incomparable:
    """An action the queues must never compare: every comparison fails."""

    def __init__(self, name: str) -> None:
        self.name = name

    def _compared(self, other: object) -> bool:
        raise AssertionError(f"compared the action of event {self.name}")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _compared
    __hash__ = object.__hash__

    def __call__(self) -> None:
        pass


def _promoted() -> EventQueue:
    """An adaptive queue already migrated to its calendar backend."""
    queue = EventQueue(calendar_threshold=4)
    for t in range(6):
        queue.push(100.0 + t, noop, label=f"filler{t}")
    assert queue.backend == "calendar"
    return queue


@pytest.mark.parametrize("make", [
    HeapEventQueue, CalendarEventQueue, EventQueue, _promoted,
], ids=["heap", "calendar", "adaptive", "promoted"])
class TestEvent:
    """The event a push returns: a ``[time, priority, seq, action, label,
    cancelled]`` list that orders by ``(time, priority, seq)`` and is
    never compared past ``seq``."""

    def test_fields(self, make):
        queue = make()
        event = queue.push(2.5, noop, priority=PRIORITY_LATE, label="x")
        assert isinstance(event, Event) and isinstance(event, list)
        assert (event.time, event.priority, event.label) == (2.5, PRIORITY_LATE, "x")
        assert event.action is noop and event.cancelled is False
        assert list(event) == [2.5, PRIORITY_LATE, event.seq, noop, "x", False]

    def test_seq_counts_pushes(self, make):
        queue = make()
        first = queue.push(1.0, noop)
        second = queue.push(0.5, noop)
        assert second.seq == first.seq + 1

    def test_cancel(self, make):
        queue = make()
        event = queue.push(1.0, noop, label="gone")
        queue.push(1.0, noop, label="kept")
        event.cancel()
        event.cancel()
        assert event.cancelled is True and event[5] is True
        assert queue.pop().label == "kept"

    def test_same_time_ties_pop_by_priority_then_seq(self, make):
        queue = make()
        pushed = [
            queue.push(1.0, Incomparable(str(i)), priority=priority, label=str(i))
            for i, priority in enumerate([1, 0, -1, 0, 1, -1, 0, -1])
        ]
        expected = [e.label for e in sorted(pushed, key=lambda e: (e.priority, e.seq))]
        assert [queue.pop().label for _ in pushed] == expected

    def test_actions_are_never_compared(self, make):
        queue = make()
        rng = random.Random(7)
        for i in range(300):
            queue.push(float(rng.randrange(20)), Incomparable(str(i)),
                       priority=rng.choice([-1, 0, 1]), label=str(i))
        popped = []
        while queue.peek_time() is not None:
            event = queue.pop()
            popped.append((event.time, event.priority, event.seq))
        assert popped == sorted(popped)

    def test_order_survives_compaction(self, make):
        queue = make()
        events = [
            queue.push(float(i % 5), Incomparable(str(i)), priority=i % 3 - 1,
                       label=str(i))
            for i in range(40)
        ]
        for event in events[::2]:
            event.cancel()
            queue.note_cancelled()
        queue.compact()
        popped = []
        while queue.peek_time() is not None:
            popped.append(queue.pop())
        assert [(e.time, e.priority, e.seq) for e in popped] == sorted(
            (e.time, e.priority, e.seq) for e in popped
        )
        kept = [e.label for e in popped if not e.label.startswith("filler")]
        assert sorted(kept, key=int) == [e.label for e in events[1::2]]

    def test_the_pushed_handle_is_the_popped_event(self, make):
        queue = make()
        first, doomed = (queue.push(1.0, Incomparable(x), label=x) for x in ("a", "b"))
        doomed.cancel()
        queue.note_cancelled()
        assert queue.pop() is first and first < doomed  # an Event stays orderable

    def test_nan_time_and_empty_pop_raise(self, make):
        queue = make()
        with pytest.raises(SchedulingError, match="event time is NaN"):
            queue.push(float("nan"), noop)
        for _ in iter(queue.peek_time, None):
            queue.pop()
        with pytest.raises(SchedulingError, match="pop from empty event queue"):
            queue.pop()

    def test_clear_drops_the_actions(self, make):
        queue = make()
        event = queue.push(1.0, Incomparable("kept-handle"))
        queue.clear()
        assert event.action is None
        assert len(queue) == 0 and queue.peek_time() is None


def test_compact_and_drain_live_keep_the_live_events():
    heap = HeapEventQueue()
    handles = [heap.push(1.0, Incomparable(str(i))) for i in range(200)]
    for handle in handles[1::3] + handles[2::3]:
        handle.cancel()
        heap.note_cancelled()  # tombstones outnumber the live: compacts on the way
    assert heap.storage_size() < len(handles)
    heap.compact()
    assert heap.storage_size() == len(heap) == len(handles[::3])
    assert sorted(heap.drain_live(), key=lambda e: e.seq) == handles[::3]
    assert len(heap) == heap.storage_size() == 0
