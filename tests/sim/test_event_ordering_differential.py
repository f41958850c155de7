"""Differential suite: heap vs calendar queue pop order.

The adaptive :class:`EventQueue` silently migrates from the binary heap to
the bucketed calendar queue at scale.  That migration is only sound if both
backends realise the *identical* total order — ``(time, priority, seq)`` —
under every workload shape: ties, mixed priorities, interleaved push/pop,
cancellations, clustered and far-flung times.  Each test here feeds the
same schedule to both backends and asserts the pop sequences match
event-for-event.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.sim.errors import SchedulingError
from repro.sim.events import (
    CalendarEventQueue,
    EventQueue,
    HeapEventQueue,
    PRIORITY_LATE,
    PRIORITY_MEMBERSHIP,
    PRIORITY_NORMAL,
)
from repro.sim.scheduler import Simulator


def _drain(queue):
    order = []
    while queue:
        event = queue.pop()
        order.append((event.time, event.priority, event.seq, event.label))
    return order


def _run_schedule(make_queue, schedule):
    """Apply a (op, args) schedule to a fresh queue; return the pop order.

    Ops: ``("push", time, priority, label)``, ``("pop",)``,
    ``("cancel", k)`` (cancel the k-th pushed, if still pending —
    ``note_cancelled`` is the scheduler's accounting hook for *pending*
    cancellations only, matching how the simulator uses it).
    """
    queue = make_queue()
    handles = []
    popped = []
    popped_seqs = set()
    for op in schedule:
        if op[0] == "push":
            _, time, priority, label = op
            handles.append(
                queue.push(time, lambda: None, priority=priority, label=label)
            )
        elif op[0] == "pop":
            if queue:
                event = queue.pop()
                popped.append((event.time, event.priority, event.seq))
                popped_seqs.add(event.seq)
        elif op[0] == "cancel":
            handle = handles[op[1] % len(handles)]
            if not handle.cancelled and handle.seq not in popped_seqs:
                handle.cancel()
                queue.note_cancelled()
    popped.extend((e[0], e[1], e[2]) for e in _drain(queue))
    return popped


BACKENDS = [
    ("heap", HeapEventQueue),
    ("calendar", CalendarEventQueue),
    ("adaptive-pinned-heap", lambda: EventQueue(calendar_threshold=None)),
    ("adaptive-migrating", lambda: EventQueue(calendar_threshold=8)),
]


def _assert_all_backends_agree(schedule):
    reference = _run_schedule(HeapEventQueue, schedule)
    for name, factory in BACKENDS[1:]:
        assert _run_schedule(factory, schedule) == reference, name


def test_simple_times_pop_in_order():
    schedule = [("push", t, PRIORITY_NORMAL, "") for t in
                [5.0, 1.0, 3.0, 2.0, 4.0, 0.5, 10.0]]
    _assert_all_backends_agree(schedule)


def test_ties_pop_in_insertion_order():
    schedule = [("push", 1.0, PRIORITY_NORMAL, f"e{i}") for i in range(50)]
    _assert_all_backends_agree(schedule)


def test_priorities_break_ties_before_sequence():
    schedule = []
    for i in range(30):
        priority = [PRIORITY_MEMBERSHIP, PRIORITY_NORMAL, PRIORITY_LATE][i % 3]
        schedule.append(("push", 2.0, priority, f"p{priority}"))
    _assert_all_backends_agree(schedule)


def test_interleaved_push_and_pop():
    rng = random.Random(7)
    schedule = []
    for _ in range(400):
        if rng.random() < 0.6:
            schedule.append(
                ("push", rng.uniform(0, 100), rng.choice([-1, 0, 1]), "")
            )
        else:
            schedule.append(("pop",))
    _assert_all_backends_agree(schedule)


def test_cancellations_are_skipped_identically():
    rng = random.Random(11)
    schedule = []
    pushes = 0
    for _ in range(500):
        roll = rng.random()
        if roll < 0.5:
            schedule.append(("push", rng.uniform(0, 50), 0, ""))
            pushes += 1
        elif roll < 0.75 and pushes:
            schedule.append(("cancel", rng.randrange(pushes)))
        else:
            schedule.append(("pop",))
    _assert_all_backends_agree(schedule)


def test_clustered_and_far_future_times():
    # A tight cluster now plus far-flung outliers: stresses the calendar
    # queue's rotation fallback (events far outside the current "day").
    schedule = [("push", 0.001 * i, 0, "") for i in range(100)]
    schedule += [("push", 1e6 + i, 0, "") for i in range(5)]
    schedule += [("push", 0.05, 0, "")]
    _assert_all_backends_agree(schedule)


def test_identical_times_at_scale():
    # Thousands of events at one instant: everything lands in one bucket
    # and order must still be pure insertion order.
    schedule = [("push", 42.0, 0, "") for _ in range(3000)]
    _assert_all_backends_agree(schedule)


def test_random_schedules_fuzz():
    for seed in range(10):
        rng = random.Random(seed)
        schedule = []
        pushes = 0
        for _ in range(300):
            roll = rng.random()
            if roll < 0.55:
                schedule.append((
                    "push",
                    round(rng.uniform(0, rng.choice([1.0, 100.0, 1e5])), 6),
                    rng.choice([-1, 0, 0, 0, 1]),
                    "",
                ))
                pushes += 1
            elif roll < 0.8 and pushes:
                schedule.append(("cancel", rng.randrange(pushes)))
            else:
                schedule.append(("pop",))
        _assert_all_backends_agree(schedule)


def test_pop_from_empty_raises_on_all_backends():
    for name, factory in BACKENDS:
        queue = factory()
        with pytest.raises(SchedulingError):
            queue.pop()
        event = queue.push(1.0, lambda: None)
        queue.pop()
        with pytest.raises(SchedulingError):
            queue.pop()
        assert event is not None, name


def test_nan_time_rejected_on_all_backends():
    for name, factory in BACKENDS:
        queue = factory()
        with pytest.raises(SchedulingError):
            queue.push(float("nan"), lambda: None)


def test_negative_delay_rejected_by_scheduler():
    sim = Simulator(seed=1)
    with pytest.raises(SchedulingError):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SchedulingError):
        sim.at(-1.0, lambda: None)


def test_migration_preserves_pending_order():
    # Push enough to trip the adaptive threshold mid-stream, with ties and
    # priorities, and check against a pinned heap.
    rng = random.Random(23)
    schedule = []
    for i in range(5000):
        schedule.append((
            "push", round(rng.uniform(0, 10), 3), rng.choice([-1, 0, 1]), ""
        ))
        if i % 7 == 0:
            schedule.append(("pop",))
    reference = _run_schedule(lambda: EventQueue(calendar_threshold=None),
                              schedule)
    migrated = _run_schedule(lambda: EventQueue(calendar_threshold=2048),
                             schedule)
    assert migrated == reference


def test_adaptive_backend_reports_migration():
    queue = EventQueue(calendar_threshold=4)
    assert queue.backend == "heap"
    for i in range(6):
        queue.push(float(i), lambda: None)
    assert queue.backend == "calendar"
    # Seq counter is shared across the migration: later pushes still sort
    # after earlier same-instant ones.
    queue.push(0.0, lambda: None, label="late")
    first = queue.pop()
    assert first.label != "late"


# ----------------------------------------------------------------------
# Heap entries are (time, priority, seq, event): a comparison must never
# reach the event or its action
# ----------------------------------------------------------------------


class _Unorderable:
    """A callable that refuses every comparison, as lambdas and partials do
    — loudly, so a heap that fell through to its payload fails the test
    instead of raising a TypeError somewhere inside heapq."""

    def __call__(self) -> None:
        pass

    def _refuse(self, other):
        raise AssertionError("the queue compared two event actions")

    __lt__ = __le__ = __gt__ = __ge__ = _refuse


def _tie_actions(count):
    plain = lambda: None  # noqa: E731 - a lambda is the point
    return [
        (plain, functools.partial(plain), _Unorderable())[i % 3]
        for i in range(count)
    ]


@pytest.mark.parametrize("name, factory", BACKENDS)
def test_same_instant_events_pop_in_push_order_whatever_the_action(name, factory):
    queue = factory()
    handles = [
        queue.push(7.0, action, label=str(i))
        for i, action in enumerate(_tie_actions(60))
    ]
    assert [queue.pop() for _ in range(60)] == handles
    assert [handle.label for handle in handles] == [str(i) for i in range(60)]


def test_ties_survive_compact_and_drain_live():
    heap = HeapEventQueue()
    handles = [heap.push(1.0, action) for action in _tie_actions(200)]
    for i, handle in enumerate(handles):
        if i % 3:
            handle.cancel()
            heap.note_cancelled()   # tombstones pass live: compacts on the way
    assert heap.storage_size() < len(handles)
    heap.compact()
    survivors = [h for h in handles if not h.cancelled]
    assert heap.storage_size() == len(heap) == len(survivors)
    assert sorted(heap.drain_live(), key=lambda e: e.seq) == survivors
    assert len(heap) == 0 and heap.storage_size() == 0


def test_mixed_priorities_at_one_instant_fire_membership_first():
    for name, factory in BACKENDS:
        queue = factory()
        priorities = [PRIORITY_LATE, PRIORITY_NORMAL, PRIORITY_MEMBERSHIP] * 8
        for priority, action in zip(priorities, _tie_actions(24)):
            queue.push(3.0, action, priority=priority)
        order = [queue.pop() for _ in range(24)]
        assert [e.priority for e in order] == (
            [PRIORITY_MEMBERSHIP] * 8 + [PRIORITY_NORMAL] * 8 + [PRIORITY_LATE] * 8
        ), name
        for a, b in zip(order, order[1:]):
            assert a.priority < b.priority or a.seq < b.seq, name


@pytest.mark.parametrize("name, factory", BACKENDS)
def test_the_pushed_handle_is_the_queued_event(name, factory):
    queue = factory()
    first = queue.push(1.0, _Unorderable(), label="first")
    doomed = queue.push(1.0, _Unorderable(), label="doomed")
    for i in range(10):             # enough to migrate the adaptive queue
        queue.push(2.0 + i, _Unorderable())
    doomed.cancel()
    queue.note_cancelled()
    assert queue.pop() is first
    assert queue.pop().label == ""  # the cancelled handle was honoured
    assert first < doomed           # Event itself stays orderable
