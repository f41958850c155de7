"""Specification of the dissemination (one-to-all) problem.

The dual of the one-time query: instead of folding values *up* to one
process, one process must push a value *out* to everyone.  In the paper's
framework the same two dimensions decide solvability, and the problem makes
the "eventual semantics" escape hatch concrete: one-shot dissemination (a
single flood) fails under churn exactly like the one-shot query, while
*continuous* dissemination (anti-entropy repair) achieves coverage in the
eventual sense even though no process ever knows it is done.

Protocols advertise broadcasts through two trace events:

* ``bcast_issued``    with ``entity`` (origin), ``bid`` and ``value``;
* ``bcast_delivered`` with ``entity`` and ``bid`` — written by each process
  the first time it learns the value (the origin included).

The checker measures, for an audit time ``T``:

* **coverage(T)** — the fraction of the obligation set holding the value at
  ``T``; the obligation set is the stable core of ``[issue, T]`` (optionally
  intersected with a reachability set supplied by the caller);
* **integrity** — no process delivered a broadcast before it was issued,
  and no process delivered the same broadcast twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.runs import Run
from repro.sim.trace import TraceLog

BCAST_ISSUED = "bcast_issued"
BCAST_DELIVERED = "bcast_delivered"


@dataclass(frozen=True)
class BroadcastRecord:
    """The observable facts about one broadcast."""

    bid: int
    origin: int
    issue_time: float
    value: object = None
    deliveries: tuple[tuple[int, float], ...] = ()

    def delivered_by(self, t: float) -> frozenset[int]:
        """Entities that had delivered by time ``t``."""
        return frozenset(pid for pid, when in self.deliveries if when <= t)


@dataclass(frozen=True)
class DisseminationVerdict:
    """The outcome of auditing one broadcast at time ``T``.

    Two coverage notions are reported:

    * :attr:`coverage` — over the *obligation set* (stable core of the
      audit window): what a one-shot protocol can be held to;
    * :attr:`population_coverage` — over the population present at the
      audit instant, late joiners included: what a *continuous*
      dissemination service owes its users.  One-shot floods degrade here
      as the population turns over; anti-entropy repair does not.
    """

    covered: frozenset[int]
    obligation: frozenset[int]
    missing: frozenset[int]
    integral: bool
    present: frozenset[int] = frozenset()
    notes: tuple[str, ...] = ()
    #: ``False`` for a broadcast that never happened (the origin left
    #: first; its record's ``bid`` is negative): the broadcast fails.
    issued: bool = True

    @property
    def coverage(self) -> float:
        """Fraction of the obligation set covered (if empty: 1.0 once issued)."""
        if not self.obligation:
            return float(self.issued)
        return len(self.obligation & self.covered) / len(self.obligation)

    @property
    def population_coverage(self) -> float:
        """Fraction of the audit-time population holding the value."""
        if not self.present:
            return float(self.issued)
        return len(self.present & self.covered) / len(self.present)

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def ok(self) -> bool:
        return self.issued and self.complete and self.integral

    def __str__(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (
            f"DisseminationVerdict[{status}] coverage={self.coverage:.2f} "
            f"({len(self.obligation & self.covered)}/{len(self.obligation)}) "
            f"integral={self.integral}"
        )


def extract_broadcasts(log: TraceLog) -> list[BroadcastRecord]:
    """Collect every broadcast recorded in a trace."""
    issued: dict[int, tuple[int, float, object]] = {}
    deliveries: dict[int, list[tuple[int, float]]] = {}
    for event in log:
        if event.kind == BCAST_ISSUED:
            issued[event["bid"]] = (event["entity"], event.time, event.get("value"))
        elif event.kind == BCAST_DELIVERED:
            deliveries.setdefault(event["bid"], []).append(
                (event["entity"], event.time)
            )
    return [
        BroadcastRecord(
            bid=bid,
            origin=origin,
            issue_time=when,
            value=value,
            deliveries=tuple(deliveries.get(bid, ())),
        )
        for bid, (origin, when, value) in sorted(issued.items())
    ]


class DisseminationSpec:
    """Audits broadcasts against the dissemination specification.

    Args:
        restrict_to: optionally intersect the obligation set with a given
            entity set (e.g. the origin's connected component at issue).
    """

    def __init__(self, restrict_to: frozenset[int] | None = None) -> None:
        self.restrict_to = restrict_to

    def check_broadcast(
        self,
        log: TraceLog,
        record: BroadcastRecord,
        at: float,
        run: Run | None = None,
    ) -> DisseminationVerdict:
        """Audit one broadcast at time ``at``."""
        if run is None:
            run = Run.from_trace(log, horizon=at)
        if at < record.issue_time:
            raise ValueError(
                f"audit time {at} precedes issue time {record.issue_time}"
            )
        notes: list[str] = []
        obligation = run.stable_core(record.issue_time, at)
        if self.restrict_to is not None:
            obligation = obligation & self.restrict_to
        covered = record.delivered_by(at)
        missing = obligation - covered

        integral = True
        early = [
            (pid, when)
            for pid, when in record.deliveries
            if when < record.issue_time
        ]
        if early:
            integral = False
            notes.append(f"deliveries before issue: {early}")
        entities = [pid for pid, _ in record.deliveries]
        duplicates = {pid for pid in entities if entities.count(pid) > 1}
        if duplicates:
            integral = False
            notes.append(f"duplicate deliveries: {sorted(duplicates)}")
        phantom = covered - (
            run.stable_core(record.issue_time, at)
            | run.transients(record.issue_time, at)
        )
        # Entities may legitimately deliver and later leave (transients), or
        # deliver having joined mid-broadcast; only never-present entities
        # are phantoms.
        if phantom:
            integral = False
            notes.append(f"phantom deliverers: {sorted(phantom)}")

        return DisseminationVerdict(
            covered=covered,
            obligation=obligation,
            missing=missing,
            integral=integral,
            present=run.present_at(at),
            notes=tuple(notes),
            issued=record.bid >= 0,
        )

    def check(self, log: TraceLog, at: float) -> list[DisseminationVerdict]:
        """Audit every broadcast in the trace at time ``at``."""
        run = Run.from_trace(log, horizon=at)
        return [
            self.check_broadcast(log, record, at, run)
            for record in extract_broadcasts(log)
        ]
