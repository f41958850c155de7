"""Machine-checkable specification of the one-time query problem.

The paper's canonical problem, made executable.  A process (the *querier*)
issues a query for an aggregate over the values held by system members.  A
protocol solves the problem in a run iff:

* **Termination** — the querier returns a result in finite time.
* **Stable-core validity** — the result accounts for the value of *every*
  entity present throughout the query interval (the stable core); entities
  that join or leave mid-query may or may not be counted.
* **Integrity** — every counted contribution comes from an entity that was
  actually present at some instant of the query interval, no entity is
  counted twice, no value is fabricated, and the returned aggregate equals
  the aggregate of the counted values.

Protocols advertise queries through two trace events:

* ``query_issued``  with ``entity`` (querier), ``qid`` and ``aggregate``;
* ``query_returned`` with ``entity``, ``qid``, ``result`` and
  ``contributors`` (tuple of entity ids whose values were counted).

The checker cross-references those events against the membership record of
the same trace, so a protocol cannot claim completeness it did not achieve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import aggregates as agg
from repro.core.runs import Run
from repro.sim import trace as tr
from repro.sim.trace import TraceLog

QUERY_ISSUED = "query_issued"
QUERY_RETURNED = "query_returned"


@dataclass(frozen=True)
class QueryRecord:
    """The observable facts about one query occurrence."""

    qid: int
    querier: int
    aggregate: str
    issue_time: float
    return_time: float | None
    result: object = None
    contributors: tuple[int, ...] = ()

    @property
    def terminated(self) -> bool:
        return self.return_time is not None


@dataclass(frozen=True)
class Verdict:
    """The outcome of checking one query against the specification.

    ``ok`` holds iff all three clauses hold.  ``missing_core`` lists the
    stable-core entities whose values were not counted (the completeness
    failures); ``phantom`` lists counted entities that were never present
    during the query interval (integrity failures).
    """

    terminated: bool
    complete: bool
    integral: bool
    stable_core: frozenset[int] = frozenset()
    contributors: frozenset[int] = frozenset()
    missing_core: frozenset[int] = frozenset()
    phantom: frozenset[int] = frozenset()
    duplicates: frozenset[int] = frozenset()
    notes: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return self.terminated and self.complete and self.integral

    @property
    def completeness_ratio(self) -> float:
        """Fraction of the stable core whose values were counted (1.0 for an
        empty core)."""
        if not self.stable_core:
            return 1.0
        return len(self.stable_core & self.contributors) / len(self.stable_core)

    def __str__(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (
            f"Verdict[{status}] terminated={self.terminated} "
            f"complete={self.complete} integral={self.integral} "
            f"core={len(self.stable_core)} counted={len(self.contributors)}"
        )


def extract_queries(log: TraceLog) -> list[QueryRecord]:
    """Collect every query occurrence recorded in a trace."""
    issued: dict[int, tr.TraceEvent] = {}
    returned: dict[int, tr.TraceEvent] = {}
    for event in log:
        if event.kind == QUERY_ISSUED:
            issued[event["qid"]] = event
        elif event.kind == QUERY_RETURNED:
            returned.setdefault(event["qid"], event)
    records = []
    for qid, issue in sorted(issued.items()):
        ret = returned.get(qid)
        records.append(
            QueryRecord(
                qid=qid,
                querier=issue["entity"],
                aggregate=issue.get("aggregate", "SET"),
                issue_time=issue.time,
                return_time=ret.time if ret is not None else None,
                result=ret.get("result") if ret is not None else None,
                contributors=tuple(ret.get("contributors", ())) if ret is not None else (),
            )
        )
    return records


class OneTimeQuerySpec:
    """Checks one-time-query occurrences in a trace against the spec.

    Args:
        restrict_core_to: optionally intersect the stable core with a given
            entity set before checking completeness.  The analysis layer
            uses this to scope the obligation to the querier's connected
            component (an entity no path ever reaches cannot be counted by
            *any* protocol, so the paper's validity clause quantifies over
            reachable stable members).
        check_result: also verify the returned aggregate value equals the
            aggregate of the contributors' actual values.
    """

    def __init__(
        self,
        restrict_core_to: frozenset[int] | None = None,
        check_result: bool = True,
    ) -> None:
        self.restrict_core_to = restrict_core_to
        self.check_result = check_result

    def check_query(self, log: TraceLog, record: QueryRecord, run: Run | None = None) -> Verdict:
        """Check a single query occurrence; see module docstring for clauses."""
        if run is None:
            run = Run.from_trace(log)
        notes: list[str] = []
        if not record.terminated:
            return Verdict(
                terminated=False,
                complete=False,
                integral=False,
                notes=("query never returned",),
            )
        assert record.return_time is not None
        stable = run.stable_core(record.issue_time, record.return_time)
        restrict = self.restrict_core_to
        core = stable if restrict is None else stable & restrict
        contributors = frozenset(record.contributors)
        duplicates = frozenset(
            pid
            for pid in contributors
            if record.contributors.count(pid) > 1
        )
        window_present = stable | run.transients(
            record.issue_time, record.return_time
        )
        phantom = contributors - window_present
        missing = core - contributors
        integral = not duplicates and not phantom
        if self.check_result and integral:
            integral = self._result_consistent(run, record, notes)
        return Verdict(
            terminated=True,
            complete=not missing,
            integral=integral,
            stable_core=core,
            contributors=contributors,
            missing_core=missing,
            phantom=phantom,
            duplicates=duplicates,
            notes=tuple(notes),
        )

    def _result_consistent(
        self, run: Run, record: QueryRecord, notes: list[str]
    ) -> bool:
        values = run.values
        unknown = [pid for pid in record.contributors if pid not in values]
        if unknown:
            notes.append(f"contributors with unknown values: {unknown}")
            return False
        try:
            aggregate = agg.by_name(record.aggregate)
        except KeyError:
            notes.append(f"unknown aggregate {record.aggregate!r}; result unchecked")
            return True
        expected = aggregate.of(values[pid] for pid in record.contributors)
        if expected != record.result:
            notes.append(
                f"result {record.result!r} != {aggregate.name} of contributions "
                f"({expected!r})"
            )
            return False
        return True

    def check(self, log: TraceLog, horizon: float | None = None) -> list[Verdict]:
        """Check every query in the trace; returns one verdict per query."""
        run = Run.from_trace(log, horizon)
        return [self.check_query(log, record, run) for record in extract_queries(log)]
