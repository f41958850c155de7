"""E17 — Journey audit: are wave misses impossible or just inefficient?

Extension experiment using the time-varying-graph formalism.  A journey
(time-respecting path) from the querier is a *necessary* condition for any
protocol to count a member; auditing each missed stable-core member against
journey reachability splits the wave's completeness failures into

* **impossible** — no journey existed: the run itself forbade counting the
  member, no protocol could do better;
* **unexplained** — a journey existed but the wave did not exploit it
  (e.g. its echo path broke after the forward wave passed): the protocol's
  own inefficiency.

The harness sweeps churn and reports the split — quantifying how much of
the conditional entries' failure mass is fundamental.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.engine.trials import QueryConfig, run_query
from repro.churn.models import ReplacementChurn
from repro.sim.latency import ConstantDelay
from repro.sim.rng import iter_seeds

N = 20
TRIALS = 8


def audit_at_rate(rate: float) -> tuple[int, int, int]:
    """Returns (queries with misses, impossible misses, unexplained)."""
    with_misses = impossible = unexplained = 0
    for seed in iter_seeds(2007, TRIALS):
        outcome = run_query(QueryConfig(
            n=N, topology="ring", aggregate="COUNT", seed=seed,
            horizon=200.0, delay=ConstantDelay(1.0),
            churn=lambda f: ReplacementChurn(f, rate=rate),
        ))
        if not outcome.terminated or not outcome.verdict.missing_core:
            continue
        with_misses += 1
        audit = outcome.run.audit_query_misses(
            querier=outcome.querier,
            issue_time=outcome.record.issue_time,
            return_time=outcome.record.return_time,
            missing=outcome.verdict.missing_core,
            hop_time=1.0,
        )
        impossible += len(audit.impossible)
        unexplained += len(audit.unexplained_misses)
    return with_misses, impossible, unexplained


def test_e17_journey_audit(benchmark):
    rows = []
    totals = {"impossible": 0, "unexplained": 0}
    for rate in (1.0, 2.0, 4.0):
        with_misses, impossible, unexplained = audit_at_rate(rate)
        rows.append([rate, with_misses, impossible, unexplained])
        totals["impossible"] += impossible
        totals["unexplained"] += unexplained
    emit(render_table(
        ["churn_rate", "queries_with_misses", "impossible_misses",
         "protocol_misses"],
        rows,
        title=f"E17: journey audit of wave misses, ring n={N}",
    ))
    # The scenarios produce misses, and both categories appear: some
    # failures are fundamental (no journey), some are the wave's own —
    # which is the argument for better protocols in conditional classes.
    assert totals["impossible"] + totals["unexplained"] > 0
    assert totals["impossible"] > 0

    benchmark.pedantic(lambda: audit_at_rate(2.0), rounds=2, iterations=1)
