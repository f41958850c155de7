"""E4 — Completeness vs churn rate in (M_inf_bounded, G_known_diameter).

Claim: conditionally solvable — the wave stays complete while churn is slow
relative to the wave traversal, and degrades as churn accelerates.  The
harness expands the churn-rate grid into an engine plan, executes it, and
reads the completeness curve off the result store; the paper-shape
assertion is the monotone-ish decline with a clean regime at the slow end
and a broken regime at the fast end.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.tables import render_result_document
from repro.engine.executor import SerialExecutor, execute_trial, run_plan
from repro.engine.plan import build_plan

RATES = [0.0, 0.25, 1.0, 2.0, 4.0, 8.0]
N = 32
BASE = {"n": N, "topology": "er", "aggregate": "COUNT", "horizon": 250.0}

PLAN = build_plan(
    "e4-churn-sweep",
    kind="query",
    grid={"churn_rate": RATES},
    base=BASE,
    trials=6,
    root_seed=2007,
)


def test_e4_completeness_vs_churn(benchmark):
    store = run_plan(PLAN, executor=SerialExecutor())
    document = store.document()
    emit(render_result_document(
        document,
        columns=("completeness", "fully_complete", "result_mean", "core_size"),
        title=f"E4: wave completeness vs replacement churn, n={N}",
    ))
    summaries = {
        entry["point"]["churn_rate"]: entry["summary"]
        for entry in document["points"]
    }
    mean_completeness = [summaries[rate]["completeness"] for rate in RATES]
    # Slow-churn regime: spec fully satisfied.
    assert mean_completeness[0] == 1.0
    assert summaries[RATES[1]]["completeness"] > 0.9
    # Fast-churn regime: the wave loses stable members.
    assert mean_completeness[-1] < mean_completeness[0]
    assert summaries[RATES[-1]]["fully_complete"] < 1.0
    # The number of values actually folded shrinks with churn.
    reached = [summaries[rate]["result_mean"] for rate in RATES]
    assert reached[-1] < reached[0]

    representative = build_plan(
        "e4-representative", kind="query",
        grid={"churn_rate": [2.0]}, base=BASE, seeds=[0],
    ).specs[0]
    benchmark.pedantic(lambda: execute_trial(representative),
                       rounds=3, iterations=1)
