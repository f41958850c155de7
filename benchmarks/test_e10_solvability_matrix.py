"""E10 — The solvability matrix: the paper's landscape, decided and checked.

The harness renders the full (arrival x knowledge) matrix from the decision
table and cross-validates a representative cell of each verdict kind
empirically: a YES cell must succeed in simulation, a NO cell must be
defeated by its adversary, and a CONDITIONAL cell must flip with its
condition.  The empirical cells run as small engine plans — declarative
churn specs instead of hand-rolled builder lambdas.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.tables import render_matrix
from repro.churn.adversary import defeat_ttl
from repro.core.aggregates import COUNT
from repro.core.classes import standard_lattice
from repro.core.solvability import Solvable, solvability_matrix
from repro.core.spec import OneTimeQuerySpec
from repro.engine.executor import run_plan
from repro.engine.plan import build_plan
from repro.protocols.one_time_query import WaveNode

SYMBOL = {Solvable.YES: "yes", Solvable.CONDITIONAL: "cond", Solvable.NO: "NO"}


def test_e10_matrix(benchmark):
    lattice = standard_lattice(n=16, c=64, diameter=8, size_bound=64)
    matrix = solvability_matrix(lattice)
    row_labels = []
    col_labels = []
    cells = {}
    for system, result in matrix.items():
        row = str(system.arrival)
        col = str(system.knowledge)
        if row not in row_labels:
            row_labels.append(row)
        if col not in col_labels:
            col_labels.append(col)
        cells[(row, col)] = SYMBOL[result.answer]
    emit(render_matrix(
        row_labels, col_labels, cells, corner="arrival \\ knowledge",
        title="E10: one-time query solvability matrix",
    ))

    # Structural shape: rows get worse downward, columns worse rightward
    # (the orders used to build the lattice).
    order = {"yes": 2, "cond": 1, "NO": 0}
    for col in col_labels:
        column = [order[cells[(row, col)]] for row in row_labels]
        assert column == sorted(column, reverse=True), col

    # Empirical cross-validation of one cell per verdict kind:
    # YES — (M_static, G_complete):
    yes_store = run_plan(build_plan(
        "e10-yes-cell", kind="query",
        base={"n": 16, "protocol": "request_collect", "aggregate": "COUNT",
              "horizon": 100.0},
        seeds=[1],
    ))
    assert yes_store.results[0].ok

    # NO — (M_*, G_local) via the TTL diagonalisation:
    sim, pids = defeat_ttl(6, lambda: WaveNode(1.0))
    sim.network.process(pids[0]).issue_query(COUNT, ttl=6)
    sim.run(until=1000)
    assert not OneTimeQuerySpec().check(sim.trace)[0].ok

    # CONDITIONAL — (M_inf_bounded, G_known_diameter): flips with churn.
    conditional_base = {"n": 16, "topology": "er", "aggregate": "COUNT",
                        "horizon": 200.0}
    slow_store = run_plan(build_plan(
        "e10-conditional-slow", kind="query",
        grid={"churn_rate": [0.05]}, base=conditional_base, seeds=[2],
    ))
    assert slow_store.results[0].completeness == 1.0
    fast_store = run_plan(build_plan(
        "e10-conditional-fast", kind="query",
        grid={"churn_rate": [8.0]}, base=conditional_base, seeds=[1, 2, 3],
    ))
    assert any(result.completeness < 1.0 for result in fast_store.results)

    benchmark.pedantic(
        lambda: solvability_matrix(standard_lattice()), rounds=5, iterations=1
    )
