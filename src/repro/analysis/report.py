"""One-command experiment report.

:func:`build_report` runs a compact battery over the definition space — the
solvability matrix, a churn sweep for the wave protocol, and the
wave-vs-gossip accuracy comparison — and renders a self-contained markdown
report.  Each measured section is a ``churn_rate``-grid
:class:`~repro.experiments.schema.ExperimentDef` run through
:func:`~repro.experiments.runner.run_experiment`.  The CLI exposes it as
``python -m repro report``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analysis.tables import (
    render_result_document,
    render_solvability_matrix,
    render_table,
)
from repro.engine.results import ResultStore
from repro.experiments.runner import run_experiment
from repro.experiments.schema import ExperimentDef


def _churn_grid(
    name: str, kind: str, rates: Sequence[float], n: int, trials: int,
    seed: int, **base: Any,
) -> ResultStore:
    """Run one ``churn_rate``-grid experiment on an ER overlay of ``n``."""
    base.update(n=n, topology="er")
    return run_experiment(ExperimentDef(
        name=name, kind=kind, grid=(("churn_rate", tuple(rates)),),
        base=tuple(sorted(base.items())), trials=trials, root_seed=seed,
    )).store


def _matrix_section() -> str:
    return (
        "## Solvability of the one-time query\n\n"
        "```\n" + render_solvability_matrix() + "\n```\n"
    )


def _churn_section(n: int, trials: int, seed: int) -> str:
    store = _churn_grid("report-churn", "query", (0.0, 0.5, 2.0, 8.0), n,
                        trials, seed, aggregate="COUNT", horizon=250.0)
    table = render_result_document(
        store.document(),
        columns=("completeness", "fully_complete", "messages"), title="",
    )
    return (
        f"## Wave completeness vs churn (n={n}, {trials} trials/point)\n\n"
        "```\n" + table + "\n```\n"
    )


def _gossip_section(n: int, trials: int, seed: int) -> str:
    rates = (0.0, 2.0)
    wave = _churn_grid("report-wave", "query", rates, n, trials, seed,
                       aggregate="AVG", horizon=250.0).by_point()
    gossip = _churn_grid("report-gossip", "gossip", rates, n, trials, seed,
                         mode="avg", rounds=50).by_point()
    rows = [
        [
            dict(point)["churn_rate"],
            sum(r.error if r.terminated else float("inf")
                for r in wave[point]) / trials,
            sum(r.error for r in gossip[point]) / trials,
        ]
        for point in wave
    ]
    table = render_table(
        ["churn_rate", "wave_rel_error", "gossip_rel_error"], rows
    )
    return (
        f"## Wave vs push-sum gossip, AVG aggregate (n={n})\n\n"
        "```\n" + table + "\n```\n"
    )


def build_report(n: int = 24, trials: int = 3, seed: int = 2007) -> str:
    """Run the battery and return the markdown report."""
    sections = [
        "# Dynamic distributed systems — experiment report\n",
        f"Configuration: n={n}, trials={trials}, root seed={seed}. "
        "All results are deterministic given the seed.\n",
        _matrix_section(),
        _churn_section(n, trials, seed),
        _gossip_section(n, trials, seed),
        "## Interpretation\n\n"
        "The matrix is the paper's landscape; the churn sweep realises its "
        "conditional entries (completeness decays as churn outruns the "
        "wave); the gossip comparison shows the exact-vs-graceful trade "
        "between protocol families.\n",
    ]
    return "\n".join(sections)
