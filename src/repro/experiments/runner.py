"""Execute declarative experiments and refine solvability boundaries.

:func:`run_experiment` lowers an :class:`ExperimentDef` to the engine plan
once and runs it through the ordinary executor stack — :func:`run_plan`
into a :class:`ResultStore`, or :func:`stream_plan` into append-only JSONL
when a stream path is given — then checks the experiment's ``expect``
rules against the per-point summaries.  Because the lowering is exactly
the ``build_plan`` call a Python experiment would make, the result
document is byte-identical to the Python twin's under every backend.  It
is also the one way the ``repro`` CLI runs trials: every trial-running
command lowers its flags to an :class:`ExperimentDef` first.

:func:`refine_experiment` implements the ``refine:`` block: after the base
grid, every pair of axis-adjacent cells whose verdicts disagree brackets a
solvability boundary; the bracket is bisected — re-running only midpoints,
under the same paired-seed fan-out — until it is narrower than ``min_gap``
or ``max_depth`` rounds have run.  The output is a
``repro-solvability-boundary`` v1 document, the refined counterpart of the
paper's uniform (arrival × geography) sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

# ``engine.run_plan`` / ``engine.stream_plan`` are looked up at call time,
# so a patch of ``repro.engine.executor`` reaches every run.
from repro.engine import executor as engine
from repro.engine.plan import ExperimentPlan
from repro.engine.results import ResultStore
from repro.experiments.schema import (
    BOUNDARY_SCHEMA,
    BOUNDARY_VERSION,
    ExpectSpec,
    ExperimentDef,
    RefineSpec,
)
from repro.sim.errors import ConfigurationError

__all__ = [
    "VerdictCheck",
    "ExperimentRun",
    "check_expectations",
    "run_experiment",
    "refine_experiment",
]


@dataclass(frozen=True)
class VerdictCheck:
    """One ``expect`` rule evaluated at one grid point."""

    point: tuple[tuple[str, Any], ...]
    metric: str
    op: str
    value: float
    observed: float
    passed: bool

    def __str__(self) -> str:
        point = ", ".join(f"{k}={v}" for k, v in self.point) or "(base)"
        status = "ok" if self.passed else "FAIL"
        return (
            f"[{status}] {point}: {self.metric}={self.observed:.6g} "
            f"{self.op} {self.value:g}"
        )


@dataclass(frozen=True)
class ExperimentRun:
    """The outcome of one :func:`run_experiment` call: the plan it ran
    and the results (read back from the stream when it streamed)."""

    experiment: ExperimentDef
    plan: ExperimentPlan
    store: ResultStore
    verdicts: tuple[VerdictCheck, ...]
    streamed: int | None = None
    stream_path: str | None = None

    @property
    def plan_digest(self) -> str:
        return self.plan.digest

    @property
    def passed(self) -> bool:
        """Every ``expect`` rule held (vacuously true with no rules)."""
        return all(check.passed for check in self.verdicts)

    @property
    def failures(self) -> tuple[VerdictCheck, ...]:
        return tuple(check for check in self.verdicts if not check.passed)


def _metric(summary: Mapping[str, Any], metric: str, where: str) -> float:
    try:
        return float(summary[metric])
    except KeyError:
        raise ConfigurationError(
            f"{where}: unknown summary metric {metric!r}; available: "
            f"{', '.join(sorted(summary))}"
        ) from None


def check_expectations(
    experiment: ExperimentDef,
    summaries: Sequence[tuple[Mapping[str, Any], Mapping[str, Any]]],
) -> tuple[VerdictCheck, ...]:
    """Evaluate every ``expect`` rule at every grid point it selects.

    ``summaries`` is ``[(point, summary), ...]`` in plan order.  A rule
    whose ``where`` clause selects no point at all is a configuration
    error — a silent vacuous pass would defeat the point of shipping
    expected verdicts with the experiment.
    """
    checks: list[VerdictCheck] = []
    for rule in experiment.expect:
        matched = False
        for point, summary in summaries:
            if not rule.matches(point):
                continue
            matched = True
            observed = _metric(
                summary, rule.metric, f"expect rule for {dict(point)!r}"
            )
            checks.append(VerdictCheck(
                point=tuple(sorted(point.items(), key=lambda kv: kv[0])),
                metric=rule.metric,
                op=rule.op,
                value=rule.value,
                observed=observed,
                passed=_holds(rule, observed),
            ))
        if not matched:
            raise ConfigurationError(
                f"expect rule {rule.to_dict()!r} matches no grid point"
            )
    return tuple(checks)


def _holds(rule: ExpectSpec, observed: float) -> bool:
    from repro.experiments.schema import evaluate_verdict

    return evaluate_verdict(observed, rule.op, rule.value)


def run_experiment(
    experiment: ExperimentDef,
    executor: Any = None,
    progress: Callable[..., None] | None = None,
    telemetry: Any = None,
    stream_path: str | None = None,
    checkpoint: Any = None,
    resume_from: Any = None,
) -> ExperimentRun:
    """Run a declarative experiment through the engine.

    ``executor`` overrides the experiment's own ``executor`` block (any
    form :func:`run_plan` accepts — preset name, :class:`ExecutorSpec` or
    executor instance); ``telemetry`` is a recorder or a JSONL path as in
    :func:`run_plan`.  With ``stream_path`` the trials stream to
    append-only JSONL via :func:`stream_plan` (no in-memory store while
    they run), and the run's store is read back from the stream.
    ``checkpoint`` / ``resume_from`` journal and resume trials exactly as
    in :func:`run_plan` — an interrupted experiment re-executes only the
    missing trials and its verdicts match an uninterrupted run's.
    """
    plan = experiment.to_plan()
    chosen = executor if executor is not None else experiment.executor
    streamed = None
    if stream_path is not None:
        streamed = engine.stream_plan(
            plan, stream_path, executor=chosen,
            progress=progress, telemetry=telemetry,
            checkpoint=checkpoint, resume_from=resume_from,
        )
        store = ResultStore.load(stream_path)
    else:
        store = engine.run_plan(
            plan, executor=chosen, progress=progress,
            telemetry=telemetry, checkpoint=checkpoint,
            resume_from=resume_from,
        )
    summaries = [
        (dict(point), summary) for point, summary in store.summary().items()
    ]
    return ExperimentRun(
        experiment=experiment,
        plan=plan,
        store=store,
        verdicts=check_expectations(experiment, summaries),
        streamed=streamed,
        stream_path=stream_path,
    )


# ----------------------------------------------------------------------
# Adaptive boundary refinement
# ----------------------------------------------------------------------


@dataclass
class _Bracket:
    """One open solvability bracket along the refine axis."""

    low: float
    high: float
    low_verdict: bool
    high_verdict: bool

    @property
    def gap(self) -> float:
        return self.high - self.low

    @property
    def midpoint(self) -> float:
        return (self.low + self.high) / 2.0

    def absorb(self, mid: float, verdict: bool) -> None:
        """Shrink towards the verdict flip after evaluating the midpoint."""
        if verdict == self.low_verdict:
            self.low, self.low_verdict = mid, verdict
        else:
            self.high, self.high_verdict = mid, verdict


def _context_key(
    point: Mapping[str, Any], axis: str
) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(
        ((k, v) for k, v in point.items() if k != axis),
        key=lambda kv: kv[0],
    ))


def refine_experiment(
    experiment: ExperimentDef,
    executor: Any = None,
    progress: Callable[..., None] | None = None,
    base_run: ExperimentRun | None = None,
) -> dict[str, Any]:
    """Bisect the solvability boundary named by the ``refine:`` block.

    Runs the base grid (or reuses the store of ``base_run``, an earlier
    :func:`run_experiment` of the same experiment), computes the verdict
    ``metric op threshold`` at every point, and then — per combination of
    the non-axis grid coordinates — bisects each axis-adjacent pair whose
    verdicts disagree.  Each refinement round batches every pending
    midpoint of every context into one sub-plan built by the *same*
    lowering as the base grid (same ``root_seed``/``trials``), so the
    refined cells keep the paired-seed discipline and remain individually
    reproducible.

    Returns a ``repro-solvability-boundary`` v1 document.
    """
    refine = experiment.refine
    if refine is None:
        raise ConfigurationError(
            f"experiment {experiment.name!r} has no 'refine' block"
        )
    chosen = executor if executor is not None else experiment.executor

    if base_run is not None:
        store = base_run.store
    else:
        store = engine.run_plan(
            experiment.to_plan(), executor=chosen, progress=progress,
        )

    # Verdicts over the base grid, grouped by context (= the other axes).
    contexts: dict[tuple[tuple[str, Any], ...], dict[float, float]] = {}
    for point, summary in store.summary().items():
        point_map = dict(point)
        observed = _metric(
            summary, refine.metric, f"refine at {point_map!r}"
        )
        key = _context_key(point_map, refine.axis)
        contexts.setdefault(key, {})[float(point_map[refine.axis])] = observed

    # Open a bracket wherever adjacent axis values disagree.
    brackets: dict[tuple[tuple[str, Any], ...], list[_Bracket]] = {}
    evaluations: dict[
        tuple[tuple[str, Any], ...], list[dict[str, Any]]
    ] = {}
    for key, observed_by_value in contexts.items():
        ordered = sorted(observed_by_value)
        evaluations[key] = [
            {
                "value": value,
                "observed": observed_by_value[value],
                "verdict": refine.verdict(observed_by_value[value]),
                "depth": 0,
            }
            for value in ordered
        ]
        open_brackets: list[_Bracket] = []
        for low, high in zip(ordered, ordered[1:]):
            low_v = refine.verdict(observed_by_value[low])
            high_v = refine.verdict(observed_by_value[high])
            if low_v != high_v:
                open_brackets.append(_Bracket(low, high, low_v, high_v))
        brackets[key] = open_brackets

    refined_trials = 0
    for depth in range(1, refine.max_depth + 1):
        # Midpoints still worth evaluating this round, per context.
        pending: dict[tuple[tuple[str, Any], ...], list[_Bracket]] = {
            key: [b for b in bs if b.gap > refine.min_gap]
            for key, bs in brackets.items()
        }
        pending = {key: bs for key, bs in pending.items() if bs}
        if not pending:
            break
        for key, open_brackets in pending.items():
            context = dict(key)
            midpoints = sorted(b.midpoint for b in open_brackets)
            # One sub-plan per context per round: grid order mirrors the
            # base experiment so the point layout stays canonical.
            sub_grid: dict[str, list[Any]] = {}
            for axis_name, _ in experiment.grid:
                if axis_name == refine.axis:
                    sub_grid[axis_name] = midpoints
                else:
                    sub_grid[axis_name] = [context[axis_name]]
            sub_store = engine.run_plan(
                experiment.to_plan(
                    grid=sub_grid,
                    name=f"{experiment.name}/refine-{depth}",
                ),
                executor=chosen, progress=progress,
            )
            refined_trials += len(sub_store.results)
            observed_by_mid: dict[float, float] = {}
            for point, summary in sub_store.summary().items():
                point_map = dict(point)
                observed_by_mid[float(point_map[refine.axis])] = _metric(
                    summary, refine.metric, f"refine at {point_map!r}"
                )
            for bracket in open_brackets:
                mid = bracket.midpoint
                observed = observed_by_mid[mid]
                verdict = refine.verdict(observed)
                evaluations[key].append({
                    "value": mid,
                    "observed": observed,
                    "verdict": verdict,
                    "depth": depth,
                })
                bracket.absorb(mid, verdict)

    context_docs = []
    for key in sorted(contexts, key=repr):
        entries = sorted(
            evaluations[key], key=lambda e: (e["value"], e["depth"])
        )
        context_docs.append({
            "context": dict(key),
            "brackets": [
                {
                    "low": b.low,
                    "high": b.high,
                    "low_verdict": b.low_verdict,
                    "high_verdict": b.high_verdict,
                    "gap": b.gap,
                    "converged": b.gap <= refine.min_gap,
                }
                for b in sorted(brackets[key], key=lambda b: b.low)
            ],
            "evaluations": entries,
        })

    return {
        "schema": BOUNDARY_SCHEMA,
        "version": BOUNDARY_VERSION,
        "experiment": experiment.name,
        "axis": refine.axis,
        "metric": refine.metric,
        "op": refine.op,
        "threshold": refine.threshold,
        "max_depth": refine.max_depth,
        "min_gap": refine.min_gap,
        "root_seed": experiment.root_seed,
        "trials_per_point": experiment.trials,
        "base_trials": len(store.results),
        "refined_trials": refined_trials,
        "contexts": context_docs,
    }
