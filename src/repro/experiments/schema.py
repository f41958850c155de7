"""The ``repro-experiment`` v1 wire schema.

An experiment is *data*: grid axes, trial kind, seed discipline, fault /
resilience / churn specs, execution policy, expected verdicts and an
optional adaptive-refinement block — everything the Python experiment
modules under ``benchmarks/`` spell out in code, as one frozen,
canonicalised object.  :class:`ExperimentDef` is that object;
:mod:`repro.experiments.loader` reads and writes it as YAML, and
:meth:`ExperimentDef.to_plan` lowers it to the existing engine
:class:`~repro.engine.plan.ExperimentPlan` — **byte-identical** to the plan
the equivalent ``build_plan`` call produces, so a YAML experiment and its
Python twin generate the same canonical result document under every
executor backend (``tests/experiments/test_differential.py`` pins this).

Canonical form: grid axes and their values keep declaration order (the
cartesian product, and therefore the plan's trial order, depends on it);
``base`` is sorted by key (mirroring ``build_plan``); nested specs
(:class:`~repro.churn.spec.ChurnSpec`, :class:`~repro.faults.spec.FaultPlan`,
:class:`~repro.resilience.spec.ResilienceSpec`,
:class:`~repro.engine.spec.ExecutorSpec`) canonicalise through their own
wire formats; defaults are omitted.  ``load → dump → load`` is the
identity (``tests/property/test_stats_properties.py`` pins this).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro import wire
from repro.churn.spec import ChurnSpec
# Looked up at call time, so a patch of ``repro.engine.plan.build_plan``
# reaches every lowering.
from repro.engine import plan as engine_plan
from repro.engine.spec import ExecutorSpec
from repro.engine.trials import KINDS
from repro.faults.spec import FaultPlan
from repro.resilience.spec import ResilienceSpec
from repro.sim.errors import ConfigurationError

#: Wire schema identifier and version for YAML experiment documents.
EXPERIMENT_SCHEMA = "repro-experiment"
EXPERIMENT_VERSION = 1

#: Wire schema identifier for refined solvability-boundary documents.
BOUNDARY_SCHEMA = "repro-solvability-boundary"
BOUNDARY_VERSION = 1

#: Trial kinds an experiment may declare: the engine's kind registry.
EXPERIMENT_KINDS = tuple(KINDS)

#: Comparison operators allowed in ``expect``/``refine`` verdict rules.
VERDICT_OPS: dict[str, Any] = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Scalar types allowed in grid values, base values and ``where`` clauses.
_SCALARS = (str, int, float, bool, type(None))


def _require_scalar(value: Any, where: str) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, (str, int, float)):
        return value
    raise ConfigurationError(
        f"{where} must be a scalar (string, number, bool or null), "
        f"got {type(value).__name__}"
    )


def evaluate_verdict(observed: float, op: str, threshold: float) -> bool:
    """Apply one verdict rule (``observed <op> threshold``)."""
    try:
        compare = VERDICT_OPS[op]
    except KeyError:
        raise ConfigurationError(
            f"unknown verdict operator {op!r}; use "
            f"{', '.join(VERDICT_OPS)}"
        ) from None
    return bool(compare(observed, threshold))


@dataclass(frozen=True)
class ExpectSpec:
    """One expected verdict: a point selector, a metric and a rule.

    ``where`` is a subset match on the grid point — an expectation applies
    to every point whose coordinates include all ``where`` items, and it
    is a schema error at load time if no grid point can ever match.
    """

    metric: str
    op: str
    value: float
    where: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.metric:
            raise ConfigurationError("expect rule needs a 'metric'")
        if self.op not in VERDICT_OPS:
            raise ConfigurationError(
                f"unknown verdict operator {self.op!r}; use "
                f"{', '.join(VERDICT_OPS)}"
            )

    def matches(self, point: Mapping[str, Any]) -> bool:
        return all(point.get(key) == value for key, value in self.where)

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {}
        if self.where:
            record["where"] = dict(self.where)
        record["metric"] = self.metric
        record["op"] = self.op
        record["value"] = self.value
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "ExpectSpec":
        record = wire.mapping(record, "each expect rule")
        wire.reject_unknown(record, wire.field_defaults(cls), "expect rule")
        where = record.get("where", {})
        if not isinstance(where, Mapping):
            raise ConfigurationError("expect 'where' must be a mapping")
        for key, value in where.items():
            _require_scalar(value, f"expect where[{key!r}]")
        try:
            value = float(record["value"])
            metric = str(record["metric"])
            op = str(record.get("op", ">="))
        except KeyError as error:
            raise ConfigurationError(
                f"expect rule is missing {error.args[0]!r}"
            ) from None
        return cls(
            metric=metric, op=op, value=value,
            where=tuple(sorted(where.items(), key=lambda kv: kv[0])),
        )


@dataclass(frozen=True)
class RefineSpec:
    """The adaptive-sweep block: where to look harder.

    A uniform grid wastes trials where the verdict is settled and blurs
    the solvability boundary where it is not.  The refine block names one
    numeric grid ``axis`` and a verdict rule (``metric op threshold``);
    after the base grid runs, every pair of axis-adjacent cells whose
    verdicts *disagree* is bisected — re-running only the midpoint, with
    the same seed fan-out — until the bracket is narrower than ``min_gap``
    or ``max_depth`` rounds have run.  The output is a
    ``repro-solvability-boundary`` document bracketing where the verdict
    flips (per combination of the remaining axes).
    """

    axis: str
    metric: str = "completeness"
    op: str = ">="
    threshold: float = 1.0
    max_depth: int = 4
    min_gap: float = 1e-3

    def __post_init__(self) -> None:
        if not self.axis:
            raise ConfigurationError("refine block needs an 'axis'")
        if self.op not in VERDICT_OPS:
            raise ConfigurationError(
                f"unknown verdict operator {self.op!r}; use "
                f"{', '.join(VERDICT_OPS)}"
            )
        if self.max_depth < 1:
            raise ConfigurationError(
                f"refine max_depth must be >= 1, got {self.max_depth}"
            )
        if self.min_gap <= 0:
            raise ConfigurationError(
                f"refine min_gap must be > 0, got {self.min_gap}"
            )

    def verdict(self, observed: float) -> bool:
        return evaluate_verdict(observed, self.op, self.threshold)

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {"axis": self.axis, "metric": self.metric}
        if self.op != ">=":
            record["op"] = self.op
        record["threshold"] = self.threshold
        if self.max_depth != 4:
            record["max_depth"] = self.max_depth
        if self.min_gap != 1e-3:
            record["min_gap"] = self.min_gap
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "RefineSpec":
        params = wire.mapping(record, "'refine'")
        wire.reject_unknown(params, wire.field_defaults(cls), "refine")
        if "axis" not in params:
            raise ConfigurationError("refine block needs an 'axis'")
        return cls(
            axis=str(params["axis"]),
            metric=str(params.get("metric", "completeness")),
            op=str(params.get("op", ">=")),
            threshold=float(params.get("threshold", 1.0)),
            max_depth=int(params.get("max_depth", 4)),
            min_gap=float(params.get("min_gap", 1e-3)),
        )


@dataclass(frozen=True)
class ExperimentDef:
    """One complete declarative experiment (``repro-experiment`` v1).

    The canonical, frozen form every loader path normalises to.  ``grid``
    preserves axis and value declaration order; ``base`` is stored sorted
    by key; nested specs are real spec objects (their own wire formats
    guarantee lossless round-trips).  ``seeds`` pins the trial seeds
    explicitly and excludes ``trials``; otherwise trial ``t`` of every
    grid point draws the ``t``-th seed from
    :func:`repro.sim.rng.iter_seeds(root_seed, trials)` — the engine's
    paired-seed discipline.
    """

    name: str
    kind: str = "query"
    description: str = ""
    grid: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    base: tuple[tuple[str, Any], ...] = ()
    trials: int = 5
    root_seed: int = 2007
    seeds: tuple[int, ...] | None = None
    churn: ChurnSpec | None = None
    faults: FaultPlan | str | None = None
    resilience: ResilienceSpec | str | None = None
    executor: ExecutorSpec | str | None = None
    check_invariants: bool = False
    expect: tuple[ExpectSpec, ...] = ()
    refine: RefineSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("experiment needs a 'name'")
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigurationError(
                f"unknown experiment kind {self.kind!r}; use "
                f"{', '.join(EXPERIMENT_KINDS)}"
            )
        if self.seeds is not None and not self.seeds:
            raise ConfigurationError("'seeds' must not be empty when given")
        if self.seeds is None and self.trials < 1:
            raise ConfigurationError(
                f"trials must be >= 1, got {self.trials}"
            )
        grid_keys = [key for key, _ in self.grid]
        if len(grid_keys) != len(set(grid_keys)):
            raise ConfigurationError("grid axes must be distinct")
        for key, values in self.grid:
            if not values:
                raise ConfigurationError(f"grid axis {key!r} has no values")
        base_keys = {key for key, _ in self.base}
        overlap = sorted(base_keys & set(grid_keys))
        if overlap:
            raise ConfigurationError(
                f"field(s) {overlap} appear in both 'grid' and 'base'"
            )
        for reserved in ("churn", "faults", "resilience", "check_invariants",
                         "seed"):
            if reserved in base_keys:
                raise ConfigurationError(
                    f"'{reserved}' has its own top-level block; do not put "
                    "it in 'base'"
                )
        for rule in self.expect:
            for key, _ in rule.where:
                if key not in grid_keys:
                    raise ConfigurationError(
                        f"expect where[{key!r}] is not a grid axis; axes: "
                        f"{', '.join(grid_keys) or '(none)'}"
                    )
        if self.refine is not None:
            if self.refine.axis not in grid_keys:
                raise ConfigurationError(
                    f"refine axis {self.refine.axis!r} is not a grid axis; "
                    f"axes: {', '.join(grid_keys) or '(none)'}"
                )
            axis_values = dict(self.grid)[self.refine.axis]
            if len(axis_values) < 2:
                raise ConfigurationError(
                    f"refine axis {self.refine.axis!r} needs at least two "
                    "grid values to bracket a boundary"
                )
            for value in axis_values:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigurationError(
                        f"refine axis {self.refine.axis!r} must be numeric "
                        f"to bisect; got {value!r}"
                    )
        # Fail at definition time, not inside a pool worker.
        FaultPlan.resolve(self.faults)
        ResilienceSpec.resolve(self.resilience)
        ExecutorSpec.resolve(self.executor)

    # ------------------------------------------------------------------
    # Lowering to the engine plan
    # ------------------------------------------------------------------

    def plan_base(self) -> dict[str, Any]:
        """The ``base=`` mapping the equivalent ``build_plan`` call takes."""
        base: dict[str, Any] = dict(self.base)
        if self.churn is not None:
            base["churn"] = self.churn
        if self.faults is not None:
            base["faults"] = self.faults
        if self.resilience is not None:
            base["resilience"] = self.resilience
        if self.check_invariants:
            base["check_invariants"] = True
        return base

    def plan_grid(self) -> dict[str, list[Any]]:
        """The ``grid=`` mapping, axis declaration order preserved."""
        return {key: list(values) for key, values in self.grid}

    def to_plan(
        self,
        grid: Mapping[str, Any] | None = None,
        name: str | None = None,
        extra_base: Mapping[str, Any] | None = None,
    ) -> engine_plan.ExperimentPlan:
        """Lower to the engine :class:`ExperimentPlan`.

        With no arguments this is exactly the ``build_plan`` call the
        equivalent Python experiment makes — same name, grid, base, seed
        fan-out — so the resulting specs (and therefore the result
        documents) are identical.  ``grid``/``name``/``extra_base``
        support the refinement loop, which re-plans sub-grids under the
        same seed discipline.
        """
        base = self.plan_base()
        if extra_base:
            base.update(extra_base)
        return engine_plan.build_plan(
            name if name is not None else self.name,
            kind=self.kind,
            grid=dict(grid) if grid is not None else self.plan_grid(),
            base=base,
            trials=self.trials,
            root_seed=self.root_seed,
            seeds=self.seeds,
        )

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The canonical plain-data form (what the YAML dump writes).

        Keys appear in a fixed order and defaults are omitted, so two
        definitions are equivalent iff their dicts (and dumps) are equal.
        """
        record: dict[str, Any] = {
            "schema": EXPERIMENT_SCHEMA,
            "version": EXPERIMENT_VERSION,
            "name": self.name,
        }
        if self.description:
            record["description"] = self.description
        record["kind"] = self.kind
        if self.grid:
            record["grid"] = {key: list(values) for key, values in self.grid}
        if self.base:
            record["base"] = dict(self.base)
        if self.seeds is not None:
            record["seeds"] = list(self.seeds)
        else:
            record["trials"] = self.trials
        record["root_seed"] = self.root_seed
        if self.churn is not None:
            record["churn"] = {"kind": self.churn.kind} | {
                name: getattr(self.churn, name)
                for name, default in wire.field_defaults(ChurnSpec).items()
                if getattr(self.churn, name) != default
            }
        if self.faults is not None:
            record["faults"] = (
                self.faults if isinstance(self.faults, str)
                else self.faults.to_dict()
            )
        if self.resilience is not None:
            record["resilience"] = (
                self.resilience if isinstance(self.resilience, str)
                else self.resilience.to_dict()
            )
        if self.executor is not None:
            record["executor"] = (
                self.executor if isinstance(self.executor, str)
                else self.executor.to_dict()
            )
        if self.check_invariants:
            record["check_invariants"] = True
        if self.expect:
            record["expect"] = [rule.to_dict() for rule in self.expect]
        if self.refine is not None:
            record["refine"] = self.refine.to_dict()
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "ExperimentDef":
        """Validate and canonicalise a plain-data experiment document."""
        record = wire.mapping(record, "experiment document")
        wire.check_header(record, EXPERIMENT_SCHEMA, EXPERIMENT_VERSION,
                          "experiment schema")
        wire.reject_unknown(record, wire.field_defaults(cls), "experiment")
        with wire.malformed("experiment"):
            return cls._from_fields(record)

    @classmethod
    def _from_fields(cls, record: dict[str, Any]) -> "ExperimentDef":
        if "name" not in record:
            raise ConfigurationError("experiment needs a 'name'")
        if "trials" in record and "seeds" in record:
            raise ConfigurationError(
                "give either 'trials' (seed fan-out from root_seed) or an "
                "explicit 'seeds' list, not both"
            )

        grid_in = record.get("grid", {})
        if not isinstance(grid_in, Mapping):
            raise ConfigurationError("'grid' must be a mapping of axes")
        grid: list[tuple[str, tuple[Any, ...]]] = []
        for key, values in grid_in.items():
            if not isinstance(values, (list, tuple)):
                raise ConfigurationError(
                    f"grid axis {key!r} must be a list of values"
                )
            grid.append((
                str(key),
                tuple(_require_scalar(v, f"grid[{key!r}]") for v in values),
            ))

        base_in = record.get("base", {})
        if not isinstance(base_in, Mapping):
            raise ConfigurationError("'base' must be a mapping")
        base = tuple(sorted(
            ((str(key), _require_scalar(value, f"base[{key!r}]"))
             for key, value in base_in.items()),
            key=lambda kv: kv[0],
        ))

        seeds_in = record.get("seeds")
        seeds = None
        if seeds_in is not None:
            if not isinstance(seeds_in, (list, tuple)):
                raise ConfigurationError("'seeds' must be a list of integers")
            seeds = tuple(int(seed) for seed in seeds_in)

        churn_in = record.get("churn")
        churn = None
        if churn_in is not None:
            churn_in = wire.mapping(churn_in, "churn spec")
            wire.reject_unknown(churn_in, wire.field_defaults(ChurnSpec),
                                "churn spec")
            churn = ChurnSpec(**churn_in)
        # A preset name stays a name (it dumps as one); an inline mapping is
        # a spec record.  __post_init__ resolves both and refuses the rest.
        specs = {
            key: family.from_dict(record[key])
            if isinstance(record.get(key), Mapping) else record.get(key)
            for key, family in (("faults", FaultPlan),
                                ("resilience", ResilienceSpec),
                                ("executor", ExecutorSpec))
        }

        expect_in = record.get("expect", [])
        if not isinstance(expect_in, (list, tuple)):
            raise ConfigurationError("'expect' must be a list of rules")
        refine_in = record.get("refine")

        trials = record.get("trials", 5)
        return cls(
            name=str(record["name"]),
            kind=str(record.get("kind", "query")),
            description=str(record.get("description", "")),
            grid=tuple(grid),
            base=base,
            trials=len(seeds) if seeds is not None else int(trials),
            root_seed=int(record.get("root_seed", 2007)),
            seeds=seeds,
            churn=churn,
            **specs,
            check_invariants=bool(record.get("check_invariants", False)),
            expect=tuple(ExpectSpec.from_dict(rule) for rule in expect_in),
            refine=(RefineSpec.from_dict(refine_in)
                    if refine_in is not None else None),
        )

    def points(self) -> list[dict[str, Any]]:
        """The grid points this experiment sweeps, in plan order."""
        if not self.grid:
            return [{}]
        keys = [key for key, _ in self.grid]
        return [
            dict(zip(keys, combo))
            for combo in itertools.product(*[values for _, values in self.grid])
        ]
