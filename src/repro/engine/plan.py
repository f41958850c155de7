"""The ExperimentPlan layer: declarative, picklable trial specifications.

A plan turns "sweep this grid with that base config, N trials per point"
into an immutable list of :class:`TrialSpec`s.  Specs are plain data — no
lambdas, no simulator objects — so they cross process boundaries intact,
which is what lets :class:`~repro.engine.executor.ParallelExecutor` fan
trials out over worker processes.

Seed discipline (the contract every consumer relies on):

* trial ``t`` of **every** grid point uses the ``t``-th seed from
  :func:`repro.sim.rng.iter_seeds(root_seed, trials)` — common randomness
  across parameters, so parameter effects pair naturally;
* seeds depend only on ``(root_seed, trial index)``, never on the grid —
  growing the grid (new rates, new sizes) never perturbs the seeds, and
  therefore the results, of the points that were already there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.churn.spec import ChurnBuilder, ChurnSpec
from repro.faults.spec import FaultPlan
from repro.resilience.spec import ResilienceSpec
from repro.engine.trials import (
    DisseminationConfig,
    GossipConfig,
    QueryConfig,
)
from repro.sim.errors import ConfigurationError
from repro.sim.rng import iter_seeds
from repro.wire import field_defaults, reject_unknown


def _unit_value(index: int) -> float:
    """Every entity carries the value 1.0 (COUNT-style workloads)."""
    return 1.0


#: Named value functions, so specs can select one by (picklable) name.
VALUE_FUNCTIONS: dict[str, Callable[[int], float]] = {
    "index": float,
    "unit": _unit_value,
}


_CONFIG_TYPES = {
    "query": QueryConfig,
    "gossip": GossipConfig,
    "dissemination": DisseminationConfig,
}

#: Spec keys that are translated rather than passed to the config verbatim.
_SPECIAL_KEYS = ("churn_rate", "churn", "value_of", "faults", "resilience")


@dataclass(frozen=True)
class TrialSpec:
    """One trial: a kind, a seed, and declarative config parameters.

    Attributes:
        kind: ``"query"``, ``"gossip"`` or ``"dissemination"``.
        index: position in the plan (results are reported in this order).
        trial: trial number within the grid point (selects the seed).
        seed: the root seed handed to the simulator.
        point: the grid coordinates, e.g. ``(("churn_rate", 2.0),)`` —
            these feed the config *and* label the result.
        labels: extra reporting-only coordinates that do **not** feed the
            config (e.g. a topology family name when the topology itself is
            prebuilt and passed via ``overrides``).
        overrides: base config parameters shared by the whole plan.
    """

    kind: str
    index: int
    trial: int
    seed: int
    point: tuple[tuple[str, Any], ...] = ()
    labels: tuple[tuple[str, Any], ...] = ()
    overrides: tuple[tuple[str, Any], ...] = ()

    def point_dict(self) -> dict[str, Any]:
        """Grid coordinates plus labels, for reporting."""
        merged = dict(self.point)
        merged.update(dict(self.labels))
        return merged

    def to_config(self) -> QueryConfig | GossipConfig | DisseminationConfig:
        """Materialise the (possibly unpicklable) config for execution."""
        try:
            config_type = _CONFIG_TYPES[self.kind]
        except KeyError:
            raise ConfigurationError(
                f"unknown trial kind {self.kind!r}; use "
                f"{', '.join(sorted(_CONFIG_TYPES))}"
            ) from None
        params: dict[str, Any] = dict(self.overrides)
        params.update(dict(self.point))
        params["seed"] = self.seed

        churn_spec = params.pop("churn", None)
        churn_rate = params.pop("churn_rate", None)
        if churn_spec is not None and churn_rate is not None:
            raise ConfigurationError("give either 'churn' or 'churn_rate', not both")
        if churn_rate is not None and churn_rate > 0:
            churn_spec = ChurnSpec(kind="replacement", rate=churn_rate)
        if churn_spec is not None:
            if not isinstance(churn_spec, ChurnSpec):
                raise ConfigurationError(
                    f"'churn' must be a ChurnSpec, got {type(churn_spec).__name__}"
                )
            # Configs accept the spec directly; the builder closure is only
            # materialised inside the worker (resolve_churn), keeping the
            # spec picklable end to end.
            params["churn"] = churn_spec

        # Preset names stay strings in the spec (picklable, and they label
        # grid points readably); the kernel materialises them here, inside
        # the worker, and turns an "off" plan or spec into None — exactly
        # what configuring none configures (byte-identical documents).
        if "faults" in params:
            params["faults"] = FaultPlan.resolve(params["faults"])
        if "resilience" in params:
            params["resilience"] = ResilienceSpec.resolve(params["resilience"])

        trace_path = params.get("trace_path")
        if isinstance(trace_path, str) and "{" in trace_path:
            params["trace_path"] = trace_path.format(
                index=self.index, seed=self.seed, trial=self.trial
            )

        value_name = params.pop("value_of", None)
        if value_name is not None:
            try:
                params["value_of"] = VALUE_FUNCTIONS[value_name]
            except KeyError:
                raise ConfigurationError(
                    f"unknown value function {value_name!r}; known: "
                    f"{', '.join(sorted(VALUE_FUNCTIONS))}"
                ) from None

        reject_unknown(params, field_defaults(config_type), f"{self.kind} config")
        return config_type(**params)


@dataclass(frozen=True)
class ExperimentPlan:
    """An immutable, fully expanded list of trial specs."""

    name: str
    root_seed: int
    trials_per_point: int
    specs: tuple[TrialSpec, ...]

    def __len__(self) -> int:
        return len(self.specs)

    def points(self) -> list[dict[str, Any]]:
        """The distinct grid points, in plan order."""
        seen: list[dict[str, Any]] = []
        for spec in self.specs:
            point = spec.point_dict()
            if point not in seen:
                seen.append(point)
        return seen

    def meta(self) -> dict[str, Any]:
        """Plan header for the result document."""
        return {
            "name": self.name,
            "root_seed": self.root_seed,
            "trials_per_point": self.trials_per_point,
            "n_trials": len(self.specs),
        }


def build_plan(
    name: str,
    *,
    kind: str = "query",
    grid: Mapping[str, Sequence[Any]] | None = None,
    base: Mapping[str, Any] | None = None,
    trials: int = 5,
    root_seed: int = 2007,
    seeds: Sequence[int] | None = None,
) -> ExperimentPlan:
    """Expand ``grid`` x ``trials`` into an :class:`ExperimentPlan`.

    ``grid`` maps config field names to the values to sweep (the cartesian
    product is taken in insertion order); ``base`` holds the parameters
    shared by every trial.  Seeds are fanned out with
    :func:`repro.sim.rng.iter_seeds` and shared across grid points (paired
    comparisons); pass ``seeds`` to pin them explicitly instead.
    """
    if kind not in _CONFIG_TYPES:
        raise ConfigurationError(
            f"unknown trial kind {kind!r}; use {', '.join(sorted(_CONFIG_TYPES))}"
        )
    if seeds is None:
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        seed_list = list(iter_seeds(root_seed, trials))
    else:
        seed_list = list(seeds)
        if not seed_list:
            raise ConfigurationError("explicit seed list must not be empty")
    overrides = tuple(sorted((base or {}).items(), key=lambda kv: kv[0]))
    axes = [(key, list(values)) for key, values in (grid or {}).items()]
    for key, values in axes:
        if not values:
            raise ConfigurationError(f"grid axis {key!r} has no values")
    if axes:
        keys = [key for key, _ in axes]
        combos = itertools.product(*[values for _, values in axes])
        points = [tuple(zip(keys, combo)) for combo in combos]
    else:
        points = [()]
    specs: list[TrialSpec] = []
    index = 0
    for point in points:
        for trial_number, seed in enumerate(seed_list):
            specs.append(TrialSpec(
                kind=kind,
                index=index,
                trial=trial_number,
                seed=seed,
                point=point,
                overrides=overrides,
            ))
            index += 1
    return ExperimentPlan(
        name=name,
        root_seed=root_seed,
        trials_per_point=len(seed_list),
        specs=tuple(specs),
    )
