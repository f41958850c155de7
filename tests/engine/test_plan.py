"""Tests for the ExperimentPlan layer (repro.engine.plan)."""

from __future__ import annotations

import pickle

import pytest

from repro.churn.models import PhasedChurn, ReplacementChurn
from repro.churn.spec import resolve_churn
from repro.engine.executor import run_plan
from repro.engine.plan import ChurnSpec, ExperimentPlan, TrialSpec, build_plan
from repro.engine.trials import KINDS, GossipConfig, QueryConfig
from repro.experiments.schema import EXPERIMENT_KINDS, ExperimentDef
from repro.sim.errors import ConfigurationError
from repro.sim.rng import iter_seeds


class TestBuildPlan:
    def test_grid_expansion_counts(self):
        plan = build_plan(
            "p", grid={"churn_rate": [0.0, 1.0, 2.0]}, base={"n": 8}, trials=4
        )
        assert len(plan) == 12
        assert plan.trials_per_point == 4
        assert [p["churn_rate"] for p in plan.points()] == [0.0, 1.0, 2.0]

    def test_cartesian_product_in_insertion_order(self):
        plan = build_plan(
            "p", grid={"n": [8, 16], "churn_rate": [0.0, 1.0]}, trials=1
        )
        assert [tuple(p.items()) for p in plan.points()] == [
            (("n", 8), ("churn_rate", 0.0)),
            (("n", 8), ("churn_rate", 1.0)),
            (("n", 16), ("churn_rate", 0.0)),
            (("n", 16), ("churn_rate", 1.0)),
        ]

    def test_indices_are_plan_order(self):
        plan = build_plan("p", grid={"churn_rate": [0.0, 1.0]}, trials=3)
        assert [spec.index for spec in plan.specs] == list(range(6))

    def test_seeds_shared_across_points(self):
        """Trial t uses the same seed at every grid point (paired trials)."""
        plan = build_plan("p", grid={"churn_rate": [0.0, 1.0, 2.0]}, trials=5)
        per_point = {}
        for spec in plan.specs:
            per_point.setdefault(spec.point, []).append(spec.seed)
        seed_lists = list(per_point.values())
        assert all(seeds == seed_lists[0] for seeds in seed_lists)

    def test_seeds_come_from_iter_seeds(self):
        plan = build_plan("p", trials=4, root_seed=99)
        assert [s.seed for s in plan.specs] == list(iter_seeds(99, 4))

    def test_explicit_seeds_override_fanout(self):
        plan = build_plan("p", seeds=[11, 22])
        assert [s.seed for s in plan.specs] == [11, 22]
        assert plan.trials_per_point == 2

    def test_no_grid_means_single_point(self):
        plan = build_plan("p", base={"n": 8}, trials=3)
        assert len(plan) == 3
        assert plan.points() == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            build_plan("p", grid={"churn_rate": []})

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            build_plan("p", trials=0)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigurationError):
            build_plan("p", seeds=[])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            build_plan("p", kind="teleport")

    def test_meta_records_plan_header(self):
        plan = build_plan("demo", grid={"churn_rate": [0.0, 1.0]},
                          trials=2, root_seed=42)
        assert plan.meta() == {
            "name": "demo",
            "root_seed": 42,
            "trials_per_point": 2,
            "n_trials": 4,
        }

    def test_plan_is_picklable(self):
        plan = build_plan(
            "p", grid={"churn_rate": [1.0]},
            base={"n": 8, "churn": ChurnSpec(kind="phased", rate=4.0)},
            trials=2,
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan


class TestTrialSpecToConfig:
    def test_query_config_materialises(self):
        spec = build_plan(
            "p", kind="query", base={"n": 12, "aggregate": "SUM"}, seeds=[5]
        ).specs[0]
        config = spec.to_config()
        assert isinstance(config, QueryConfig)
        assert config.n == 12 and config.seed == 5 and config.aggregate == "SUM"

    def test_churn_rate_becomes_replacement_churn(self):
        spec = build_plan(
            "p", grid={"churn_rate": [2.5]}, base={"n": 8}, seeds=[0]
        ).specs[0]
        config = spec.to_config()
        # The config keeps the declarative (picklable) spec; the builder
        # closure is only materialised inside the worker.
        assert config.churn == ChurnSpec(kind="replacement", rate=2.5)
        churn = resolve_churn(config.churn)(lambda: None)
        assert isinstance(churn, ReplacementChurn)
        assert churn.rate == 2.5

    def test_zero_churn_rate_means_no_churn(self):
        spec = build_plan(
            "p", grid={"churn_rate": [0.0]}, base={"n": 8}, seeds=[0]
        ).specs[0]
        assert spec.to_config().churn is None

    def test_churn_spec_builder_used(self):
        spec = build_plan(
            "p",
            base={"n": 8, "churn": ChurnSpec(kind="phased", rate=6.0)},
            seeds=[0],
        ).specs[0]
        churn = resolve_churn(spec.to_config().churn)(lambda: None)
        assert isinstance(churn, PhasedChurn)

    def test_churn_and_churn_rate_conflict(self):
        spec = build_plan(
            "p",
            grid={"churn_rate": [1.0]},
            base={"n": 8, "churn": ChurnSpec()},
            seeds=[0],
        ).specs[0]
        with pytest.raises(ConfigurationError):
            spec.to_config()

    def test_churn_must_be_a_spec(self):
        spec = build_plan(
            "p", base={"n": 8, "churn": "lots"}, seeds=[0]
        ).specs[0]
        with pytest.raises(ConfigurationError, match="ChurnSpec"):
            spec.to_config()

    def test_value_of_resolved_by_name(self):
        spec = build_plan(
            "p", base={"n": 8, "value_of": "unit"}, seeds=[0]
        ).specs[0]
        assert spec.to_config().value_of(17) == 1.0

    def test_unknown_value_function_rejected(self):
        spec = build_plan(
            "p", base={"n": 8, "value_of": "fibonacci"}, seeds=[0]
        ).specs[0]
        with pytest.raises(ConfigurationError, match="value function"):
            spec.to_config()

    def test_unknown_config_field_rejected(self):
        spec = build_plan(
            "p", base={"n": 8, "warp_factor": 9}, seeds=[0]
        ).specs[0]
        with pytest.raises(ConfigurationError, match="warp_factor"):
            spec.to_config()

    def test_unknown_kind_rejected_at_config_time(self):
        spec = TrialSpec(kind="teleport", index=0, trial=0, seed=0)
        with pytest.raises(ConfigurationError):
            spec.to_config()

    def test_gossip_kind(self):
        spec = build_plan(
            "p", kind="gossip", base={"n": 8, "mode": "avg"}, seeds=[0]
        ).specs[0]
        assert isinstance(spec.to_config(), GossipConfig)

    def test_labels_feed_reporting_not_config(self):
        spec = TrialSpec(
            kind="query", index=0, trial=0, seed=0,
            labels=(("family", "ring"),), overrides=(("n", 8),),
        )
        assert spec.point_dict() == {"family": "ring"}
        config = spec.to_config()
        assert not hasattr(config, "family")


class TestKindRegistry:
    """``KINDS`` is the one list of trial kinds: plans, the executor and
    the experiment schema all read it."""

    def test_experiment_kinds_are_the_registry_in_order(self):
        assert EXPERIMENT_KINDS == tuple(KINDS)
        assert EXPERIMENT_KINDS == ("query", "gossip", "dissemination")

    @pytest.mark.parametrize("reject", [
        lambda: build_plan("p", kind="teleport"),
        lambda: TrialSpec(kind="teleport", index=0, trial=0, seed=0).to_config(),
        lambda: ExperimentDef(name="e", kind="teleport"),
    ], ids=["build_plan", "to_config", "experiment"])
    def test_unknown_kind_names_every_kind(self, reject):
        with pytest.raises(ConfigurationError, match="teleport") as info:
            reject()
        for kind in KINDS:
            assert kind in str(info.value)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_each_kind_runs_as_registered(self, kind):
        config_type, runner = KINDS[kind]
        spec = build_plan("p", kind=kind, base={"n": 6}, seeds=[3]).specs[0]
        config = spec.to_config()
        assert type(config) is config_type
        record = run_plan(build_plan(
            "p", kind=kind, base={"n": 6}, seeds=[3]
        )).results[0]
        assert record.messages == runner(config).messages


class TestChurnSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnSpec(kind="meteor").builder()

    @pytest.mark.parametrize(
        "kind", ["replacement", "arrival-departure", "finite", "phased"]
    )
    def test_all_kinds_build(self, kind):
        churn = ChurnSpec(kind=kind, rate=1.0).builder()(lambda: None)
        assert churn is not None

    def test_spec_is_picklable_and_hashable(self):
        spec = ChurnSpec(kind="finite", rate=2.0, total_arrivals=10)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(ChurnSpec(kind="finite", rate=2.0,
                                            total_arrivals=10))


def _grid_plan(rates, trials=2):
    return build_plan(
        "determinism", kind="query", grid={"churn_rate": rates},
        base={"n": 10, "topology": "er", "aggregate": "COUNT", "horizon": 150.0},
        trials=trials, root_seed=77,
    )


class TestSeedStability:
    """Trial seeds depend only on ``(root_seed, trial index)``: growing the
    sweep grid never perturbs the seeds, or the results, of the grid
    points that were already there."""

    def test_seeds_unchanged_when_grid_grows(self):
        def seeds(plan):
            return {(s.point, s.trial): s.seed for s in plan.specs}

        small, grown = seeds(_grid_plan([0.0, 2.0])), seeds(_grid_plan([0.0, 2.0, 8.0]))
        assert {key: grown[key] for key in small} == small

    def test_results_unchanged_when_grid_grows(self):
        """Indices shift; the physics does not."""
        def records(rates):
            return {
                (r.point, r.trial): {k: v for k, v in r.to_record().items() if k != "index"}
                for r in run_plan(_grid_plan(rates)).results
            }

        small, grown = records([0.0, 2.0]), records([0.0, 2.0, 8.0])
        assert {key: grown[key] for key in small} == small

    def test_trials_extension_preserves_seed_prefix(self):
        short = [s.seed for s in _grid_plan([0.0], trials=3).specs]
        assert [s.seed for s in _grid_plan([0.0], trials=6).specs][:3] == short
