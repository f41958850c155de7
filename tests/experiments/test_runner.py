"""Runner behaviour: expectation checks, streaming, boundary refinement."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    loads_experiment,
    refine_experiment,
    run_experiment,
)
from repro.sim.errors import ConfigurationError

FAST = """
name: fast
kind: query
grid:
  churn_rate: [0.0, 4.0]
base:
  n: 8
  horizon: 60.0
trials: 2
root_seed: 2007
"""


def with_blocks(extra: str) -> str:
    return FAST + extra


class TestExpectations:
    def test_no_rules_passes_vacuously(self):
        run = run_experiment(loads_experiment(FAST))
        assert run.passed
        assert run.verdicts == ()

    def test_holding_rule_passes(self):
        run = run_experiment(loads_experiment(with_blocks(
            "expect:\n"
            "  - {where: {churn_rate: 0.0}, metric: completeness,"
            " op: '>=', value: 1.0}\n"
        )))
        assert run.passed
        assert len(run.verdicts) == 1
        assert run.verdicts[0].observed == 1.0

    def test_violated_rule_fails_and_names_the_point(self):
        run = run_experiment(loads_experiment(with_blocks(
            "expect:\n"
            "  - {where: {churn_rate: 4.0}, metric: completeness,"
            " op: '>=', value: 1.0}\n"
        )))
        assert not run.passed
        (failure,) = run.failures
        assert failure.point == (("churn_rate", 4.0),)
        assert "FAIL" in str(failure)

    def test_whereless_rule_applies_to_every_point(self):
        run = run_experiment(loads_experiment(with_blocks(
            "expect:\n"
            "  - {metric: trials, op: '==', value: 2}\n"
        )))
        assert run.passed
        assert len(run.verdicts) == 2

    def test_unknown_metric_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown summary"):
            run_experiment(loads_experiment(with_blocks(
                "expect:\n"
                "  - {metric: bogus_metric, op: '>=', value: 1.0}\n"
            )))

    def test_rule_matching_no_point_is_a_configuration_error(self):
        # 0.5 is a valid scalar but not a grid value of churn_rate.
        with pytest.raises(ConfigurationError, match="matches no grid"):
            run_experiment(loads_experiment(with_blocks(
                "expect:\n"
                "  - {where: {churn_rate: 0.5}, metric: ok,"
                " op: '>=', value: 0.0}\n"
            )))


class TestStreaming:
    def test_stream_path_checks_the_same_expectations(self, tmp_path):
        text = with_blocks(
            "expect:\n"
            "  - {where: {churn_rate: 0.0}, metric: completeness,"
            " op: '>=', value: 1.0}\n"
        )
        stream = tmp_path / "out.jsonl"
        run = run_experiment(loads_experiment(text), stream_path=str(stream))
        in_memory = run_experiment(loads_experiment(text))
        # The store is read back from the stream: the same document.
        assert run.store.to_json() == in_memory.store.to_json()
        assert run.streamed == 4
        assert stream.exists()
        assert run.verdicts == in_memory.verdicts
        assert run.plan_digest == in_memory.plan_digest


class TestRefinement:
    def refine_text(self, max_depth: int = 3) -> str:
        return with_blocks(
            "refine:\n"
            "  axis: churn_rate\n"
            "  metric: fully_complete\n"
            "  op: '>='\n"
            "  threshold: 1.0\n"
            f"  max_depth: {max_depth}\n"
            "  min_gap: 0.5\n"
        )

    def test_refining_without_a_block_is_an_error(self):
        with pytest.raises(ConfigurationError, match="no 'refine' block"):
            refine_experiment(loads_experiment(FAST))

    def test_boundary_document_shape_and_bisection(self):
        exp = loads_experiment(self.refine_text())
        boundary = refine_experiment(exp)
        assert boundary["schema"] == "repro-solvability-boundary"
        assert boundary["version"] == 1
        assert boundary["axis"] == "churn_rate"
        assert boundary["base_trials"] == 4
        (context,) = boundary["contexts"]
        assert context["context"] == {}
        # The two coarse cells disagree, so exactly one bracket opens and
        # bisection must shrink it below the coarse gap of 4.0.
        (bracket,) = context["brackets"]
        assert bracket["low_verdict"] != bracket["high_verdict"]
        assert bracket["gap"] < 4.0
        # Every evaluation carries the depth it was produced at, and the
        # base grid contributes depth-0 entries for both coarse cells.
        depths = {e["depth"] for e in context["evaluations"]}
        assert 0 in depths and len(depths) >= 2
        # Refined trials are whole multiples of the per-point fan-out.
        assert boundary["refined_trials"] % exp.trials == 0
        assert boundary["refined_trials"] > 0

    def test_refinement_is_deterministic(self):
        exp = loads_experiment(self.refine_text())
        assert json.dumps(refine_experiment(exp), sort_keys=True) == \
            json.dumps(refine_experiment(exp), sort_keys=True)

    def test_base_run_is_reused_not_rerun(self):
        exp = loads_experiment(self.refine_text(max_depth=1))
        run = run_experiment(exp)
        boundary = refine_experiment(exp, base_run=run)
        # One round over one bracket: exactly one midpoint sub-plan.
        assert boundary["refined_trials"] == exp.trials

    def test_agreeing_grid_opens_no_bracket(self):
        exp = loads_experiment(
            "name: calm\n"
            "kind: query\n"
            "grid: {churn_rate: [0.0, 0.01]}\n"
            "base: {n: 8, horizon: 60.0}\n"
            "trials: 2\n"
            "root_seed: 2007\n"
            "refine: {axis: churn_rate, metric: completeness,"
            " threshold: 0.0, op: '>='}\n"
        )
        boundary = refine_experiment(exp)
        assert boundary["refined_trials"] == 0
        (context,) = boundary["contexts"]
        assert context["brackets"] == []
