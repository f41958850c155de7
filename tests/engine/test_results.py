"""Tests for the ResultStore layer (repro.engine.results) and its
analysis-side consumers."""

from __future__ import annotations

import json

import pytest

from repro.analysis.tables import render_result_document
from repro.engine.plan import build_plan
from repro.engine.results import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    ResultStore,
    TrialResult,
    jsonable,
    summarize_point,
    validate_document,
)
from repro.sim.errors import ConfigurationError


def _result(index: int, *, rate: float = 0.0, seed: int = 0,
            trial: int = 0, completeness: float = 1.0) -> TrialResult:
    return TrialResult(
        index=index, kind="query", seed=seed, trial=trial,
        point=(("churn_rate", rate),),
        ok=completeness == 1.0, terminated=True,
        result=8, truth=8, error=0.0, completeness=completeness,
        latency=3.0, messages=40, core_size=8,
        events_executed=100, wall_time=0.01,
    )


PLAN_META = {"name": "t", "root_seed": 1, "trials_per_point": 2, "n_trials": 4}


def _store() -> ResultStore:
    return ResultStore(plan=PLAN_META, results=[
        _result(0, rate=0.0, seed=10, trial=0),
        _result(1, rate=0.0, seed=20, trial=1, completeness=0.5),
        _result(2, rate=1.0, seed=10, trial=0, completeness=0.75),
        _result(3, rate=1.0, seed=20, trial=1, completeness=0.25),
    ])


class TestFromSpec:
    SPEC = build_plan(
        "from-spec", kind="query", grid={"churn_rate": [0.0, 2.0]},
        base={"n": 8}, trials=2, root_seed=5,
    ).specs[3]
    FIELDS = dict(
        ok=True, terminated=True, result=8, truth=8, error=0.0,
        completeness=1.0, latency=3.0, messages=40, core_size=8,
        events_executed=100, wall_time=0.01,
    )

    def test_identity_comes_from_the_spec(self):
        result = TrialResult.from_spec(self.SPEC, **self.FIELDS)
        assert (result.index, result.kind, result.seed, result.trial) == (
            self.SPEC.index, "query", self.SPEC.seed, self.SPEC.trial
        )
        assert result.point == (("churn_rate", 2.0),)
        assert result.metrics == {} and result.status == ""

    def test_identity_cannot_arrive_from_elsewhere(self):
        with pytest.raises(TypeError):
            TrialResult.from_spec(self.SPEC, index=99, **self.FIELDS)


class TestJsonable:
    def test_frozenset_sorted(self):
        assert jsonable(frozenset({3, 1, 2})) == [1, 2, 3]

    def test_nested(self):
        assert jsonable({"a": (1, frozenset({2}))}) == {"a": [1, [2]]}

    def test_fallback_to_str(self):
        assert jsonable(object()).startswith("<object")


class TestResultStore:
    def test_results_sorted_by_index(self):
        store = ResultStore(results=[_result(2), _result(0), _result(1)])
        assert [r.index for r in store.results] == [0, 1, 2]

    def test_by_point_groups_in_plan_order(self):
        groups = _store().by_point()
        assert list(groups) == [(("churn_rate", 0.0),), (("churn_rate", 1.0),)]
        assert [len(g) for g in groups.values()] == [2, 2]

    def test_summary_values(self):
        summary = _store().summary()[(("churn_rate", 0.0),)]
        assert summary["trials"] == 2
        assert summary["completeness"] == 0.75
        assert summary["fully_complete"] == 0.5
        assert summary["ok"] == 0.5

    def test_summarize_point_non_numeric_result(self):
        result = TrialResult(
            index=0, kind="query", seed=0, trial=0, point=(),
            ok=True, terminated=True, result=[1, 2], truth=[1, 2],
            error=0.0, completeness=1.0, latency=1.0, messages=1,
            core_size=2, events_executed=5, wall_time=0.0,
        )
        assert summarize_point([result])["result_mean"] == 0.0

    def test_document_structure(self):
        document = _store().document()
        assert document["schema"] == SCHEMA_NAME
        assert document["version"] == SCHEMA_VERSION
        assert document["plan"] == PLAN_META
        assert len(document["points"]) == 2
        entry = document["points"][0]
        assert set(entry) == {"point", "summary", "trials"}
        assert "wall_time" not in entry["trials"][0]

    def test_document_include_timing(self):
        document = _store().document(include_timing=True)
        assert document["points"][0]["trials"][0]["wall_time"] == 0.01

    def test_to_json_canonical(self):
        text = _store().to_json()
        assert text.endswith("\n")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_write_load_round_trip(self, tmp_path):
        store = _store()
        path = tmp_path / "results.json"
        store.write(str(path))
        loaded = ResultStore.load(str(path))
        assert loaded.plan == store.plan
        assert [r.to_record() for r in loaded.results] == [
            r.to_record() for r in store.results
        ]
        assert loaded.to_json() == store.to_json()


class TestValidateDocument:
    def test_accepts_own_output(self):
        validate_document(_store().document())

    def test_rejects_non_mapping(self):
        with pytest.raises(ConfigurationError):
            validate_document([])

    def test_rejects_wrong_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            validate_document({"schema": "other", "version": SCHEMA_VERSION})

    def test_rejects_wrong_version(self):
        with pytest.raises(ConfigurationError, match="version"):
            validate_document({"schema": SCHEMA_NAME, "version": 999,
                               "points": []})

    def test_rejects_missing_points(self):
        with pytest.raises(ConfigurationError, match="points"):
            validate_document({"schema": SCHEMA_NAME,
                               "version": SCHEMA_VERSION})

    def test_rejects_malformed_point_entry(self):
        with pytest.raises(ConfigurationError):
            validate_document({"schema": SCHEMA_NAME,
                               "version": SCHEMA_VERSION,
                               "points": [{"point": {}}]})


class TestAnalysisConsumers:
    def test_render_result_document(self):
        table = render_result_document(
            _store().document(),
            columns=("trials", "completeness"),
            title="demo",
        )
        assert "demo" in table
        assert "churn_rate" in table
        assert "completeness" in table
        # one row per grid point
        assert table.count("\n") >= 4


class TestSchemaVersioning:
    def test_document_carries_repro_version(self):
        from repro.version import package_version

        document = _store().document()
        assert document["repro_version"] == package_version()

    def test_v1_document_loads_with_empty_metrics(self, tmp_path):
        from repro.engine.results import load_document

        store = _store()
        document = json.loads(store.to_json())
        document["version"] = 1
        for entry in document["points"]:
            for trial in entry["trials"]:
                trial.pop("metrics", None)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        loaded = load_document(str(path))
        assert loaded["version"] == 1
        rehydrated = ResultStore.load(str(path))
        assert all(r.metrics == {} for r in rehydrated.results)

    def test_v2_document_loads_verbatim(self, tmp_path):
        from repro.engine.results import load_document

        path = tmp_path / "v2.json"
        _store().write(str(path))
        loaded = load_document(str(path))
        assert loaded["version"] == SCHEMA_VERSION

    def test_unknown_version_raises_typed_error_naming_range(self, tmp_path):
        from repro.engine.results import SUPPORTED_VERSIONS, load_document
        from repro.obs.codec import SchemaVersionError

        document = json.loads(_store().to_json())
        document["version"] = 3
        path = tmp_path / "v3.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(SchemaVersionError) as excinfo:
            load_document(str(path))
        error = excinfo.value
        assert error.version == 3
        assert error.supported == SUPPORTED_VERSIONS
        assert "3" in str(error)
        assert f"{SUPPORTED_VERSIONS[0]}..{SUPPORTED_VERSIONS[-1]}" in str(error)
        # The typed error still satisfies broad ConfigurationError handlers.
        assert isinstance(error, ConfigurationError)
