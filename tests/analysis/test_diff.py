"""The bench regression gate: diffing result documents and BENCH payloads."""

from __future__ import annotations

import copy
import json
import math

import pytest

from repro.analysis.diff import (
    BenchDiff,
    _bench_rule,
    _relative_change,
    diff_bench_payloads,
    diff_documents,
    diff_files,
    load_comparable,
)
from repro.api import build_plan, run_plan
from repro.obs.codec import SchemaVersionError
from repro.sim.errors import ConfigurationError


@pytest.fixture(scope="module")
def document():
    plan = build_plan(
        "diff-fixture", kind="query",
        grid={"churn_rate": [0.0, 2.0]},
        base={"n": 8, "topology": "er", "aggregate": "COUNT",
              "horizon": 80.0},
        trials=1, root_seed=2007,
    )
    return run_plan(plan).document()


def test_identical_documents_have_no_regressions(document):
    diff = diff_documents(document, document)
    assert diff.ok
    assert diff.entries and not diff.regressions
    assert not diff.missing and not diff.extra


def test_perturbed_summary_is_a_regression(document):
    worse = copy.deepcopy(document)
    worse["points"][0]["summary"]["completeness"] -= 0.25
    worse["points"][1]["summary"]["messages"] += 100
    diff = diff_documents(document, worse)
    assert not diff.ok
    regressed = {(e.label, e.metric) for e in diff.regressions}
    assert any(m == "completeness" for _, m in regressed)
    assert any(m == "messages" for _, m in regressed)
    # Direction matters: the same perturbation in the improving direction
    # is not a regression.
    better = copy.deepcopy(document)
    better["points"][1]["summary"]["messages"] = max(
        0, better["points"][1]["summary"]["messages"] - 10
    )
    assert diff_documents(document, better).ok


def test_threshold_override_tolerates_known_drift(document):
    worse = copy.deepcopy(document)
    base = worse["points"][0]["summary"]["latency"]
    worse["points"][0]["summary"]["latency"] = base * 1.05
    assert not diff_documents(document, worse).ok
    assert diff_documents(document, worse, {"latency": 0.10}).ok
    with pytest.raises(ConfigurationError, match=">= 0"):
        diff_documents(document, worse, {"latency": -1.0})


def test_missing_baseline_point_fails_extra_is_tolerated(document):
    shrunk = copy.deepcopy(document)
    shrunk["points"] = shrunk["points"][:1]
    diff = diff_documents(document, shrunk)
    assert diff.missing and not diff.ok
    grown = diff_documents(shrunk, document)
    assert grown.extra and grown.ok


def test_render_mentions_every_regression(document):
    worse = copy.deepcopy(document)
    worse["points"][0]["summary"]["completeness"] = 0.0
    diff = diff_documents(document, worse)
    text = diff.render()
    assert "REGRESSED" in text and "completeness" in text
    assert "REGRESSED" in diff.render(only_regressions=True)


def test_bench_payload_diff_thresholds():
    baseline = {"benchmark": "engine", "serial_wall_s": 10.0,
                "parallel_wall_s": 4.0, "speedup": 2.5,
                "events_executed_total": 1000,
                "metrics_totals": {"net.sent": 50}}
    noisy = dict(baseline, serial_wall_s=12.0,
                 metrics_totals={"net.sent": 50})
    assert diff_bench_payloads(baseline, noisy).ok   # within 50% wall slack
    drifted = dict(baseline, events_executed_total=1001,
                   metrics_totals={"net.sent": 50})
    diff = diff_bench_payloads(baseline, drifted)
    assert [e.metric for e in diff.regressions] == ["events_executed_total"]
    counted = dict(baseline, metrics_totals={"net.sent": 51})
    assert not diff_bench_payloads(baseline, counted).ok
    dropped = dict(baseline, metrics_totals={})
    assert diff_bench_payloads(baseline, dropped).missing == [
        "metrics_totals.net.sent"]


@pytest.mark.parametrize("name", [
    "sim_wall_s_n32", "sim_wall_s_n10000", "setup_s_n1000", "setup_s_n100000",
    "serial_wall_s", "stream_wall_s",
])
def test_bench_rule_gates_wall_time_families_lower_is_better(name):
    assert _bench_rule(name) == (0.50, False)


def test_bench_rule_gates_the_mutant_count_higher_is_better():
    assert _bench_rule("mutants") == (0.0, True)


def test_bench_rule_leaves_descriptive_fields_ungated():
    assert _bench_rule("n") is None
    assert _bench_rule("seed") is None
    assert _bench_rule("events_per_sec_n32") == (0.50, True)


def test_scale_payload_time_families_are_held():
    baseline = {"benchmark": "scale-curve", "seed": 2007,
                "events_per_sec_n10000": 35000.0,
                "sim_wall_s_n10000": 6.5, "setup_s_n10000": 0.25,
                "sim_wall_s_n100000": 23.0, "setup_s_n100000": 4.4}
    smoke = {"benchmark": "scale-curve", "seed": 2007,
             "events_per_sec_n10000": 34000.0,
             "sim_wall_s_n10000": 7.0, "setup_s_n10000": 0.30}
    assert diff_bench_payloads(baseline, smoke).ok  # subset, within slack
    quadratic = dict(smoke, setup_s_n10000=1.2)
    diff = diff_bench_payloads(baseline, quadratic)
    assert [e.metric for e in diff.regressions] == ["setup_s_n10000"]
    slow = dict(smoke, sim_wall_s_n10000=10.0)
    diff = diff_bench_payloads(baseline, slow)
    assert [e.metric for e in diff.regressions] == ["sim_wall_s_n10000"]
    assert diff_bench_payloads(
        baseline, slow, {"sim_wall_s_n10000": 10.0}).ok
    # A gated family the committed baseline lacks is schema drift.
    old_baseline = {k: v for k, v in baseline.items()
                    if not k.startswith("setup_s")}
    assert diff_bench_payloads(old_baseline, smoke).missing == [
        "baseline:setup_s_n10000"]


def test_relative_change_edge_cases():
    assert _relative_change(float("nan"), float("nan"), False) == 0.0
    assert _relative_change(math.inf, math.inf, False) == 0.0
    assert _relative_change(1.0, math.inf, False) == math.inf
    assert _relative_change(0.0, 0.0, False) == 0.0
    assert _relative_change(0.0, 1.0, False) == math.inf
    assert _relative_change(2.0, 1.0, True) == 0.5


def test_diff_files_and_shape_mismatch(tmp_path, document):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(document), encoding="utf-8")
    payload_path = tmp_path / "bench.json"
    payload_path.write_text(
        json.dumps({"benchmark": "engine", "serial_wall_s": 1.0}),
        encoding="utf-8",
    )
    assert diff_files(doc_path, doc_path).ok
    assert diff_files(payload_path, payload_path).ok
    with pytest.raises(ConfigurationError, match="same shape"):
        diff_files(doc_path, payload_path)


def test_load_comparable_rejects_unknown_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": "world"}), encoding="utf-8")
    with pytest.raises(ConfigurationError, match="nothing to compare"):
        load_comparable(path)


def test_load_comparable_raises_typed_schema_error(tmp_path, document):
    future = copy.deepcopy(document)
    future["version"] = 99
    path = tmp_path / "future.json"
    path.write_text(json.dumps(future), encoding="utf-8")
    with pytest.raises(SchemaVersionError):
        load_comparable(path)


def test_committed_baseline_matches_a_fresh_run():
    # The CI gate's premise: regenerating the committed baseline's plan
    # reproduces its document exactly (determinism makes it a fixture).
    from benchmarks.make_baseline import BASE, RATES, ROOT_SEED, TRIALS

    baseline = load_comparable("benchmarks/BASELINE.json")
    plan = build_plan(
        "bench-baseline", kind="query", grid={"churn_rate": RATES},
        base=BASE, trials=TRIALS, root_seed=ROOT_SEED,
    )
    fresh = run_plan(plan).document()
    diff = diff_documents(baseline, fresh)
    assert diff.ok, diff.render(only_regressions=True)


def test_empty_diff_is_ok():
    assert BenchDiff().ok
