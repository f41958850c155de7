"""Tests of the benchmark harness itself.

Run with ``python -m pytest perf/tests -q`` (outside tier-1's
``testpaths``; the harness is not part of the package under test).
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
sys.path[:0] = [str(ROOT / "src"), str(PERF)]

from harness import metrics, probes  # noqa: E402
from harness.runner import _Tally  # noqa: E402
from harness.spans import Tracer  # noqa: E402
from harness.workloads import Context, PassSample, make  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def test_self_time_of_nested_and_sibling_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(seconds):
        clock.advance(seconds)

    child_a = tracer.fold(leaf, "layer.child:a")
    child_b = tracer.fold(leaf, "layer.child:b")

    def parent():
        clock.advance(1.0)      # parent's own work
        child_a(2.0)            # sibling 1
        clock.advance(0.5)
        child_b(4.0)            # sibling 2
        child_a(1.0)            # sibling 3, same key as sibling 1

    with tracer.span("harness:pass", ident=7):
        clock.advance(0.25)
        tracer.fold(parent, "layer.parent:run")()

    calls, self_s, total_s = tracer.ledger["layer.parent:run"]
    assert (calls, self_s, total_s) == (1, 1.5, 8.5)
    assert tracer.ledger["layer.child:a"] == [2, 3.0, 3.0]
    assert tracer.ledger["layer.child:b"] == [1, 4.0, 4.0]
    assert tracer.ledger["harness:pass"] == [1, 0.25, 8.75]
    # Self times of everything under the root add up to the root's duration.
    assert tracer.self_s("layer.", "harness:") == 8.75
    (span,) = tracer.spans
    assert (span["name"], span["parent"], span["ident"]) == ("harness:pass", None, 7)
    assert span["end"] - span["start"] == 8.75


def test_coarse_spans_record_parent_and_shared_identifier():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    phase = tracer.coarse(lambda: clock.advance(1.0), "engine.trials:build")
    trial = tracer.coarse(
        lambda index: phase(), "engine.trials:trial", ident_of=lambda index: index
    )
    with tracer.span("harness:pass", ident=1):
        trial(41)
        trial(42)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    outer = by_name["harness:pass"][0]
    assert [s["ident"] for s in by_name["engine.trials:trial"]] == [41, 42]
    assert [s["ident"] for s in by_name["engine.trials:build"]] == [41, 42]
    assert {s["parent"] for s in by_name["engine.trials:trial"]} == {outer["id"]}
    trial_ids = [s["id"] for s in by_name["engine.trials:trial"]]
    assert [s["parent"] for s in by_name["engine.trials:build"]] == trial_ids


def test_outermost_probe_counts_a_delegating_handler_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    base = tracer.fold(lambda: clock.advance(1.0), "protocols:handler", outermost=True)

    def derived():
        clock.advance(0.5)
        base()

    tracer.fold(derived, "protocols:handler", outermost=True)()
    assert tracer.ledger["protocols:handler"] == [1, 1.5, 1.5]


# ----------------------------------------------------------------------
# Statistics and the metric tables
# ----------------------------------------------------------------------


def test_p90_is_omitted_below_100_samples():
    assert metrics.p90(list(range(99))) is None
    assert metrics.p90(list(range(100))) is not None


def test_names_are_plain_and_benchmark_json_matches_the_tables():
    plain = re.compile(r"[A-Za-z0-9_.-]+")
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(metrics.WORKLOADS):
        assert plain.fullmatch(name), name

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench["paths"] == ["perf"]
    assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.DRIVER_END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.DRIVER_PER_LAYER
    ]
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}


def test_every_self_time_row_is_a_per_layer_metric():
    per_layer = {m.name for m in metrics.PER_LAYER}
    assert {name for name, _ in metrics.SELF_TIME_ROWS} <= per_layer


def _document(wall: float, sends: int = 10) -> dict:
    return {"workloads": {"e4-sweep": {
        "end_to_end": {
            "wall_s": {"value": wall, "n": 5, "q1": wall * 0.9, "q3": wall * 1.1},
            "failed_share": {"value": 0.0, "n": 36},
        },
        "per_layer": {"sim.network.send.calls": {"value": sends}},
    }}}


def test_compare_applies_each_metrics_own_bound():
    base = _document(1.0)
    _, disagreements, counts = metrics.compare(base, copy.deepcopy(base))
    assert (disagreements, counts) == (0, 0)
    _, disagreements, _ = metrics.compare(base, _document(1.2))
    assert disagreements == 0          # within wall_s's bound
    _, disagreements, counts = metrics.compare(base, _document(1.3, sends=11))
    assert (disagreements, counts) == (1, 1)
    slow_setup, slower_setup = _document(1.0), _document(1.0)
    slow_setup["workloads"]["e4-sweep"]["end_to_end"]["setup_s"] = {"value": 0.002, "n": 9}
    slower_setup["workloads"]["e4-sweep"]["end_to_end"]["setup_s"] = {"value": 0.004, "n": 9}
    _, disagreements, _ = metrics.compare(slow_setup, slower_setup)
    assert disagreements == 0          # +100 %, but under setup_s's 5 ms slack
    failing = _document(1.0)
    failing["workloads"]["e4-sweep"]["end_to_end"]["failed_share"]["value"] = 0.01
    _, disagreements, _ = metrics.compare(base, failing)
    assert disagreements == 1          # bound 0: any failure disagrees


# ----------------------------------------------------------------------
# Failures are counted, not fatal
# ----------------------------------------------------------------------


def test_a_failing_pass_and_a_failing_trial_are_counted_not_fatal(capsys):
    good = PassSample(wall_s=1.0, setup_s=0.1, events=10, trial_ms=[1.0, 2.0], digest="d")
    quarantined = PassSample(
        wall_s=1.0, setup_s=0.1, events=10, trial_ms=[1.0, 2.0], digest="d",
        failures=["trial 1 quarantined"],
    )
    outcomes = iter([good, RuntimeError("boom"), quarantined, good])

    def run_one():
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    tally = _Tally("e4-sweep")
    samples = tally.passes(run_one, 4, None, "untraced")
    assert len(samples) == 3
    assert (tally.attempted, tally.failed) == (7, 2)
    assert tally.failures == [
        "e4-sweep untraced pass 2: RuntimeError: boom",
        "e4-sweep untraced pass 3: trial 1 quarantined",
    ]
    assert "FAILED e4-sweep untraced pass 2" in capsys.readouterr().err


def test_pass_loop_stops_when_the_next_pass_would_overrun_the_budget():
    sample = PassSample(wall_s=0.02, setup_s=0.0, events=1, trial_ms=[1.0], digest="d")

    def run_one():
        time.sleep(0.02)
        return sample

    assert 1 <= len(_Tally("w").passes(run_one, 50, 0.1, "untraced")) < 10


# ----------------------------------------------------------------------
# Probes come off completely
# ----------------------------------------------------------------------


def _attribute_snapshot() -> dict:
    """Every module-level and class-level attribute of ``repro`` (and of
    the harness's own workloads), by identity."""
    snapshot = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(("repro", "harness")):
            continue
        for attr, value in vars(module).items():
            snapshot[(module_name, attr)] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for name, member in vars(value).items():
                    snapshot[(module_name, attr, name)] = member
    return snapshot


def test_probes_are_fully_removed_after_a_traced_pass(tmp_path):
    from repro.sim.network import Network

    workload = make("storm-10k")
    workload.prepare(Context(seed=3, tmp=tmp_path, smoke=True))
    untraced = workload.run_pass()

    before = _attribute_snapshot()
    tracer = Tracer()
    remove = probes.install(tracer)
    try:
        assert vars(Network)["send"] is not before[("repro.sim.network", "Network", "send")]
        with tracer.span("harness:pass", ident=1):
            traced = workload.run_pass()
    finally:
        remove()
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    # The probes observed the run without changing it.
    assert traced.digest == untraced.digest
    assert tracer.calls("sim.scheduler:step") == traced.events
    assert tracer.calls("sim.network:send") > 0
    assert abs(tracer.self_s("") - tracer.total_s("harness:pass")) < 1e-9


# ----------------------------------------------------------------------
# The command itself
# ----------------------------------------------------------------------


def test_smoke_run_exercises_every_path_in_under_20_seconds(tmp_path):
    output = tmp_path / "results.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--trace",
         "--seed", "11", "--output", str(output)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 20, elapsed
    document = json.loads(output.read_text(encoding="utf-8"))
    assert list(document["workloads"]) == list(metrics.WORKLOADS)
    assert {"nproc", "python", "platform", "loadavg_1m"} <= document["env"].keys()
    for name, block in document["workloads"].items():
        assert block["failed"] == 0, block["failures"]
        assert block["end_to_end"]["digest_mismatch"]["value"] == 0
        assert set(block["per_layer"]) == {m.name for m in metrics.PER_LAYER}
        assert block["per_layer"]["trace.accounted_share"]["value"] > 0.5
        assert (PERF / "out" / f"trace-{name}.jsonl").exists()
    assert "cli_wall_s" in document["workloads"]["e4-sweep"]["end_to_end"]
    assert "cli_wall_s" not in document["workloads"]["storm-10k"]["end_to_end"]
    # No temp directory survives the run.
    assert not list((PERF / "out").glob("tmp-*"))


def test_driver_form_ends_with_one_json_line(tmp_path):
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--workload",
         "storm-10k", "--seed", "5", "--seconds", "1", "--trace", "0",
         "--output", str(tmp_path / "results.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in metrics.DRIVER_END_TO_END}
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
