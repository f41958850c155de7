"""Differential byte-identity: YAML experiments vs their Python twins.

The whole point of the declarative layer is that it adds *zero* semantic
surface: a ``repro-experiment`` document lowers to exactly the
``build_plan`` call a Python experiment module would make, so the result
documents are byte-for-byte identical — per arm, per seed, per backend.
This suite pins that contract for the two shipped experiments (E4 churn
sweep, E22 recovery audit) at the plan level, and for fast shrunk
variants at the full canonical-JSON level across the serial, warm-pool
parallel and streaming backends.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine.plan import build_plan
from repro.engine.executor import run_plan, stream_plan
from repro.engine.results import load_document
from repro.engine.spec import ExecutorSpec
from repro.engine.telemetry import plan_digest
from repro.experiments import load_experiment, loads_experiment
from repro.faults.spec import FAULT_PRESETS

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "experiments"
E4_YAML = EXAMPLES / "e4_churn_sweep.yaml"
E22_YAML = EXAMPLES / "e22_recovery_audit.yaml"


def e4_python_plan():
    """The reference plan from ``benchmarks/test_e4_churn_sweep.py``."""
    return build_plan(
        "e4-churn-sweep",
        kind="query",
        grid={"churn_rate": [0.0, 0.25, 1.0, 2.0, 4.0, 8.0]},
        base={"n": 32, "topology": "er", "aggregate": "COUNT",
              "horizon": 250.0},
        trials=6,
        root_seed=2007,
    )


def e22_python_plan():
    """The engine-plan twin of ``benchmarks/test_e22_recovery_audit.py``."""
    return build_plan(
        "e22-recovery-audit",
        kind="query",
        grid={"faults": sorted(FAULT_PRESETS),
              "resilience": [None, "full"]},
        base={"n": 16, "topology": "er", "protocol": "ft_wave",
              "aggregate": "COUNT", "horizon": 150.0,
              "notify_leaves": False},
        seeds=[2007, 2008, 2009],
    )


class TestShippedPlansAreIdentical:
    """Plan equality is spec-list equality: same grid points, same base
    config, same seeds, same order — which is exactly what the executor
    consumes, so equal plans produce byte-identical documents on every
    backend (the backend-independence of documents is pinned separately
    by the engine determinism suite)."""

    def test_e4_yaml_lowers_to_the_python_plan(self):
        yaml_plan = load_experiment(E4_YAML).to_plan()
        python_plan = e4_python_plan()
        assert yaml_plan == python_plan
        assert plan_digest(yaml_plan) == plan_digest(python_plan)

    def test_e22_yaml_lowers_to_the_python_plan(self):
        yaml_plan = load_experiment(E22_YAML).to_plan()
        python_plan = e22_python_plan()
        assert yaml_plan == python_plan
        assert plan_digest(yaml_plan) == plan_digest(python_plan)


# Fast shrunk variants of the two shipped shapes, small enough to run the
# full document comparison across every backend inside tier-1.
E4_SMALL_YAML = """
name: e4-small
kind: query
grid:
  churn_rate: [0.0, 2.0]
base:
  n: 12
  topology: er
  aggregate: COUNT
  horizon: 80.0
trials: 2
root_seed: 2007
"""

E22_SMALL_YAML = """
name: e22-small
kind: query
grid:
  faults: [drop-storm, dup-flood]
  resilience: [null, arq]
base:
  n: 8
  topology: er
  protocol: ft_wave
  aggregate: COUNT
  horizon: 60.0
  notify_leaves: false
seeds: [2007, 2008]
"""


def e4_small_python_plan():
    return build_plan(
        "e4-small", kind="query",
        grid={"churn_rate": [0.0, 2.0]},
        base={"n": 12, "topology": "er", "aggregate": "COUNT",
              "horizon": 80.0},
        trials=2, root_seed=2007,
    )


def e22_small_python_plan():
    return build_plan(
        "e22-small", kind="query",
        grid={"faults": ["drop-storm", "dup-flood"],
              "resilience": [None, "arq"]},
        base={"n": 8, "topology": "er", "protocol": "ft_wave",
              "aggregate": "COUNT", "horizon": 60.0,
              "notify_leaves": False},
        seeds=[2007, 2008],
    )


SHRUNK = [
    pytest.param(E4_SMALL_YAML, e4_small_python_plan, id="e4-small"),
    pytest.param(E22_SMALL_YAML, e22_small_python_plan, id="e22-small"),
]

BACKENDS = [
    pytest.param(ExecutorSpec.serial(), id="serial"),
    pytest.param(ExecutorSpec.parallel(jobs=2), id="parallel"),
]


class TestDocumentsAreByteIdentical:
    @pytest.mark.parametrize("yaml_text,python_plan", SHRUNK)
    @pytest.mark.parametrize("executor", BACKENDS)
    def test_yaml_vs_python_documents(self, yaml_text, python_plan, executor):
        yaml_json = run_plan(
            loads_experiment(yaml_text).to_plan(), executor=executor
        ).to_json()
        python_json = run_plan(python_plan(), executor=executor).to_json()
        assert yaml_json == python_json

    @pytest.mark.parametrize("yaml_text,python_plan", SHRUNK)
    def test_streaming_backend_assembles_the_same_document(
        self, yaml_text, python_plan, tmp_path
    ):
        stream = tmp_path / "stream.jsonl"
        stream_plan(
            loads_experiment(yaml_text).to_plan(), str(stream),
            executor=ExecutorSpec.serial(),
        )
        streamed = json.dumps(load_document(str(stream)), sort_keys=True)
        in_memory = json.dumps(
            run_plan(python_plan(), executor=ExecutorSpec.serial()).document(),
            sort_keys=True,
        )
        assert streamed == in_memory

    def test_full_e4_documents_are_byte_identical_serially(self):
        yaml_json = run_plan(
            load_experiment(E4_YAML).to_plan(), executor=ExecutorSpec.serial()
        ).to_json()
        python_json = run_plan(
            e4_python_plan(), executor=ExecutorSpec.serial()
        ).to_json()
        assert yaml_json == python_json
