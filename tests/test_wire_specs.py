"""One table over the spec families that share the wire kernel (repro.wire).

Three parts:

* **Conformance** — FaultPlan, ResilienceSpec, ExecutorSpec, ChurnSpec and
  ExperimentDef against the same malformed inputs (non-mapping, wrong
  schema, future version, unknown field, wrong-typed field, bad JSON):
  every one is a ``ConfigurationError``, never a traceback, and every
  preset (or shipped example) round-trips.
* **Fuzz** — any JSON value substituted anywhere into a valid record loads
  to a spec or raises ``ConfigurationError``, through the JSON loaders and
  through YAML experiments.
* **Pins** — preset ``to_json()`` bytes and ``repr``, the preset listings,
  and the canonical YAML / digests / result document of one experiment
  carrying inline churn, faults, resilience and executor blocks.  ``repr``
  matters: ``plan_digest`` and checkpoint names hash it via ``jsonable``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest
from hypothesis import example, given, strategies as st

from repro.churn.spec import ChurnSpec
from repro.cli import main
from repro.engine.spec import EXECUTOR_PRESETS, ExecutorSpec
from repro.experiments import (
    ExperimentDef,
    dump_experiment,
    experiment_digest,
    experiment_plan_digest,
    load_experiment,
    loads_experiment,
    run_experiment,
)
from repro.faults.spec import FAULT_PRESETS, FaultPlan
from repro.resilience.spec import RESILIENCE_PRESETS, ResilienceSpec
from repro.sim.errors import ConfigurationError

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "experiments").glob("*.yaml")
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# The families
# ----------------------------------------------------------------------


def churn_from_dict(record: Any) -> ChurnSpec:
    return ExperimentDef.from_dict({"name": "c", "churn": record}).churn


def churn_from_text(text: str) -> ChurnSpec:
    return loads_experiment(f"name: c\nchurn: {text}\n").churn


def churn_to_dict(spec: ChurnSpec) -> dict[str, Any]:
    return ExperimentDef(name="c", churn=spec).to_dict()["churn"]


@dataclass(frozen=True)
class Family:
    load: Callable[[Any], Any]
    loads: Callable[[str], Any]
    dump: Callable[[Any], Any]
    exemplars: Callable[[], list[Any]]
    valid: dict[str, Any]
    wrong_type: tuple[str, Any]


FAMILIES = {
    "fault plan": Family(
        FaultPlan.from_dict, FaultPlan.from_json, FaultPlan.to_dict,
        lambda: list(FAULT_PRESETS.values()),
        FAULT_PRESETS["chaos-mix"].to_dict(), ("specs", 5),
    ),
    "resilience spec": Family(
        ResilienceSpec.from_dict, ResilienceSpec.from_json,
        ResilienceSpec.to_dict, lambda: list(RESILIENCE_PRESETS.values()),
        RESILIENCE_PRESETS["full"].to_dict(), ("max_retries", "3"),
    ),
    "executor spec": Family(
        ExecutorSpec.from_dict, ExecutorSpec.from_json, ExecutorSpec.to_dict,
        lambda: list(EXECUTOR_PRESETS.values()),
        EXECUTOR_PRESETS["guarded"].to_dict(), ("jobs", "2"),
    ),
    "churn spec": Family(
        churn_from_dict, churn_from_text, churn_to_dict,
        lambda: [ChurnSpec(), ChurnSpec(kind="finite", total_arrivals=0),
                 ChurnSpec(kind="arrival-departure", pareto_alpha=1.5,
                           pareto_xm=2.0, cap=12, doom_initial=True)],
        {"kind": "phased", "rate": 2.0, "storm_length": 10.0},
        ("rate", "fast"),
    ),
    "experiment": Family(
        ExperimentDef.from_dict, loads_experiment, ExperimentDef.to_dict,
        lambda: [load_experiment(path) for path in EXAMPLES],
        load_experiment(EXAMPLES[0]).to_dict(), ("trials", "many"),
    ),
}

MALFORMED: dict[str, Callable[[Family], Any]] = {
    "non-mapping": lambda family: family.load([]),
    "wrong schema": lambda family: family.load(
        {**family.valid, "schema": "not-a-spec"}),
    "future version": lambda family: family.load(
        {**family.valid, "version": 2}),
    "unknown field": lambda family: family.load(
        {**family.valid, "no_such_field": 1}),
    "wrong-typed field": lambda family: family.load(
        dict(family.valid, **dict([family.wrong_type]))),
    "bad JSON": lambda family: family.loads('{"unterminated": [1, 2'),
}


class TestConformance:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_exemplar_round_trips(self, family):
        table = FAMILIES[family]
        exemplars = table.exemplars()
        assert exemplars
        for spec in exemplars:
            assert table.load(table.dump(spec)) == spec
            assert table.loads(json.dumps(table.dump(spec))) == spec

    @pytest.mark.parametrize("case", MALFORMED)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_malformed_input_is_a_configuration_error(self, family, case):
        with pytest.raises(ConfigurationError):
            MALFORMED[case](FAMILIES[family])

    @pytest.mark.parametrize("presets", [FAULT_PRESETS, RESILIENCE_PRESETS,
                                         EXECUTOR_PRESETS],
                             ids=["faults", "resilience", "executor"])
    def test_presets_name_themselves(self, presets):
        family = type(next(iter(presets.values())))
        assert family.PRESETS is presets
        for name, spec in presets.items():
            assert spec.name == name
            assert family.preset(name) is spec

    def test_unknown_presets_are_listed_in_declaration_order(self):
        with pytest.raises(ConfigurationError) as error:
            ExecutorSpec.preset("nope")
        assert str(error.value) == (
            "unknown executor spec preset 'nope'; builtin presets: "
            "serial, parallel, parallel-unchunked, guarded"
        )
        for family in (FaultPlan, ResilienceSpec):
            with pytest.raises(ConfigurationError,
                               match=", ".join(family.PRESETS)):
                family.preset("nope")


# ----------------------------------------------------------------------
# Malformed spec files at the CLI: one line, no traceback
# ----------------------------------------------------------------------

MALFORMED_FILES = [
    ("--fault-plan", "[]"),
    ("--fault-plan", '{"specs": 5}'),
    ("--fault-plan", '{"specs": [{"kind": "crash", "start": "x"}]}'),
    ("--executor", "[]"),
    ("--executor", '{"backend": "parallel", "jobs": "2"}'),
    ("--resilience", "[]"),
    ("--resilience", '{"max_retries": "3"}'),
]

MALFORMED_YAML = [
    "faults: {specs: [{kind: crash, start: x}]}",
    "executor: {backend: parallel, jobs: '2'}",
    "resilience: {max_retries: '3'}",
    "churn: {kind: replacement, rate: fast}",
    "churn: {kind: bogus}",
    "trials: .inf",
]


class TestMalformedFilesAtTheCli:
    @pytest.mark.parametrize("flag, text", MALFORMED_FILES)
    def test_a_malformed_spec_file_is_a_one_line_exit(self, tmp_path, flag,
                                                      text):
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as exit_:
            main(["query", "--n", "8", "--trials", "1", flag, str(path)])
        message = exit_.value.code
        assert isinstance(message, str) and message.startswith(flag)
        assert "\n" not in message

    @pytest.mark.parametrize("block", MALFORMED_YAML)
    def test_validate_reports_a_bad_inline_block(self, tmp_path, capsys,
                                                 block):
        path = tmp_path / "bad.yaml"
        path.write_text(f"name: bad\n{block}\n", encoding="utf-8")
        assert main(["experiment", "validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL {path}: ") and out.count("\n") == 1


# ----------------------------------------------------------------------
# ChurnSpec validates what it is given
# ----------------------------------------------------------------------


class TestChurnSpecValidates:
    def test_an_unknown_kind_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            ChurnSpec(kind="bogus")

    @pytest.mark.parametrize("field, value", [
        ("rate", "fast"), ("cap", 2.5), ("total_arrivals", "3"),
        ("doom_initial", 1), ("lifetime_mean", [1.0]),
    ])
    def test_a_wrong_typed_field_fails_at_construction(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ChurnSpec(**{field: value})

    def test_an_explicit_zero_arrivals_is_honoured(self):
        model = ChurnSpec(kind="finite", total_arrivals=0).builder()(lambda: None)
        assert model.total_arrivals == 0
        assert ChurnSpec(kind="finite").builder()(lambda: None).total_arrivals == 20

    def test_a_zero_pareto_scale_is_refused(self):
        with pytest.raises(ConfigurationError, match="xm"):
            ChurnSpec(kind="arrival-departure", pareto_alpha=1.5, pareto_xm=0)


# ----------------------------------------------------------------------
# Fuzz: any JSON value anywhere in a valid record
# ----------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)


def paths(record: Any, prefix: tuple = ()) -> list[tuple]:
    """Every key path into a record, nested lists and mappings included."""
    found = [prefix] if prefix else []
    items = (record.items() if isinstance(record, dict)
             else enumerate(record) if isinstance(record, list) else ())
    for key, value in items:
        found.extend(paths(value, prefix + (key,)))
    return found


def substituted(record: Any, path: tuple, value: Any) -> Any:
    record = json.loads(json.dumps(record))
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return record


FAULT_RECORD = FAULT_PRESETS["chaos-mix"].to_dict()
FAULT_RECORD["specs"][0]["links"] = [[1, 2], [3, 4]]
#: Experiment block -> (JSON loader, valid record).
FUZZ_RECORDS = {
    "faults": (FaultPlan.from_dict, FAULT_RECORD),
    "resilience": (ResilienceSpec.from_dict,
                   RESILIENCE_PRESETS["full"].to_dict()),
    "executor": (ExecutorSpec.from_dict, EXECUTOR_PRESETS["guarded"].to_dict()),
}
EXPERIMENT_RECORD = {
    **load_experiment(EXAMPLES[0]).to_dict(),
    "churn": {"kind": "finite", "rate": 1.0, "total_arrivals": 4,
              "lifetime_mean": 5.0},
    **{block: record for block, (_, record) in FUZZ_RECORDS.items()},
}
SPEC_TARGETS = [(block, path) for block, (_, record) in FUZZ_RECORDS.items()
                for path in paths(record)]
EXPERIMENT_TARGETS = [(None, path) for path in paths(EXPERIMENT_RECORD)]


def loads_or_refuses(load: Callable[[Any], Any], record: Any) -> None:
    try:
        load(record)
    except ConfigurationError:
        pass


class TestLoaderFuzz:
    @given(target=st.sampled_from(SPEC_TARGETS), value=JSON_VALUES)
    @example(target=("faults", ("specs", 0, "links", 0, 0)), value=float("inf"))
    def test_json_spec_records(self, target, value):
        block, path = target
        load, record = FUZZ_RECORDS[block]
        loads_or_refuses(load, substituted(record, path, value))

    @given(target=st.sampled_from(SPEC_TARGETS + EXPERIMENT_TARGETS),
           value=JSON_VALUES)
    def test_yaml_experiments(self, target, value):
        block, path = target
        if block is None:
            record = substituted(EXPERIMENT_RECORD, path, value)
        else:
            spec = substituted(FUZZ_RECORDS[block][1], path, value)
            record = {"name": "fuzz", block: spec}
        loads_or_refuses(loads_experiment, json.dumps(record))


# ----------------------------------------------------------------------
# Pins, taken before the specs moved onto the kernel
# ----------------------------------------------------------------------

#: name -> (sha of to_json(), sha of repr()).
PRESET_PINS = {
    "drop-storm": ("592936301bac148f", "84b3b49a99d375a9"),
    "dup-flood": ("b74a9e5c8c4f4458", "d1eb60b2795da82d"),
    "jitter-spike": ("6ef5992a40693952", "7164e86e42d7a084"),
    "flaky-links": ("b5983cff85eca0e6", "2dcd3eef147bf35d"),
    "split-brain": ("4b26dad4b84f8416", "d421fb36c4cb97cb"),
    "silent-crash": ("b8e2e97c2ae93b12", "d98bf14f10e63c9b"),
    "amnesia": ("a8bde4178e6ff0e6", "4c5b3d8ee5cea62f"),
    "chaos-mix": ("aed3e3e67e6ba733", "dc98e4e64ba0bce6"),
    "arq": ("8920de42ac556c6c", "7d6603a4990de285"),
    "arq-static": ("cc52348d27fc4032", "30648a80757827ac"),
    "breaker": ("17e64bf82557124c", "0f4367d28cac82e8"),
    "full": ("52984c3e3d3015d4", "8b879d1d587e108f"),
    "serial": ("58a5eb69fb746dd1", "62b9093e9d865996"),
    "parallel": ("ae9b90d5aef5d48c", "32a9cfe9f1bd7920"),
    "parallel-unchunked": ("f25e1a0694e7a8f7", "4457077b36a1daaf"),
    "guarded": ("dabfc84556162df6", "c50bb00daf01c069"),
}

LISTING_PINS = {
    "faults": (FAULT_PRESETS, "12561d11563e81cd"),
    "resilience": (RESILIENCE_PRESETS, "3e0248bf2361b02b"),
    "executor": (EXECUTOR_PRESETS, "fd1db7e18ec50581"),
}

PINNED_EXPERIMENT = """\
name: spec-kernel-pin
kind: query
grid:
  n: [8, 10]
base:
  horizon: 60.0
trials: 2
churn:
  kind: arrival-departure
  rate: 0.5
  pareto_alpha: 1.5
  pareto_xm: 2.0
  cap: 12
  doom_initial: true
faults:
  name: pinned
  specs:
    - kind: delay_spike
      start: 1.5
      duration: 2.5
      probability: 0.25
      magnitude: 4.0
      links: [[3, 1], [2, 7]]
    - kind: crash
      start: 4.0
resilience:
  name: pinned
  max_retries: 2
  breaker_threshold: 3
  exclude_kinds: [FD_HEARTBEAT, PING]
executor:
  backend: parallel
  jobs: 2
  chunk: 4
  watchdog: 60.0
"""


class TestPins:
    def test_all_sixteen_presets(self):
        presets = {**FAULT_PRESETS, **RESILIENCE_PRESETS, **EXECUTOR_PRESETS}
        assert list(presets) == list(PRESET_PINS)
        for name, spec in presets.items():
            assert (sha(spec.to_json()), sha(repr(spec))) == PRESET_PINS[name], name

    @pytest.mark.parametrize("command", LISTING_PINS)
    def test_the_preset_listings(self, capsys, command):
        presets, pin = LISTING_PINS[command]
        assert main([command]) == 0
        assert sha(capsys.readouterr().out) == pin
        for name, spec in presets.items():
            assert main([command, "--show", name]) == 0
            assert capsys.readouterr().out == spec.to_json()

    def test_an_experiment_with_every_inline_block(self):
        experiment = loads_experiment(PINNED_EXPERIMENT)
        assert sha(dump_experiment(experiment)) == "30abe65f215bbc9f"
        assert experiment_digest(experiment) == "30abe65f215bbc9f"
        assert experiment_plan_digest(experiment) == "07a2992ab111e51c"
        run = run_experiment(experiment, executor=ExecutorSpec.serial())
        assert sha(run.store.to_json()) == "d066fc440a62decb"
