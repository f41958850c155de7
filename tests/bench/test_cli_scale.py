"""CLI behaviour added for the scale work: the sink default (the same at
every n), the in-memory guardrail, and `.jsonl` streaming output."""

from __future__ import annotations

import json
import warnings

import pytest

import repro.engine.trials as trials_mod
from repro.cli import main
from repro.engine.results import load_document
from repro.engine.trials import (
    LARGE_TRIAL_THRESHOLD,
    GossipConfig,
    _make_simulator,
)


class TestTraceSinkDefault:
    def test_small_runs_print_no_sink_notice(self, capsys):
        assert main(["query", "--n", "8", "--trials", "1"]) == 0
        err = capsys.readouterr().err
        assert "defaulting --trace-sink" not in err

    def test_large_sweep_leaves_sink_to_config_default(self, capsys,
                                                       monkeypatch):
        captured = {}

        def fake_build_plan(name, **kwargs):
            captured.update(kwargs["base"])
            raise SystemExit(0)  # stop before actually running 10k entities

        monkeypatch.setattr("repro.engine.plan.build_plan", fake_build_plan)
        with pytest.raises(SystemExit):
            main(["sweep", "--n", str(LARGE_TRIAL_THRESHOLD),
                  "--rates", "0", "--trials", "1"])
        err = capsys.readouterr().err
        assert "defaulting --trace-sink" not in err
        assert "trace_sink" not in captured

    def test_explicit_memory_flag_overrides_the_scale_default(self, capsys,
                                                              monkeypatch):
        captured = {}

        def fake_build_plan(name, **kwargs):
            captured.update(kwargs["base"])
            raise SystemExit(0)

        monkeypatch.setattr("repro.engine.plan.build_plan", fake_build_plan)
        with pytest.raises(SystemExit):
            main(["sweep", "--n", str(LARGE_TRIAL_THRESHOLD),
                  "--rates", "0", "--trace-sink", "memory"])
        err = capsys.readouterr().err
        assert "defaulting --trace-sink" not in err
        assert captured["trace_sink"] == "memory"


class TestMemorySinkGuardrail:
    @pytest.fixture(autouse=True)
    def _reset_warn_once(self, monkeypatch):
        monkeypatch.setattr(trials_mod, "_warned_memory_sink_scale", False)

    @staticmethod
    def _scale_warnings(config, times=1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(times):
                _make_simulator(config)
        return [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_memory_sink_at_scale_warns_once(self):
        scale_warnings = self._scale_warnings(
            GossipConfig(n=LARGE_TRIAL_THRESHOLD, seed=1, trace_sink="memory"),
            times=2,
        )
        assert len(scale_warnings) == 1
        assert "in-memory trace sink" in str(scale_warnings[0].message)

    def test_small_populations_do_not_warn(self):
        assert not self._scale_warnings(
            GossipConfig(n=32, seed=1, trace_sink="memory"))

    def test_default_sink_at_scale_does_not_warn(self):
        assert not self._scale_warnings(
            GossipConfig(n=LARGE_TRIAL_THRESHOLD, seed=1))

    def test_counts_sink_at_scale_does_not_warn(self):
        assert not self._scale_warnings(
            GossipConfig(n=LARGE_TRIAL_THRESHOLD, seed=1, trace_sink="counts"))


class TestJsonlOutput:
    def test_query_output_jsonl_streams(self, capsys, tmp_path):
        path = tmp_path / "out.jsonl"
        assert main(["query", "--n", "8", "--trials", "2",
                     "--output", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"result stream written to {path}" in out
        with open(path) as handle:
            header = json.loads(handle.readline())
        assert header["format"] == "jsonl-stream"
        document = load_document(str(path))
        assert document["version"] == 2
        assert sum(len(p["trials"]) for p in document["points"]) == 2

    def test_json_output_still_writes_canonical_document(self, capsys,
                                                         tmp_path):
        path = tmp_path / "out.json"
        assert main(["query", "--n", "8", "--trials", "1",
                     "--output", str(path)]) == 0
        assert "result document written to" in capsys.readouterr().out
        document = json.load(open(path))
        assert document["schema"] == "repro-engine-results"

    def test_bench_diff_accepts_jsonl_streams(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["query", "--n", "8", "--trials", "1",
                     "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["bench", "diff", str(path), str(path),
                     "--fail-on-regression"]) == 0
        assert "no regressions" in capsys.readouterr().out
