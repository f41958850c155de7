"""CLI tests for the telemetry surface: ``--telemetry``/``--profile-trials``
on the engine commands, ``repro top``, ``repro runs list|show`` and
``repro trace export --engine``."""

from __future__ import annotations

import json
import re
import warnings

import pytest

from repro.cli import main
from repro.engine.telemetry import TELEMETRY_SUFFIX
from repro.obs.ledger import load_telemetry


def run_sweep(tmp_path, *extra):
    telemetry = tmp_path / f"sweep{TELEMETRY_SUFFIX}"
    assert main([
        "sweep", "--rates", "0,8", "--trials", "1", "--n", "8",
        "--telemetry", str(telemetry), *extra,
    ]) == 0
    return telemetry


class TestTelemetryFlag:
    def test_explicit_path(self, tmp_path, capsys):
        telemetry = run_sweep(tmp_path)
        out = capsys.readouterr().out
        assert f"telemetry written to {telemetry}" in out
        manifest, spans, summary = load_telemetry(str(telemetry))
        assert summary is not None and summary["trials"] == 2
        assert any(s.name == "trial" for s in spans)

    def test_auto_places_stream_beside_output(self, tmp_path, capsys):
        output = tmp_path / "results.json"
        assert main([
            "sweep", "--rates", "0", "--trials", "1", "--n", "8",
            "--output", str(output), "--telemetry",
        ]) == 0
        sibling = tmp_path / f"results{TELEMETRY_SUFFIX}"
        assert sibling.exists()
        json.loads(output.read_text())  # the result document still writes

    def test_auto_without_output_uses_ledger_dir(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--rates", "0", "--trials", "1", "--n", "8",
                     "--telemetry"]) == 0
        runs = tmp_path / ".repro" / "runs"
        assert list(runs.glob(f"*{TELEMETRY_SUFFIX}"))

    def test_progress_summary_names_the_run(self, tmp_path, capsys):
        telemetry = run_sweep(tmp_path, "--progress")
        err = capsys.readouterr().err
        match = re.search(r"run (\S+) · telemetry (\S+)", err)
        assert match is not None
        manifest, _, _ = load_telemetry(str(telemetry))
        assert match.group(1) == manifest.run_id
        assert match.group(2) == str(telemetry)

    def test_manifest_carries_cli_identity(self, tmp_path, capsys):
        from repro.version import package_version

        telemetry = run_sweep(tmp_path)
        manifest, _, _ = load_telemetry(str(telemetry))
        assert manifest.cli is not None
        assert package_version() in manifest.cli["version"]
        assert manifest.cli["argv"][0] == "sweep"


class TestProfileFlags:
    def test_profile_trials_prints_and_records(self, tmp_path, capsys):
        telemetry = run_sweep(tmp_path, "--profile-trials", "2")
        out = capsys.readouterr().out
        assert "cum s" in out
        _, _, summary = load_telemetry(str(telemetry))
        assert len(summary["profile"]) == 2
        assert summary["profile"][0]["functions"]

    def test_profile_trials_does_not_warn(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["query", "--n", "8", "--trials", "1",
                         "--profile-trials", "1"]) == 0


class TestTopCommand:
    def test_once_renders_finished_run(self, tmp_path, capsys):
        telemetry = run_sweep(tmp_path)
        capsys.readouterr()
        assert main(["top", str(telemetry), "--once"]) == 0
        out = capsys.readouterr().out
        assert "2/2 trials" in out
        assert "done in" in out

    def test_resolves_run_id_prefix_in_dir(self, tmp_path, capsys):
        telemetry = run_sweep(tmp_path)
        manifest, _, _ = load_telemetry(str(telemetry))
        capsys.readouterr()
        assert main(["top", manifest.run_id[:10], "--once",
                     "--dir", str(tmp_path)]) == 0
        assert manifest.run_id in capsys.readouterr().out

    def test_unknown_target_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["top", "nope", "--once", "--dir", str(tmp_path)])


class TestRunsCommands:
    def test_list_shows_ledger(self, tmp_path, capsys):
        telemetry = run_sweep(tmp_path)
        manifest, _, _ = load_telemetry(str(telemetry))
        capsys.readouterr()
        assert main(["runs", "list", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert manifest.run_id in out
        assert "sweep" in out or manifest.plan["name"] in out

    def test_list_empty_directory(self, tmp_path, capsys):
        assert main(["runs", "list", "--dir", str(tmp_path)]) == 0
        assert "no runs" in capsys.readouterr().out

    def test_show_renders_manifest(self, tmp_path, capsys):
        telemetry = run_sweep(tmp_path)
        manifest, _, _ = load_telemetry(str(telemetry))
        capsys.readouterr()
        assert main(["runs", "show", manifest.run_id[:12],
                     "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert manifest.run_id in out
        assert manifest.plan["digest"] in out


def trace_events(path):
    doc = json.loads(path.read_text())
    return doc["traceEvents"] if isinstance(doc, dict) else doc


class TestTraceExportEngine:
    @pytest.fixture()
    def run_with_traces(self, tmp_path):
        trace_dir = tmp_path / "traces"
        telemetry = tmp_path / f"q{TELEMETRY_SUFFIX}"
        assert main([
            "query", "--n", "8", "--trials", "2", "--seed", "7",
            "--trace-sink", "jsonl", "--trace-dir", str(trace_dir),
            "--telemetry", str(telemetry),
        ]) == 0
        traces = sorted(trace_dir.glob("*.jsonl"))
        assert traces
        return telemetry, traces[0]

    def test_engine_only_export(self, tmp_path, capsys):
        telemetry = run_sweep(tmp_path)
        capsys.readouterr()
        merged = tmp_path / "engine.json"
        assert main(["trace", "export", "--engine", str(telemetry),
                     "--format", "chrome", "-o", str(merged)]) == 0
        events = trace_events(merged)
        slices = [e for e in events if e.get("ph") == "X"]
        assert slices
        assert {e["pid"] for e in slices} == {1}
        assert any(e["cat"] == "engine:trial" for e in slices)

    def test_merged_export_has_flow_arrows(self, run_with_traces,
                                           tmp_path, capsys):
        telemetry, trace = run_with_traces
        capsys.readouterr()
        merged = tmp_path / "merged.json"
        assert main(["trace", "export", "--engine", str(telemetry),
                     str(trace), "--format", "chrome",
                     "-o", str(merged)]) == 0
        events = trace_events(merged)
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert pids == {0, 1}
        phases = {e["ph"] for e in events}
        assert {"s", "f"} <= phases
        flow_ids = {e["id"] for e in events if e.get("ph") in ("s", "f")}
        assert any(str(i).startswith("engine-trial-") for i in flow_ids)

    def test_plain_export_still_requires_path(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "export", "--format", "chrome", "-o", "x.json"])
