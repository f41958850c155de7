"""``repro experiment run``: the executor flags go through the blessed
spec path — no deprecation shim, same bytes as the serial run, and either
flag overrides the experiment's own ``executor:`` block."""

from __future__ import annotations

import os
import warnings

import pytest

from repro.cli import main
from repro.obs.ledger import load_telemetry

YAML = """
schema: repro-experiment
version: 1
name: cli-exp
kind: query
grid:
  churn_rate: [0.0, 4.0]
base:
  n: 8
  horizon: 60.0
trials: 3
root_seed: 2007
"""


@pytest.fixture()
def experiment(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(YAML)
    return path


@pytest.fixture()
def serial_doc(experiment, tmp_path):
    out = tmp_path / "serial.json"
    assert main(["experiment", "run", str(experiment),
                 "--output", str(out)]) == 0
    return out.read_bytes()


def run(experiment, tmp_path, *flags):
    """Run with ``flags`` under ``-W error::DeprecationWarning``; returns
    the document bytes and the executor block of the run manifest."""
    out = tmp_path / "flagged.json"
    telemetry = tmp_path / "flagged.telemetry.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert main(["experiment", "run", str(experiment), "--output",
                     str(out), "--telemetry", str(telemetry), *flags]) == 0
    manifest, _, _ = load_telemetry(str(telemetry))
    return out.read_bytes(), manifest.executor


class TestExecutorFlags:
    def test_jobs_flag(self, experiment, serial_doc, tmp_path):
        doc, executor = run(experiment, tmp_path, "--jobs", "2")
        assert doc == serial_doc
        assert (executor["backend"], executor["jobs"]) == ("parallel", 2)

    def test_executor_preset(self, experiment, serial_doc, tmp_path):
        doc, executor = run(experiment, tmp_path, "--executor", "parallel")
        assert doc == serial_doc
        assert executor["name"] == "parallel"

    @pytest.mark.parametrize("flags, backend", [
        (("--jobs", "2"), "parallel"),
        (("--executor", "serial"), "serial"),
        ((), "parallel"),  # no flag: the YAML's own block decides
    ])
    def test_flags_override_the_yaml_block(
        self, experiment, serial_doc, tmp_path, flags, backend
    ):
        experiment.write_text(YAML + "executor: parallel-unchunked\n")
        doc, executor = run(experiment, tmp_path, *flags)
        assert doc == serial_doc
        assert executor["backend"] == backend
        assert (executor["name"] == "parallel-unchunked") == (not flags)

    def test_both_flags_conflict(self, experiment):
        with pytest.raises(SystemExit, match="--executor replaces --jobs"):
            main(["experiment", "run", str(experiment),
                  "--executor", "parallel", "--jobs", "2"])


class TestProgressWorkers:
    """``--progress`` divides its ETA by the workers the run resolves to,
    wherever the executor came from."""

    @pytest.fixture()
    def printers(self, monkeypatch):
        import repro.cli as cli

        built = []

        class Spy(cli._ProgressPrinter):
            def __init__(self, jobs=1, stream=None):
                super().__init__(jobs=jobs, stream=stream)
                built.append(self)

        monkeypatch.setattr(cli, "_ProgressPrinter", Spy)
        return built

    @pytest.mark.parametrize("flags, block, jobs", [
        ((), "", 1),
        ((), "executor:\n  backend: parallel\n  jobs: 2\n", 2),
        (("--executor", "parallel"), "", os.cpu_count() or 1),
    ], ids=["serial", "yaml-block", "preset"])
    def test_printer_workers(self, experiment, printers, capsys, flags,
                             block, jobs):
        experiment.write_text(YAML + block)
        assert main(["experiment", "run", str(experiment), "--progress",
                     *flags]) == 0
        assert [printer.jobs for printer in printers] == [jobs]
