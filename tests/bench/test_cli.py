"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from repro.cli import main
from repro.version import package_version


class TestQueryCommand:
    def test_static_query(self, capsys):
        assert main(["query", "--n", "10", "--trials", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "one-time query" in out
        assert out.count("OK") >= 2

    def test_churn_query(self, capsys):
        assert main([
            "query", "--n", "16", "--churn-rate", "2.0", "--trials", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "completeness" in out

    def test_request_collect(self, capsys):
        assert main([
            "query", "--protocol", "request_collect", "--n", "8",
            "--aggregate", "AVG",
        ]) == 0
        assert "OK" in capsys.readouterr().out

    def test_ttl_flag(self, capsys):
        assert main([
            "query", "--n", "10", "--topology", "ring", "--ttl", "5",
        ]) == 0
        assert "OK" in capsys.readouterr().out


class TestGossipCommand:
    def test_avg(self, capsys):
        assert main(["gossip", "--n", "12", "--rounds", "40"]) == 0
        assert "push-sum avg" in capsys.readouterr().out

    def test_count(self, capsys):
        assert main(["gossip", "--n", "12", "--mode", "count",
                     "--rounds", "60"]) == 0
        assert "push-sum count" in capsys.readouterr().out


class TestMatrixCommand:
    def test_matrix(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "M_inf_unbounded" in out
        assert "G_local" in out
        assert "NO" in out


class TestDescribeCommand:
    @pytest.mark.parametrize("arrival", [
        "static", "finite", "inf-bounded", "inf-finite", "inf-unbounded",
    ])
    @pytest.mark.parametrize("knowledge", ["complete", "diameter", "size", "local"])
    def test_every_point_describable(self, capsys, arrival, knowledge):
        assert main(["describe", "--arrival", arrival,
                     "--knowledge", knowledge]) == 0
        out = capsys.readouterr().out
        assert "one-time query:" in out
        assert "argument:" in out

    def test_unknown_arrival_rejected(self):
        with pytest.raises(SystemExit):
            main(["describe", "--arrival", "chaotic", "--knowledge", "local"])


class TestSweepCommand:
    def test_sweep(self, capsys):
        assert main([
            "sweep", "--rates", "0,4.0", "--n", "12", "--trials", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "churn sweep" in out
        assert "completeness" in out

    def test_sweep_output_document(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        assert main([
            "sweep", "--rates", "0,4.0", "--n", "12", "--trials", "2",
            "--output", str(path),
        ]) == 0
        from repro.engine.results import ResultStore

        store = ResultStore.load(str(path))
        assert len(store) == 4
        assert store.plan["name"] == "churn-sweep"

    def test_sweep_jobs_do_not_change_results(self, capsys, tmp_path):
        serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
        common = ["sweep", "--rates", "0,4.0", "--n", "10", "--trials", "2"]
        assert main([*common, "--jobs", "1", "--output", str(serial)]) == 0
        assert main([*common, "--jobs", "2", "--output", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_text() == parallel.read_text()

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


SMALL = ["--n", "8", "--trials", "2", "--seed", "11"]

#: argv -> sha256 of its ``--output`` document (the package version masked
#: as ``<version>``), recorded while each command still ran its own trial
#: loop; lowering every command onto ``run_experiment`` keeps every byte.
DOCUMENT_PINS = {
    "sweep-faults": (
        ["sweep", "--rates", "0,4", *SMALL, "--fault-plan", "drop-storm",
         "--resilience", "arq", "--trace-sink", "counts",
         "--check-invariants", "--output", "{tmp}/doc.json"],
        "27b94ef1d8fa84b764a9229aa3fb58171708395b7441c2e4c92c259d71753416",
    ),
    "sweep-jobs2-jsonl": (
        ["sweep", "--rates", "0,4", *SMALL, "--jobs", "2",
         "--output", "{tmp}/doc.jsonl"],
        "c2a780bd16e37c8d2eaccfb03f10671dd323dcf7c03af40d34f2a6e294be9835",
    ),
    "query-churn": (
        ["query", *SMALL, "--churn-rate", "2", "--output", "{tmp}/doc.json"],
        "739500dc725d63a7d2ba4d4deb7c70fec31aaf992c11548884240aecfcdb9dff",
    ),
    "gossip-churn": (
        ["gossip", *SMALL, "--rounds", "20", "--churn-rate", "1",
         "--output", "{tmp}/doc.json"],
        "ba621ec10ce16a4147bb3efc0859c73d6a0382fbe4b5f0699e050d58c5f0a992",
    ),
}

#: argv -> sha256 of its stdout, recorded the same way.
STDOUT_PINS = {
    "scenario-flash-crowd":
        "84f02f4716fb5216da3dee2b41b2c3da9433f37d6306d17b9e841854cd16f8c5",
    "scenario-p2p-heavy-tail":
        "423e47f1e85437c71faec75f41904cf28a24173b42d3660725c515af4adf9d21",
    "scenario-static-deep":
        "c0183790941545b300ac0f964862e0da7f5f7136f4e4682242bf3c5ca4e159bf",
    "scenario-static-small":
        "543b7735b98fecda00d84814b3b959869e023b29a4c6ae6de23a30ae6cae6fe8",
    "scenario-steady-churn":
        "e6f0dd22aada5373db4f5c4813e9c5c17f1a1b65ea698a3a8d90d0da6c6be9f0",
    "scenario-storm-and-calm":
        "50ecfd25503846c513c90ff279334ba8c4ffec880a0f9b3bc30393e7a2837fc4",
    "report":
        "aa45ebda2c7dcb25790cb29a72cd8bd826d52348576d9aa6c88fa7aae94f0488",
}


def stdout_argv(name):
    if name == "report":
        return ["report", "--n", "10", "--trials", "2", "--seed", "5"]
    return ["scenario", name.removeprefix("scenario-"), "--trials", "2",
            "--seed", "3"]


@pytest.mark.parametrize("name", [*DOCUMENT_PINS, *STDOUT_PINS])
def test_output_is_byte_identical_to_the_pinned_bytes(name, tmp_path):
    stdout = io.StringIO()
    if name in DOCUMENT_PINS:
        template, pin = DOCUMENT_PINS[name]
        argv = [token.format(tmp=tmp_path) for token in template]
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        data = open(argv[-1], "rb").read().replace(
            package_version().encode(), b"<version>"
        )
    else:
        pin = STDOUT_PINS[name]
        with contextlib.redirect_stdout(stdout):
            assert main(stdout_argv(name)) == 0
        data = stdout.getvalue().encode()
    assert hashlib.sha256(data).hexdigest() == pin
