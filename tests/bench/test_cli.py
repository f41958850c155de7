"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main


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
