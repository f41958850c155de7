"""CLI tests for the trace/bench command groups, --version and
--check-invariants (repro.cli)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cli import main


@pytest.fixture()
def trace_file(tmp_path):
    """One churn trial streamed to JSONL via the engine flags."""
    trace_dir = tmp_path / "traces"
    assert main([
        "query", "--n", "10", "--churn-rate", "2.0", "--horizon", "100",
        "--seed", "7", "--trace-sink", "jsonl",
        "--trace-dir", str(trace_dir),
    ]) == 0
    files = list(trace_dir.glob("*.jsonl"))
    assert len(files) == 1
    return files[0]


@pytest.fixture()
def static_trace_file(tmp_path):
    """One static trial (same seed, no churn) whose verdict covers every
    live entity."""
    trace_dir = tmp_path / "static"
    assert main([
        "query", "--n", "10", "--horizon", "100", "--seed", "7",
        "--trace-sink", "jsonl", "--trace-dir", str(trace_dir),
    ]) == 0
    (path,) = trace_dir.glob("*.jsonl")
    return path


def sha256_of(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


class TestTraceOutputPins:
    """sha256 of what ``repro trace analyze``/``export`` print.  The trace
    path in ``analyze``'s first line is replaced by ``<trace>``."""

    ANALYZE_CHURN = (
        "657ef9a786536c27acc65ec752116c1ab6f64bc564e3db62c73eac4ecdc5a1a4"
    )
    ANALYZE_STATIC = (
        "a8ac2526cabe05cb0d630f2ebb51afa2008c0a8d24617f3827d52fc7f5341a40"
    )
    CHROME = "41d3b0af52a3ccd094ec7289aa75f71a1c74df0204264a43e4afa65b33fedb1d"
    ASCII = "4928a58539c75731f70815fc11c20b7ce8b03b7029c0d082935de6202dd0ad49"

    @staticmethod
    def analyze(path, capsys, *extra):
        capsys.readouterr()
        assert main(["trace", "analyze", str(path), *extra]) == 0
        return capsys.readouterr().out.replace(str(path), "<trace>")

    @pytest.mark.parametrize("extra", [(), ("--qid", "0")])
    def test_analyze_churn_trial(self, trace_file, capsys, extra):
        out = self.analyze(trace_file, capsys, *extra)
        assert "misses 1 live entities [23]" in out
        assert sha256_of(out) == self.ANALYZE_CHURN

    def test_analyze_static_trial(self, static_trace_file, capsys):
        out = self.analyze(static_trace_file, capsys)
        assert "covers all live entities" in out
        assert sha256_of(out) == self.ANALYZE_STATIC

    def test_export_chrome_file(self, trace_file, tmp_path):
        out_path = tmp_path / "pinned.json"
        assert main(["trace", "export", str(trace_file),
                     "--format", "chrome", "-o", str(out_path)]) == 0
        assert sha256_of(out_path.read_bytes()) == self.CHROME

    def test_export_ascii_timeline(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", "export", str(trace_file)]) == 0
        assert sha256_of(capsys.readouterr().out) == self.ASCII


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro.version import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert package_version() in capsys.readouterr().out


class TestTraceCommands:
    def test_analyze_reports_influence(self, trace_file, capsys):
        assert main(["trace", "analyze", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "program edges" in out and "message edges" in out
        assert "causal depth" in out

    def test_analyze_explicit_qid(self, trace_file, capsys):
        assert main(["trace", "analyze", str(trace_file),
                     "--qid", "0"]) == 0
        assert "query 0" in capsys.readouterr().out

    def test_check_clean_trace_exits_zero(self, trace_file, capsys):
        assert main(["trace", "check", str(trace_file)]) == 0
        assert "all trace invariants hold" in capsys.readouterr().out

    def test_check_violating_trace_exits_nonzero(self, tmp_path, capsys):
        from repro.obs.codec import encode_event

        bad = tmp_path / "bad.jsonl"
        records = [
            encode_event(0.0, "join", {"entity": 0}),
            encode_event(1.0, "leave", {"entity": 0}),
            encode_event(2.0, "deliver", {"msg_id": 1, "msg_kind": "X",
                                          "sender": 9, "receiver": 0}),
        ]
        bad.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        assert main(["trace", "check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "1 invariant violation" in out
        assert "no_delivery_to_departed" in out

    def test_export_ascii(self, trace_file, capsys):
        assert main(["trace", "export", str(trace_file),
                     "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "trace timeline" in out and "legend:" in out

    def test_export_chrome(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "perfetto.json"
        assert main(["trace", "export", str(trace_file),
                     "--format", "chrome", "-o", str(out_path)]) == 0
        assert "Perfetto" in capsys.readouterr().out
        document = json.loads(out_path.read_text(encoding="utf-8"))
        assert document["traceEvents"]

    def test_export_chrome_requires_output(self, trace_file):
        with pytest.raises(SystemExit):
            main(["trace", "export", str(trace_file), "--format", "chrome"])


class TestBenchDiffCommand:
    @pytest.fixture()
    def documents(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main([
            "query", "--n", "8", "--horizon", "80", "--seed", "3",
            "--trials", "1", "--output", str(baseline),
        ]) == 0
        perturbed = json.loads(baseline.read_text(encoding="utf-8"))
        perturbed["points"][0]["summary"]["completeness"] -= 0.5
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(perturbed), encoding="utf-8")
        return baseline, candidate

    def test_identical_documents_exit_zero(self, documents, capsys):
        baseline, _ = documents
        assert main(["bench", "diff", str(baseline), str(baseline),
                     "--fail-on-regression"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_fails_only_when_asked(self, documents, capsys):
        baseline, candidate = documents
        assert main(["bench", "diff", str(baseline), str(candidate)]) == 0
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["bench", "diff", str(baseline), str(candidate),
                     "--fail-on-regression"]) == 1

    def test_metric_threshold_override(self, documents):
        baseline, candidate = documents
        assert main([
            "bench", "diff", str(baseline), str(candidate),
            "--metric", "completeness=0.9", "--fail-on-regression",
        ]) == 0

    def test_malformed_metric_flag_rejected(self, documents):
        baseline, _ = documents
        with pytest.raises(SystemExit, match="NAME=REL"):
            main(["bench", "diff", str(baseline), str(baseline),
                  "--metric", "completeness"])
        with pytest.raises(SystemExit, match="not a number"):
            main(["bench", "diff", str(baseline), str(baseline),
                  "--metric", "completeness=abc"])


class TestCheckInvariantsFlag:
    def test_query_with_check_invariants_runs_clean(self, capsys):
        assert main([
            "query", "--n", "10", "--churn-rate", "2.0", "--horizon", "100",
            "--check-invariants", "--trials", "1",
        ]) == 0
        assert "one-time query" in capsys.readouterr().out


# ----------------------------------------------------------------------
# InfluenceReport pins: E17's ring trials (its 8 seeds at each churn rate)
# and E4's churn_rate=2.0 cell, each run with the memory sink.  A row is
# (qid, querier, issue_time, verdict_time, verdict_index, causal_depth,
# past_events, influencing_entities, present_at_verdict).
# ----------------------------------------------------------------------

E17_REPORTS = {
    (1.0, 17489643075153848586): (0, 0, 5.0, 9.0, 55, 33, 44,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        22, 24),
        (0, 2, 3, 4, 5, 6, 7, 8, 11, 12, 14, 15, 16, 19, 21, 22, 23, 24, 25,
        26),
    ),
    (1.0, 17560557345804281999): (0, 0, 5.0, 16.120347167202194, 141, 37, 54,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 23, 25, 26),
        (0, 1, 2, 3, 7, 9, 10, 11, 12, 15, 16, 17, 18, 20, 26, 28, 29, 30, 31,
        32),
    ),
    (1.0, 7734571167853026315): (0, 0, 5.0, 16.921854428841115, 157, 52, 115,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 31, 32),
        (0, 4, 8, 10, 11, 13, 20, 22, 23, 24, 25, 27, 28, 30, 31, 32, 33, 34,
        35, 36),
    ),
    (1.0, 5314585383417697098): (0, 0, 5.0, 19.0, 154, 52, 119,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 37,
        38),
        (0, 1, 2, 4, 5, 8, 14, 16, 17, 21, 26, 27, 28, 30, 32, 33, 34, 35, 37,
        38),
    ),
    (1.0, 567501134219545769): (0, 0, 5.0, 13.094904736268413, 103, 36, 51,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 25, 26, 27),
        (0, 2, 3, 4, 5, 8, 9, 13, 14, 16, 18, 19, 20, 21, 22, 25, 26, 27, 28,
        29),
    ),
    (1.0, 10519463775910898082): (0, 0, 5.0, 7.0, 47, 26, 37,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 25, 26, 27),
        (0, 1, 3, 4, 5, 6, 8, 9, 11, 12, 13, 15, 16, 17, 19, 21, 24, 25, 26,
        28),
    ),
    (1.0, 4158956077026179418): (0, 0, 5.0, 23.0, 157, 66, 125,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 36),
        (0, 8, 14, 17, 18, 19, 21, 25, 28, 29, 31, 32, 33, 34, 35, 38, 39, 40,
        41, 42),
    ),
    (1.0, 1930091748631751555): (0, 0, 5.0, 15.694482663182361, 96, 38, 58,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 28, 29, 30, 31),
        (0, 1, 2, 9, 10, 16, 17, 19, 20, 22, 23, 26, 27, 28, 29, 30, 31, 32,
        33, 34),
    ),
    (2.0, 17489643075153848586): (0, 0, 5.0, 9.0, 75, 34, 59,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32),
        (0, 2, 5, 6, 8, 11, 12, 14, 19, 22, 23, 24, 26, 27, 28, 29, 31, 32,
        33, 34),
    ),
    (2.0, 17560557345804281999): (0, 0, 5.0, 11.699659896610083, 103, 41, 67,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 23, 25, 26, 29, 32, 33, 34, 35, 38),
        (0, 1, 2, 3, 9, 10, 17, 18, 20, 26, 29, 30, 31, 32, 34, 35, 36, 37,
        38, 39),
    ),
    (2.0, 7734571167853026315): (0, 0, 5.0, 11.0, 157, 41, 88,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
        37, 38, 40),
        (0, 4, 8, 10, 11, 13, 22, 25, 27, 28, 30, 31, 33, 34, 35, 36, 37, 38,
        40, 41),
    ),
    (2.0, 5314585383417697098): (0, 0, 5.0, 10.742132118373641, 99, 26, 35,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 23, 24, 25, 26, 28, 29, 33, 34, 35, 38),
        (0, 2, 4, 5, 14, 16, 17, 21, 26, 28, 30, 32, 33, 34, 35, 37, 38, 39,
        40, 41),
    ),
    (2.0, 567501134219545769): (0, 0, 5.0, 6.630555338714085, 49, 23, 25,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        21, 27),
        (0, 2, 3, 4, 5, 8, 9, 13, 14, 16, 18, 20, 21, 25, 26, 27, 28, 29, 30,
        31),
    ),
    (2.0, 10519463775910898082): (0, 0, 5.0, 7.0, 55, 26, 33,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 25, 26, 27),
        (0, 5, 6, 8, 9, 12, 13, 15, 16, 17, 19, 21, 24, 28, 29, 30, 31, 32,
        33, 34),
    ),
    (2.0, 4158956077026179418): (0, 0, 5.0, 14.170300062166787, 142, 39, 68,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 34, 35, 36, 38,
        39, 41, 44),
        (0, 8, 17, 18, 19, 21, 25, 29, 31, 33, 34, 35, 38, 39, 40, 41, 42, 43,
        44, 45),
    ),
    (2.0, 1930091748631751555): (0, 0, 5.0, 14.457802400386598, 187, 36, 59,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 28, 29, 30, 31, 32, 33, 39),
        (0, 1, 2, 10, 16, 20, 22, 26, 28, 31, 32, 34, 35, 37, 39, 40, 41, 42,
        43, 44),
    ),
    (4.0, 17489643075153848586): (0, 0, 5.0, 9.0, 120, 37, 65,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
        38, 39, 42, 43, 44, 45, 47, 48, 50, 52),
        (0, 2, 5, 8, 11, 14, 19, 33, 34, 36, 41, 43, 44, 45, 47, 48, 50, 51,
        52, 53),
    ),
    (4.0, 17560557345804281999): (0, 0, 5.0, 10.520350015717371, 152, 38, 72,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
        37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53,
        54, 59, 61, 63),
        (0, 2, 17, 20, 30, 39, 40, 44, 49, 51, 52, 56, 58, 59, 60, 61, 62, 63,
        64, 65),
    ),
    (4.0, 7734571167853026315): (0, 0, 5.0, 10.616212839790743, 151, 34, 57,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
        39, 43, 44, 47, 50),
        (0, 8, 10, 11, 28, 30, 33, 36, 37, 40, 41, 44, 46, 48, 49, 52, 53, 54,
        55, 56),
    ),
    (4.0, 5314585383417697098): (0, 0, 5.0, 8.0343709546994, 133, 34, 49,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 37,
        38, 39, 42, 43, 46, 49),
        (0, 14, 16, 30, 33, 37, 40, 42, 43, 46, 47, 48, 49, 51, 52, 53, 54,
        55, 56, 57),
    ),
    (4.0, 567501134219545769): (0, 0, 5.0, 7.0, 77, 29, 42,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 25, 26, 27, 28, 29, 30, 31, 32, 33, 35, 37, 39),
        (0, 3, 4, 9, 16, 20, 27, 28, 30, 31, 32, 33, 36, 38, 39, 40, 41, 42,
        43, 45),
    ),
    (4.0, 10519463775910898082): (0, 0, 5.0, 5.0, 63, 21, 22,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
        19),
        (0, 6, 9, 13, 15, 16, 17, 21, 24, 28, 29, 30, 31, 32, 33, 34, 35, 36,
        38, 40),
    ),
    (4.0, 4158956077026179418): (0, 0, 5.0, 8.520211266228955, 113, 33, 48,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 31, 32, 34, 35, 36, 38, 39,
        41, 44),
        (0, 8, 17, 18, 21, 25, 29, 33, 34, 35, 38, 39, 43, 44, 45, 46, 47, 48,
        49, 50),
    ),
    (4.0, 1930091748631751555): (0, 0, 5.0, 7.484599836388087, 78, 23, 25,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        28, 29),
        (0, 2, 10, 16, 20, 22, 26, 28, 31, 32, 34, 35, 37, 39, 40, 41, 42, 43,
        44, 45),
    ),
}
E4_CELL_REPORTS = {
    17489643075153848586: (0, 0, 5.0, 13.027961063394567, 536, 68, 398,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 37,
        38, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 53),
        (0, 4, 7, 9, 10, 11, 14, 21, 24, 32, 36, 37, 38, 40, 41, 42, 43, 44,
        45, 47, 48, 49, 50, 52, 53, 54, 55, 56, 57, 59, 60, 61),
    ),
    17560557345804281999: (0, 0, 5.0, 17.217218147949005, 605, 75, 546,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
        37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 53, 55,
        56, 57, 58, 59),
        (0, 1, 2, 3, 6, 8, 10, 14, 18, 19, 23, 30, 31, 32, 35, 36, 39, 40, 42,
        43, 44, 45, 47, 51, 52, 53, 54, 55, 56, 57, 58, 59),
    ),
    7734571167853026315: (0, 0, 5.0, 12.239810004054117, 541, 82, 446,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
        37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51),
        (0, 1, 3, 4, 6, 8, 9, 13, 17, 18, 24, 25, 29, 31, 33, 34, 35, 36, 37,
        38, 42, 44, 45, 46, 48, 50, 51, 53, 54, 55, 56, 57),
    ),
    5314585383417697098: (0, 0, 5.0, 13.0122724977873, 543, 78, 434,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
        37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53,
        55),
        (0, 5, 7, 9, 11, 13, 16, 20, 21, 22, 31, 36, 37, 40, 41, 44, 45, 47,
        48, 49, 51, 52, 53, 54, 56, 57, 58, 59, 60, 61, 62, 63),
    ),
    567501134219545769: (0, 0, 5.0, 13.929085378063734, 667, 90, 541,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
        37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 52),
        (0, 1, 2, 3, 4, 6, 7, 8, 13, 16, 20, 22, 24, 27, 33, 34, 35, 36, 37,
        38, 40, 41, 42, 44, 46, 48, 50, 54, 55, 56, 57, 58),
    ),
    10519463775910898082: (0, 0, 5.0, 12.992937388896282, 650, 88, 489,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
        37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 49),
        (0, 1, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 21, 24, 25, 29, 31, 34, 35,
        39, 40, 43, 44, 45, 47, 48, 50, 51, 52, 53, 54, 55),
    ),
}


def influence_of(trace):
    from repro.obs.causal import InfluenceReport

    return InfluenceReport.from_trace(trace)


def pinned_report(row):
    from repro.obs.causal import InfluenceReport

    *scalars, influencing, present = row
    fields = dict(zip(
        ("qid", "querier", "issue_time", "verdict_time", "verdict_index",
         "causal_depth", "past_events"), scalars,
    ))
    return InfluenceReport(
        **fields,
        influencing_entities=frozenset(influencing),
        present_at_verdict=frozenset(present),
        outside_causal_past=frozenset(present) - frozenset(influencing),
    )


class TestInfluenceReportPins:
    @pytest.mark.parametrize("rate", [1.0, 2.0, 4.0])
    def test_e17_ring_trials(self, rate):
        from repro.churn.models import ReplacementChurn
        from repro.engine.trials import QueryConfig, run_query
        from repro.sim.latency import ConstantDelay
        from repro.sim.rng import iter_seeds

        for seed in iter_seeds(2007, 8):
            outcome = run_query(QueryConfig(
                n=20, topology="ring", aggregate="COUNT", seed=seed,
                horizon=200.0, delay=ConstantDelay(1.0),
                churn=lambda f: ReplacementChurn(f, rate=rate),
                trace_sink="memory",
            ))
            assert influence_of(outcome.trace) == pinned_report(
                E17_REPORTS[rate, seed]
            ), (rate, seed)

    def test_e4_churn_cell(self):
        from repro.engine.plan import build_plan
        from repro.engine.trials import run_query

        plan = build_plan(
            "e4-churn-sweep", kind="query",
            grid={"churn_rate": [0.0, 0.25, 1.0, 2.0, 4.0, 8.0]},
            base={"n": 32, "topology": "er", "aggregate": "COUNT",
                  "horizon": 250.0},
            trials=6, root_seed=2007,
        )
        cell = [s for s in plan.specs if s.point_dict()["churn_rate"] == 2.0]
        assert [s.seed for s in cell] == list(E4_CELL_REPORTS)
        for spec in cell:
            config = replace(spec.to_config(), trace_sink="memory")
            assert influence_of(run_query(config).trace) == pinned_report(
                E4_CELL_REPORTS[spec.seed]
            ), spec.seed
