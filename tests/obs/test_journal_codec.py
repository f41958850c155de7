"""One journal codec: every JSONL file is appended and read back one way.

The result stream, the checkpoint journal, the telemetry stream and trace
files share :func:`repro.obs.codec.open_journal` and
:class:`repro.obs.codec.JournalScan` (docs/OBSERVABILITY.md, "Journal
files").  Three parts:

* a conformance table — the four formats (five readers: telemetry is read
  post mortem and tailed live) through the same damage, each asserting
  that reader's documented outcome;
* a derandomised property on the scan: random records, then a random cut
  or a single flipped byte — the scan returns exactly the records whose
  newline survived, or raises its typed error, and nothing else;
* a differential: the bytes a run leaves on disk, pinned to the digests
  the per-format writers produced before they shared the codec.

Where the one rule changed what a reader used to do, the case is named
below (``TestOneRuleChanges``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.engine.executor import ParallelExecutor, run_plan, stream_plan
from repro.engine.plan import build_plan
from repro.engine.recovery.checkpoint import CheckpointError, load_checkpoint
from repro.engine.results import load_document
from repro.obs.codec import (
    CorruptLineError,
    JournalScan,
    SchemaVersionError,
    open_journal,
)
from repro.obs.ledger import TelemetryTail, load_telemetry, scan_runs
from repro.obs.metrics import strip_timings
from repro.obs.spans import read_telemetry
from repro.sim.errors import ConfigurationError
from repro.sim.trace import TraceLog
from repro.version import package_version

PLAN = build_plan(
    "codec-plan", kind="query",
    grid={"churn_rate": [0.0, 8.0]},
    base={"n": 6, "topology": "er", "aggregate": "COUNT", "horizon": 80.0},
    trials=2, root_seed=5,
)


def lines_of(path: str) -> list[bytes]:
    with open(path, "rb") as handle:
        return handle.read().splitlines(keepends=True)


def write_lines(path: str, lines: list[bytes]) -> None:
    with open(path, "wb") as handle:
        handle.write(b"".join(lines))


@pytest.fixture(scope="module")
def originals(tmp_path_factory) -> dict[str, str]:
    """One file of each format, written by one run."""
    root = tmp_path_factory.mktemp("journals")
    plan = build_plan(
        "codec-plan", kind="query", grid={"churn_rate": [0.0, 8.0]},
        base={"n": 6, "topology": "er", "aggregate": "COUNT",
              "horizon": 80.0, "trace_sink": "jsonl",
              "trace_path": str(root / "trace-{index}.jsonl")},
        trials=2, root_seed=5,
    )
    stream_plan(plan, str(root / "stream.jsonl"),
                checkpoint=str(root / "checkpoint.jsonl"),
                telemetry=str(root / "telemetry.jsonl"))
    return {
        "stream": str(root / "stream.jsonl"),
        "checkpoint": str(root / "checkpoint.jsonl"),
        "telemetry": str(root / "telemetry.jsonl"),
        "telemetry-tail": str(root / "telemetry.jsonl"),
        "trace": str(root / "trace-1.jsonl"),
    }


# ----------------------------------------------------------------------
# The conformance table
# ----------------------------------------------------------------------


#: reader name -> (what line 1 is, read(path) -> records read).  A stream
#: or checkpoint header is not a record; a telemetry manifest is one; a
#: trace has no header.
READERS: dict[str, tuple[str | None, Callable[[str], int]]] = {
    "stream": ("header", lambda path: sum(
        len(point["trials"]) for point in load_document(path)["points"])),
    "checkpoint": ("header", lambda path: len(load_checkpoint(path).records)),
    "telemetry": ("record", lambda path: len(list(read_telemetry(path)))),
    "telemetry-tail": ("record", lambda path: TelemetryTail(path).poll()),
    "trace": (None, lambda path: len(TraceLog.load_jsonl(path))),
}


@dataclass(frozen=True)
class Reads:
    """The reader returns ``records`` ("all", "all but last", "before
    damage" or a number), warning with ``warning`` — or, when it is
    ``None``, without any RuntimeWarning."""

    records: Any
    warning: str | None = None


@dataclass(frozen=True)
class Raises:
    error: type
    match: str


SILENT_TORN = Reads("all but last")
TABLE: dict[str, dict[str, Reads | Raises]] = {
    # A final line without its newline: dropped.  Post-mortem readers
    # warn; live telemetry readers tail a file still being written.
    "torn": {
        "stream": Reads("all but last", "torn final stream line"),
        "checkpoint": Reads("all but last", "torn final checkpoint line"),
        "telemetry": SILENT_TORN,
        "telemetry-tail": SILENT_TORN,
        "trace": Reads("all but last", "torn final trace line"),
    },
    # A complete line that does not parse.  Only the checkpoint keeps its
    # valid prefix (lost trials re-execute); a document cannot be rebuilt.
    "corrupt middle": {
        "stream": Raises(CorruptLineError, "corrupt line"),
        "checkpoint": Reads("before damage", "corrupt checkpoint line"),
        "telemetry": Raises(CorruptLineError, "corrupt line"),
        "telemetry-tail": Raises(CorruptLineError, "corrupt line"),
        "trace": Raises(CorruptLineError, "corrupt line"),
    },
    "blank lines": {name: Reads("all") for name in READERS},
    "empty file": {
        "stream": Raises(ConfigurationError, "not a JSON document"),
        "checkpoint": Raises(CheckpointError, "empty checkpoint journal"),
        "telemetry": Reads(0),
        "telemetry-tail": Reads(0),
        "trace": Reads(0),
    },
    # Trace files have no header: a header line is simply not an event.
    "foreign header": {
        "stream": Raises(ConfigurationError, "not a repro-engine-results"),
        "checkpoint": Raises(CheckpointError, "not a repro-run-checkpoint"),
        "telemetry": Raises(ConfigurationError, "not a repro-run-telemetry"),
        "telemetry-tail": Raises(ConfigurationError,
                                 "not a repro-run-telemetry"),
        "trace": Raises(ConfigurationError, "not a trace event"),
    },
    "future version": {
        "stream": Raises(SchemaVersionError, "version 99"),
        "checkpoint": Raises(CheckpointError, "unsupported checkpoint"),
        "telemetry": Raises(SchemaVersionError, "unsupported telemetry"),
        "telemetry-tail": Raises(SchemaVersionError,
                                 "unsupported telemetry"),
        "trace": Raises(ConfigurationError, "not a trace event"),
    },
}


def with_header(lines: list[bytes], line1: str | None,
                **fields: Any) -> list[bytes]:
    if line1 is None:
        header: dict[str, Any] = {"schema": "repro-trace", "version": 1}
        return [(json.dumps(dict(header, **fields)) + "\n").encode()] + lines
    header = json.loads(lines[0])
    header.update(fields)
    return [(json.dumps(header, sort_keys=True) + "\n").encode()] + lines[1:]


def check(reader: str, path: str, outcome: Reads | Raises,
          total: int, before_damage: int = 0) -> None:
    read = READERS[reader][1]
    if isinstance(outcome, Raises):
        with pytest.raises(outcome.error, match=outcome.match):
            read(path)
        return
    expected = {"all": total, "all but last": total - 1,
                "before damage": before_damage}.get(outcome.records,
                                                    outcome.records)
    if outcome.warning is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert read(path) == expected
    else:
        with pytest.warns(RuntimeWarning, match=outcome.warning):
            assert read(path) == expected


@pytest.mark.parametrize("reader", sorted(READERS))
class TestConformance:
    def copy(self, originals, tmp_path, reader):
        """The reader's file, its lines, what line 1 is, its record count."""
        path = str(tmp_path / "journal.jsonl")
        shutil.copyfile(originals[reader], path)
        line1 = READERS[reader][0]
        lines = lines_of(path)
        return path, lines, line1, len(lines) - (line1 == "header")

    def test_intact_file_reads_whole(self, originals, tmp_path, reader):
        path, _, _, total = self.copy(originals, tmp_path, reader)
        assert total >= 3
        check(reader, path, Reads("all"), total)

    def test_torn_final_line_at_every_width(self, originals, tmp_path,
                                            reader):
        path, lines, _, total = self.copy(originals, tmp_path, reader)
        last = lines[-1]
        for width in range(1, len(last)):
            write_lines(path, lines[:-1] + [last[:len(last) - width]])
            check(reader, path, TABLE["torn"][reader], total)
        # The whole line gone is no tear: a clean, shorter file.
        write_lines(path, lines[:-1])
        check(reader, path, Reads("all"), total - 1)

    def test_corrupt_middle_line(self, originals, tmp_path, reader):
        path, lines, line1, total = self.copy(originals, tmp_path, reader)
        middle = len(lines) // 2
        write_lines(path, lines[:middle] + [b"{ not json\n"]
                    + lines[middle + 1:])
        check(reader, path, TABLE["corrupt middle"][reader], total,
              before_damage=middle - (line1 == "header"))

    def test_blank_lines_are_skipped(self, originals, tmp_path, reader):
        path, lines, _, total = self.copy(originals, tmp_path, reader)
        padded = [lines[0], b"\n"] + lines[1:-1] + [b"  \t \n", lines[-1]]
        write_lines(path, padded)
        check(reader, path, TABLE["blank lines"][reader], total)

    def test_empty_file(self, originals, tmp_path, reader):
        path, _, _, _ = self.copy(originals, tmp_path, reader)
        write_lines(path, [])
        check(reader, path, TABLE["empty file"][reader], 0)

    def test_foreign_header(self, originals, tmp_path, reader):
        path, lines, line1, total = self.copy(originals, tmp_path, reader)
        write_lines(path, with_header(lines, line1, schema="someone-elses"))
        check(reader, path, TABLE["foreign header"][reader], total)

    def test_future_version(self, originals, tmp_path, reader):
        path, lines, line1, total = self.copy(originals, tmp_path, reader)
        write_lines(path, with_header(lines, line1, version=99))
        check(reader, path, TABLE["future version"][reader], total)


class TestLiveTail:
    def test_torn_line_is_read_whole_once_completed(self, originals,
                                                    tmp_path):
        lines = lines_of(originals["telemetry"])
        path = str(tmp_path / "live.jsonl")
        write_lines(path, lines[:-1] + [lines[-1][:5]])
        tail = TelemetryTail(path)
        assert tail.poll() == len(lines) - 1
        assert tail.summary is None
        with open(path, "ab") as handle:
            handle.write(lines[-1][5:])
        assert tail.poll() == 1
        assert tail.finished
        assert tail.poll() == 0

    def test_file_not_yet_written_polls_nothing(self, tmp_path):
        assert TelemetryTail(str(tmp_path / "later.jsonl")).poll() == 0


# ----------------------------------------------------------------------
# The scan, fuzzed
# ----------------------------------------------------------------------

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False),
)
RECORDS = st.lists(
    st.dictionaries(st.text(max_size=4), VALUES, max_size=4), max_size=6,
)
DAMAGE = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 1 << 16), st.just(0)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 255)),
)


def oracle(data: bytes) -> tuple[list[Any] | None, int]:
    """What a scan of ``data`` must give: the records of its complete
    lines (``None`` when one of them is not a JSON object) and the length
    of the newline-terminated prefix."""
    complete = data[:data.rfind(b"\n") + 1]
    records = []
    for line in complete.split(b"\n")[:-1]:
        if not line.strip():
            continue
        try:
            record = json.loads((line + b"\n").decode())
        except ValueError:
            return None, len(complete)
        if type(record) is not dict:
            return None, len(complete)
        records.append(record)
    return records, len(complete)


class TestScanProperty:
    @given(records=RECORDS, damage=DAMAGE)
    def test_records_whose_newline_survived_or_the_typed_error(
        self, tmp_path_factory, records, damage
    ):
        lines = [(json.dumps(r, sort_keys=True) + "\n").encode()
                 for r in records]
        data = b"".join(lines)
        how, at, byte = damage
        if how == "cut":
            data = data[:at % (len(data) + 1)]
            ends = list(itertools.accumulate(map(len, lines)))
            kept = sum(end <= len(data) for end in ends)
            expected, valid = records[:kept], ends[kept - 1] if kept else 0
        else:
            if not data:
                return
            at %= len(data)
            data = data[:at] + bytes([byte]) + data[at + 1:]
            expected, valid = oracle(data)
        path = tmp_path_factory.mktemp("scan") / "f.jsonl"
        path.write_bytes(data)
        scan = JournalScan(path)
        try:
            got = list(scan)
        except CorruptLineError as error:
            assert expected is None, error
            assert str(path) in str(error)
            return
        assert got == expected
        assert scan.offset == valid
        assert scan.torn == len(data) - valid

    def test_offset_resumes_a_second_pass(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": 2}\n{"c"')
        scan = JournalScan(path)
        assert list(scan) == [{"a": 1}, {"b": 2}]
        assert (scan.offset, scan.line, scan.torn) == (18, 2, 4)
        with open(path, "ab") as handle:
            handle.write(b': 3}\n{"d": 4}\n')
        assert list(scan) == [{"c": 3}, {"d": 4}]
        assert (scan.offset, scan.line, scan.torn) == (len(path.read_bytes()), 4, 0)

    def test_corrupt_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"a": 1}\n[1, 2]\n{"c": 3}\n')
        with pytest.raises(CorruptLineError, match=r"f\.jsonl: corrupt line 2"):
            list(JournalScan(path))


# ----------------------------------------------------------------------
# The appender
# ----------------------------------------------------------------------


class TestAppender:
    def test_creates_parents_and_writes_sorted_header(self, tmp_path):
        path = str(tmp_path / "new" / "dir" / "j.jsonl")
        with open_journal(path, {"b": 1, "a": [2]}) as journal:
            journal.write('{"x": 1}\n')
            # Flushed per line: a reader sees it before close.
            assert lines_of(path) == [b'{"a": [2], "b": 1}\n', b'{"x": 1}\n']
        assert journal.closed

    def test_keep_cuts_back_to_the_valid_prefix(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        write_lines(path, [b'{"h": 1}\n', b'{"x": 1}\n', b'{"torn'])
        scan = JournalScan(path)
        assert list(scan) == [{"h": 1}, {"x": 1}]
        with open_journal(path, keep=scan.offset) as journal:
            journal.write('{"y": 2}\n')
        assert lines_of(path) == [b'{"h": 1}\n', b'{"x": 1}\n', b'{"y": 2}\n']

    def test_every_writer_creates_its_directory(self, tmp_path):
        # The stream was the one writer that did not: stream_plan into a
        # new directory raised FileNotFoundError unless a checkpoint
        # happened to create it first.
        out = tmp_path / "new" / "dir" / "out.jsonl"
        assert stream_plan(PLAN, str(out)) == len(PLAN)
        run_plan(PLAN, checkpoint=str(tmp_path / "a" / "c.jsonl"),
                 telemetry=str(tmp_path / "b" / "t.jsonl"))
        assert load_document(str(out))["points"]
        assert len(load_checkpoint(str(tmp_path / "a" / "c.jsonl")).records) == len(PLAN)
        assert load_telemetry(str(tmp_path / "b" / "t.jsonl"))[2] is not None


# ----------------------------------------------------------------------
# Where the one rule changed what a reader does
# ----------------------------------------------------------------------


class TestOneRuleChanges:
    def test_stream_line_that_lost_only_its_newline_is_torn(self, originals,
                                                            tmp_path):
        # Before: a last line that still parsed was kept.  A line is only
        # whole once its newline is on disk, in every format.
        path = str(tmp_path / "s.jsonl")
        data = Path(originals["stream"]).read_bytes()
        write_lines(path, [data[:-1]])
        with pytest.warns(RuntimeWarning, match="torn final stream line"):
            document = load_document(path)
        assert sum(len(p["trials"]) for p in document["points"]) == len(PLAN) - 1

    def test_stream_garbled_final_complete_line_raises(self, originals,
                                                      tmp_path):
        # Before: any unparseable last line was taken for a torn append.
        # A newline-terminated line is complete, so garbage there is
        # corruption.
        path = str(tmp_path / "s.jsonl")
        lines = lines_of(originals["stream"])
        write_lines(path, lines[:-1] + [b"{ garbage\n"])
        with pytest.raises(CorruptLineError, match=f"corrupt line {len(lines)}"):
            load_document(path)

    def test_corrupt_middle_telemetry_line_is_not_the_end_of_the_run(
        self, originals, tmp_path
    ):
        # Before: read_telemetry stopped at the bad line as if the file
        # ended there (losing the summary: scan_runs listed a completed
        # run as "interrupted"), while TelemetryTail skipped it — `repro
        # runs` and `repro top` disagreed about one file.  Now both raise,
        # and the ledger skips the unreadable file as it skips any other.
        runs = tmp_path / "runs"
        runs.mkdir()
        path = str(runs / "run-x.telemetry.jsonl")
        lines = lines_of(originals["telemetry"])
        write_lines(path, [lines[0], b"{ not json\n"] + lines[1:])
        assert scan_runs(str(runs)) == []
        with pytest.raises(CorruptLineError):
            list(read_telemetry(path))
        with pytest.raises(CorruptLineError):
            TelemetryTail(path).poll()
        shutil.copyfile(originals["telemetry"], path)
        assert [e["status"] for e in scan_runs(str(runs))] == ["completed"]

    def test_trace_torn_tail_warns_and_wrong_shape_is_typed(self, originals,
                                                           tmp_path):
        # Before: a raw json.JSONDecodeError and a KeyError: 'd'.
        lines = lines_of(originals["trace"])
        torn = str(tmp_path / "torn.jsonl")
        write_lines(torn, lines[:-1] + [lines[-1][:-3]])
        with pytest.warns(RuntimeWarning, match="torn final trace line"):
            assert len(TraceLog.load_jsonl(torn)) == len(lines) - 1
        with pytest.raises(ConfigurationError, match="line 1 is not a trace event"):
            TraceLog.load_jsonl(originals["telemetry"])


class TestCliOneLineErrors:
    @pytest.mark.parametrize("argv", [
        ["trace", "analyze"],
        ["trace", "check"],
        ["trace", "export"],
    ])
    def test_trace_commands_refuse_a_non_trace_file(self, originals, argv):
        with pytest.raises(SystemExit, match="not a trace event"):
            main(argv + [originals["telemetry"]])

    def test_trace_export_engine_refuses_a_corrupt_telemetry_file(
        self, originals, tmp_path
    ):
        path = str(tmp_path / "t.jsonl")
        lines = lines_of(originals["telemetry"])
        write_lines(path, [lines[0], b"{ not json\n"] + lines[1:])
        with pytest.raises(SystemExit, match="corrupt line 2"):
            main(["trace", "export", "--engine", path, "--format", "chrome",
                  "--output", str(tmp_path / "out.json")])

    def test_torn_trace_still_exports(self, originals, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        lines = lines_of(originals["trace"])
        write_lines(path, lines[:-1] + [lines[-1][:-3]])
        out = tmp_path / "chrome.json"
        with pytest.warns(RuntimeWarning, match="torn final trace line"):
            assert main(["trace", "export", path, "--format", "chrome",
                         "--output", str(out)]) == 0
        assert json.loads(out.read_text())

    @pytest.mark.parametrize("argv", [["top", "--once"], ["runs", "show"]])
    def test_run_commands_refuse_a_corrupt_telemetry_file(
        self, originals, tmp_path, argv
    ):
        path = str(tmp_path / "t.jsonl")
        lines = lines_of(originals["telemetry"])
        write_lines(path, [lines[0], b"{ not json\n"] + lines[1:])
        with pytest.raises(SystemExit, match="corrupt line 2"):
            main(argv + [path])


# ----------------------------------------------------------------------
# The differential: bytes on disk are those written before the codec
# ----------------------------------------------------------------------

#: sha256 of the stream (package version masked) and of the four trace
#: files concatenated in name order, of the checkpoint's trial lines with
#: their timing fields removed, and the telemetry key sets per record
#: type — all taken from the writers as they were before the codec.
STREAM_SHA = "fc459e175495501262eb5b1b8db12f7405f838237b428957fcd0aa324680db11"
TRACE_SHA = "59799080e5dfbbce23ff625e881b49659713d2ba89d0dee94d5cc5da1f1ef72f"
CHECKPOINT_SHA = "4f66094abf79aeacd425f7a955b7853afd19b73621f1eea8d7293135808892cc"
SPAN = ["attrs", "name", "parent_id", "span_id", "t0", "t1", "type"]
TELEMETRY_KEYS = {
    "manifest": ["checkpoint", "executor", "host", "plan", "repro_version",
                 "result_schema", "run_id", "schema", "started",
                 "started_iso", "type", "version"],
    "span:calibration": SPAN,
    "span:calibration.attrs": ["index", "ok", "seed", "worker"],
    "span:chunk": SPAN,
    "span:chunk.attrs": ["queue_wait_s", "rss_kb", "trials", "worker"],
    "span:dispatch": SPAN,
    "span:dispatch.attrs": ["chunk", "chunks", "trials"],
    "span:run": SPAN,
    "span:run.attrs": ["run_id", "trials"],
    "span:trial": SPAN,
    "span:trial.attrs": ["index", "ok", "seed", "worker"],
    "span:warm_pool": SPAN,
    "span:warm_pool.attrs": ["jobs"],
    "summary": ["counts", "finished", "run_id", "trials", "type", "wall_s",
                "workers"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_bytes_on_disk_match_the_pre_codec_writers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("traces")
    plan = build_plan(
        "codec-diff", kind="query", grid={"churn_rate": [0.0, 8.0]},
        base={"n": 6, "topology": "er", "aggregate": "COUNT",
              "horizon": 80.0, "trace_sink": "jsonl",
              "trace_path": "traces/codec-trial{index}-seed{seed}.jsonl"},
        trials=2, root_seed=5,
    )
    with ParallelExecutor(jobs=2) as executor:
        stream_plan(plan, "out.jsonl", executor=executor,
                    checkpoint="out.ckpt.jsonl",
                    telemetry="out.telemetry.jsonl")

    stream = Path("out.jsonl").read_bytes()
    assert sha256(stream.replace(package_version().encode(),
                                 b"<version>")) == STREAM_SHA
    traces = sorted(os.listdir("traces"))
    assert len(traces) == len(plan)
    assert sha256(b"".join(Path("traces", name).read_bytes()
                           for name in traces)) == TRACE_SHA

    untimed = []
    for line in lines_of("out.ckpt.jsonl")[1:]:
        entry = json.loads(line)
        assert line == (json.dumps(entry, sort_keys=True) + "\n").encode()
        record = entry["record"]
        del record["wall_time"]
        record["metrics"] = strip_timings(record["metrics"])
        untimed.append(json.dumps([entry["index"], record], sort_keys=True))
    assert sha256("\n".join(untimed).encode()) == CHECKPOINT_SHA

    keys: dict[str, set[str]] = {}
    for record in map(json.loads, lines_of("out.telemetry.jsonl")):
        kind = record["type"]
        if kind == "span":
            kind = f"span:{record['name']}"
            keys.setdefault(kind + ".attrs", set()).update(record["attrs"])
        keys.setdefault(kind, set()).update(record)
    assert {kind: sorted(names) for kind, names in keys.items()} == TELEMETRY_KEYS
