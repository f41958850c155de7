"""Checkpoint/resume: the ``repro-run-checkpoint`` journal contract.

The journal keeps its valid prefix through torn tails, corrupt lines,
digest mismatches and duplicate entries, and refuses another plan's
journal.  That a run interrupted at any point resumes to the baseline
bytes — every backend, the streaming container, every way of finishing
it — is the disruption axis of ``tests/engine/test_conformance.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.engine.executor import run_plan, stream_plan
from repro.engine.plan import build_plan
from repro.engine.recovery.chaos import SigintAfter, tear_file_tail
from repro.engine.recovery.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointWriter,
    load_checkpoint,
    record_digest,
    result_from_record,
)
from repro.engine.telemetry import TelemetryRecorder, plan_digest
from repro.experiments.runner import run_experiment
from repro.obs.ledger import find_run, load_telemetry, run_status, scan_runs
from repro.sim.errors import ConfigurationError
from tests.engine.conftest import PLAN

OTHER_PLAN = build_plan(
    "other-plan", kind="query",
    grid={"churn_rate": [0.0]},
    base={"n": 8, "topology": "er", "aggregate": "COUNT", "horizon": 150.0},
    trials=2, root_seed=99,
)


class TestJournalFormat:
    def test_header_and_round_trip(self, reference, tmp_path):
        ckpt = str(tmp_path / "run.ckpt.jsonl")
        doc = run_plan(PLAN, checkpoint=ckpt).to_json()
        assert doc == reference.json
        state = load_checkpoint(ckpt, plan=PLAN)
        header = state.header
        assert header["schema"] == CHECKPOINT_SCHEMA
        assert header["version"] == CHECKPOINT_VERSION
        assert header["plan_digest"] == plan_digest(PLAN)
        assert header["n_trials"] == len(PLAN)
        assert state.completed == set(range(len(PLAN)))

    def test_every_line_is_flushed_json(self, tmp_path):
        ckpt = str(tmp_path / "run.ckpt.jsonl")
        run_plan(PLAN, checkpoint=ckpt)
        with open(ckpt, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1 + len(PLAN)
        for line in lines[1:]:
            entry = json.loads(line)
            assert entry["type"] == "trial"
            assert entry["digest"] == record_digest(entry["record"])

    def test_rehydrated_results_match_fresh_ones(self, tmp_path):
        ckpt = str(tmp_path / "run.ckpt.jsonl")
        store = run_plan(PLAN, checkpoint=ckpt)
        state = load_checkpoint(ckpt)
        rehydrated = state.results_for(PLAN)
        # Compare against the *same* run: timing fields are journalled
        # verbatim, so rehydration is lossless down to wall_time.
        for fresh in store.results:
            assert rehydrated[fresh.index] == fresh

    def test_identity_fields_come_from_the_spec(self):
        spec = PLAN.specs[0]
        record = {
            "ok": True, "terminated": True, "result": 1.0, "truth": 1.0,
            "error": 0.0, "completeness": 1.0, "latency": 0.5,
            "messages": 3, "core_size": 8, "events_executed": 10,
            # Hostile identity fields on disk must be ignored.
            "index": 999, "seed": 0, "point": [["churn_rate", 42.0]],
        }
        result = result_from_record(record, spec)
        assert result.index == spec.index
        assert result.seed == spec.seed
        assert result.point == tuple(spec.point_dict().items())


class TestJournalRecovery:
    def _journal(self, tmp_path, name="run.ckpt.jsonl"):
        ckpt = str(tmp_path / name)
        run_plan(PLAN, checkpoint=ckpt)
        return ckpt

    def test_torn_tail_drops_last_trial_only(self, tmp_path):
        ckpt = self._journal(tmp_path)
        tear_file_tail(ckpt, drop_bytes=7)
        with pytest.warns(RuntimeWarning, match="torn final checkpoint"):
            state = load_checkpoint(ckpt, plan=PLAN)
        assert state.completed == set(range(len(PLAN) - 1))

    def test_corrupt_middle_line_keeps_valid_prefix(self, tmp_path):
        ckpt = self._journal(tmp_path)
        with open(ckpt, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[3] = "{ not json"
        with open(ckpt, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint line"):
            state = load_checkpoint(ckpt, plan=PLAN)
        # Header + 2 trial lines survive; everything after re-executes.
        assert state.completed == {0, 1}

    def test_digest_mismatch_stops_the_scan(self, tmp_path):
        ckpt = self._journal(tmp_path)
        with open(ckpt, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        entry = json.loads(lines[2])
        entry["record"]["result"] = 1e9  # flip a payload field
        lines[2] = json.dumps(entry, sort_keys=True)
        with open(ckpt, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="integrity digest"):
            state = load_checkpoint(ckpt, plan=PLAN)
        assert state.completed == {0}

    def test_duplicate_entry_first_wins(self, tmp_path):
        ckpt = self._journal(tmp_path)
        with open(ckpt, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        with open(ckpt, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines + [lines[1]]) + "\n")
        with pytest.warns(RuntimeWarning, match="duplicate checkpoint"):
            state = load_checkpoint(ckpt, plan=PLAN)
        assert state.completed == set(range(len(PLAN)))

    def test_wrong_plan_refused(self, tmp_path):
        ckpt = self._journal(tmp_path)
        with pytest.raises(CheckpointError, match="different plan"):
            load_checkpoint(ckpt, plan=OTHER_PLAN)
        with pytest.raises(CheckpointError, match="different plan"):
            run_plan(OTHER_PLAN, checkpoint=ckpt)

    def test_foreign_journal_leaves_an_existing_stream_untouched(
        self, tmp_path
    ):
        ckpt = str(tmp_path / "other.ckpt")
        run_plan(OTHER_PLAN, checkpoint=ckpt)
        out = tmp_path / "keep.jsonl"
        stream_plan(OTHER_PLAN, str(out))
        before = out.read_bytes()
        # Everything is resolved and verified before the stream file is
        # created: a rejected call must not truncate what is already there.
        with pytest.raises(CheckpointError, match="different plan"):
            stream_plan(PLAN, str(out), checkpoint=ckpt)
        assert out.read_bytes() == before

    def test_missing_empty_and_foreign_files_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint journal"):
            load_checkpoint(str(tmp_path / "absent.jsonl"))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            load_checkpoint(str(empty))
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text('{"schema": "something-else"}\n')
        with pytest.raises(CheckpointError, match="not a repro-run-checkpoint"):
            load_checkpoint(str(foreign))
        future = tmp_path / "future.jsonl"
        future.write_text(json.dumps({
            "schema": CHECKPOINT_SCHEMA, "version": CHECKPOINT_VERSION + 1,
        }) + "\n")
        with pytest.raises(CheckpointError, match="unsupported checkpoint"):
            load_checkpoint(str(future))

    def test_closed_writer_refuses_appends(self, reference, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "w.jsonl"), PLAN)
        writer.close()
        with pytest.raises(CheckpointError, match="closed"):
            writer.append(reference.results[0])


class TestRunExperimentResume:
    YAML = """
name: recovery-exp
kind: query
grid:
  churn_rate: [0.0, 4.0]
base:
  n: 8
  horizon: 60.0
trials: 2
root_seed: 2007
"""

    def test_run_experiment_accepts_checkpoint(self, tmp_path):
        from repro.experiments import loads_experiment

        reference = run_experiment(loads_experiment(self.YAML))
        ckpt = str(tmp_path / "exp.ckpt")
        with pytest.raises(KeyboardInterrupt):
            run_experiment(
                loads_experiment(self.YAML), checkpoint=ckpt,
                progress=SigintAfter(2),
            )
        assert load_checkpoint(ckpt).completed == {0, 1}
        resumed = run_experiment(loads_experiment(self.YAML), checkpoint=ckpt)
        assert resumed.store.to_json() == reference.store.to_json()
        assert resumed.passed == reference.passed


class TestTelemetryIntegration:
    def test_interrupted_run_lands_in_ledger_as_interrupted(self, tmp_path):
        tpath = str(tmp_path / "runs" / "interrupted.jsonl")
        ckpt = str(tmp_path / "t.ckpt")
        with pytest.raises(KeyboardInterrupt):
            run_plan(
                PLAN, checkpoint=ckpt, telemetry=tpath,
                progress=SigintAfter(3),
            )
        manifest, _, summary = load_telemetry(tpath)
        assert summary is None
        assert manifest.checkpoint == ckpt
        assert run_status(manifest, summary) == "interrupted"
        ledger = scan_runs(str(tmp_path / "runs"))
        assert [e["status"] for e in ledger] == ["interrupted"]

    def test_resumed_run_records_provenance(self, reference, tmp_path):
        ckpt = str(tmp_path / "p.ckpt")
        with pytest.raises(KeyboardInterrupt):
            run_plan(PLAN, checkpoint=ckpt, progress=SigintAfter(4))
        tpath = str(tmp_path / "runs" / "resumed.jsonl")
        recorder = TelemetryRecorder(path=tpath, resumed_from="run-000abc")
        resumed = run_plan(PLAN, checkpoint=ckpt, telemetry=recorder)
        recorder.close()  # caller-owned recorders close explicitly
        assert resumed.to_json() == reference.json
        manifest, _, summary = load_telemetry(tpath)
        assert manifest.resumed_from == "run-000abc"
        assert summary["resumed_trials"] == 4
        assert run_status(manifest, summary) == "resumed"

    def test_find_run_rejects_ambiguous_prefix(self, tmp_path):
        directory = str(tmp_path / "runs")
        for _ in range(2):
            run_plan(OTHER_PLAN, telemetry=TelemetryRecorder(
                directory=directory
            ))
        ledger = scan_runs(directory)
        assert len(ledger) == 2
        ids = [e["manifest"].run_id for e in ledger]
        prefix = os.path.commonprefix(ids)
        assert prefix  # run ids share the date prefix by construction
        with pytest.raises(ConfigurationError, match="ambiguous"):
            find_run(prefix, directory)
        with pytest.raises(ConfigurationError, match="no run matching"):
            find_run("zzz-does-not-exist", directory)
        assert find_run(ids[0], directory)["manifest"].run_id == ids[0]
