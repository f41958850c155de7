"""Engine telemetry: manifest and span content, the ledger, the live tail
and profiling.

That recording a run never changes a byte of its result document — on
every backend and chunk size, the streaming container, and runs with
failed and quarantined trials — is the observers axis of
``tests/engine/test_conformance.py``.
"""

from __future__ import annotations

import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro.engine.executor import run_plan, stream_plan
from repro.engine.plan import build_plan
from repro.engine.results import SCHEMA_NAME, SCHEMA_VERSION
from repro.engine.spec import ExecutorSpec
from repro.engine.telemetry import (
    TELEMETRY_SUFFIX,
    TelemetryRecorder,
    plan_digest,
    resolve_recorder,
)
from repro.obs.ledger import (
    TelemetryTail,
    find_run,
    load_telemetry,
    profile_slowest,
    render_profiles,
    scan_runs,
)
from repro.obs.spans import span_tree
from repro.sim.errors import ConfigurationError
from tests.engine.conftest import PLAN


def tpath(tmp_path, name="run") -> str:
    return str(tmp_path / f"{name}{TELEMETRY_SUFFIX}")


class TestTelemetryContent:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        path = tpath(tmp_path_factory.mktemp("telemetry"))
        spec = ExecutorSpec.parallel(jobs=2, chunk=3)
        store = run_plan(PLAN, executor=spec, telemetry=path)
        manifest, spans, summary = load_telemetry(path)
        return SimpleNamespace(store=store, manifest=manifest,
                               spans=spans, summary=summary)

    def test_manifest_identity_fields(self, run):
        manifest = run.manifest
        assert manifest.run_id
        assert manifest.plan["name"] == PLAN.name
        assert manifest.plan["n_trials"] == len(PLAN)
        assert manifest.plan["digest"] == plan_digest(PLAN)
        assert manifest.executor["backend"] == "parallel"
        assert manifest.executor["jobs"] == 2
        assert manifest.host["cpu_count"] >= 1
        assert manifest.repro_version
        assert manifest.result_schema == {
            "name": SCHEMA_NAME, "version": SCHEMA_VERSION,
        }

    def test_span_hierarchy(self, run):
        tree = span_tree(run.spans)
        roots = tree[None]
        assert [s.name for s in roots] == ["run"]
        run_children = {s.name for s in tree.get(roots[0].span_id, [])}
        assert {"warm_pool", "dispatch"} <= run_children
        dispatch = next(s for s in run.spans if s.name == "dispatch")
        chunks = tree.get(dispatch.span_id, [])
        assert chunks and all(s.name == "chunk" for s in chunks)
        # 10 trials at chunk=3 -> 4 chunks, trials nested under chunks.
        assert len(chunks) == 4
        nested = [s for c in chunks for s in tree.get(c.span_id, [])]
        assert len(nested) == len(PLAN)
        assert {s.name for s in nested} == {"trial"}

    def test_trial_spans_carry_identity_and_verdict(self, run):
        trials = [s for s in run.spans if s.name == "trial"]
        by_index = {s.attrs["index"]: s for s in trials}
        assert sorted(by_index) == list(range(len(PLAN)))
        for result in run.store.results:
            span = by_index[result.index]
            assert span.attrs["seed"] == result.seed
            assert span.attrs["ok"] == result.ok
            assert span.t1 >= span.t0

    def test_summary_counts_match_document(self, run):
        ok = sum(1 for r in run.store.results if r.ok)
        assert run.summary["trials"] == len(PLAN)
        assert run.summary["counts"]["ok"] == ok
        assert run.summary["counts"]["failed"] == len(PLAN) - ok

    def test_worker_health(self, run):
        workers = run.summary["workers"]
        assert workers
        assert sum(w["trials"] for w in workers) == len(PLAN)
        for worker in workers:
            assert worker["chunks"] >= 1
            assert worker["busy_s"] > 0
            assert 0.0 <= worker["utilization"] <= 1.0
            assert worker["trials_per_sec"] > 0

    def test_reopen_is_idempotent(self, tmp_path):
        recorder = TelemetryRecorder(path=tpath(tmp_path))
        first = recorder.open_run(PLAN)
        assert recorder.open_run(PLAN) is first
        recorder.close()
        assert recorder.close() == {}


def test_plan_is_digested_once_per_plan(tmp_path, monkeypatch):
    """The manifest, the checkpoint header and every ``verify_plan`` on
    resume share one digest of the plan instead of re-hashing its specs."""
    import hashlib

    import repro.engine.plan as plan_module

    hashed = []

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(plan_module, "hashlib", SimpleNamespace(sha256=sha256))
    plan = build_plan(
        "digest-once", kind="query", grid={"n": [6]},
        base={"topology": "er", "aggregate": "COUNT", "horizon": 40.0},
        trials=3, root_seed=5,
    )
    journal = str(tmp_path / "run.ckpt.jsonl")
    first = run_plan(plan, telemetry=tpath(tmp_path, "a"), checkpoint=journal)
    assert len(hashed) == 1
    # A resume from the journal verifies it against the same plan twice.
    again = run_plan(plan, telemetry=tpath(tmp_path, "b"), checkpoint=journal)
    assert len(hashed) == 1
    assert again.to_json() == first.to_json()
    manifest = load_telemetry(tpath(tmp_path, "b"))[0]
    assert manifest.plan["digest"] == plan_digest(plan)
    # An equal plan built again is another object, digested afresh.
    rebuilt = build_plan(
        "digest-once", kind="query", grid={"n": [6]},
        base={"topology": "er", "aggregate": "COUNT", "horizon": 40.0},
        trials=3, root_seed=5,
    )
    assert plan_digest(rebuilt) == plan_digest(plan)
    assert len(hashed) == 2


class TestResolveRecorder:
    def test_forms(self, tmp_path):
        assert resolve_recorder(None) == (None, False)
        recorder = TelemetryRecorder(path=tpath(tmp_path))
        assert resolve_recorder(recorder) == (recorder, False)
        built, owned = resolve_recorder(tpath(tmp_path, "other"))
        assert owned and isinstance(built, TelemetryRecorder)

    def test_rejects_other_types(self):
        with pytest.raises(ConfigurationError, match="telemetry"):
            resolve_recorder(42)

    def test_path_and_directory_conflict(self):
        with pytest.raises(ConfigurationError, match="not both"):
            TelemetryRecorder(path="x.jsonl", directory="runs")


class TestLiveTail:
    def test_tails_a_concurrently_streaming_sweep(self, tmp_path):
        telemetry = tpath(tmp_path)
        results = str(tmp_path / "stream.jsonl")
        gate = threading.Event()
        HOLD_AT = 3

        def progress(done, total, result):
            if done == HOLD_AT:
                # Hold the sweep mid-flight until the tail has seen it.
                gate.wait(timeout=30)

        worker = threading.Thread(
            target=stream_plan,
            args=(PLAN, results),
            kwargs={"telemetry": telemetry, "progress": progress},
        )
        worker.start()
        try:
            tail = TelemetryTail(telemetry)
            deadline = time.time() + 30
            while tail.trials_done < HOLD_AT and time.time() < deadline:
                tail.poll()
                time.sleep(0.005)
            assert tail.trials_done == HOLD_AT
            assert not tail.finished
            frame = tail.render()
            assert f"{HOLD_AT}/{len(PLAN)} trials" in frame
            assert "eta" in frame
        finally:
            gate.set()
            worker.join(timeout=30)
        tail.poll()
        assert tail.finished
        assert tail.trials_done == len(PLAN)
        done_frame = tail.render()
        assert f"{len(PLAN)}/{len(PLAN)} trials" in done_frame
        assert "done in" in done_frame

    def test_torn_line_reread_when_completed(self, tmp_path):
        telemetry = tpath(tmp_path)
        run_plan(PLAN, telemetry=telemetry)
        with open(telemetry, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines(keepends=True)
        partial = str(tmp_path / "partial.jsonl")
        with open(partial, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:2])
            handle.write(lines[2][:10])  # torn mid-record
        tail = TelemetryTail(partial)
        tail.poll()
        assert tail.trials_done == 1
        with open(partial, "a", encoding="utf-8") as handle:
            handle.write(lines[2][10:])
        tail.poll()
        assert tail.trials_done == 2

    def test_missing_file_polls_zero(self, tmp_path):
        tail = TelemetryTail(str(tmp_path / "absent.jsonl"))
        assert tail.poll() == 0
        assert "waiting for manifest" in tail.render()


class TestLedger:
    def test_scan_and_find(self, tmp_path):
        runs = str(tmp_path)
        for name in ("a", "b"):
            run_plan(PLAN, telemetry=str(
                tmp_path / f"run-{name}{TELEMETRY_SUFFIX}"
            ))
        (tmp_path / "noise.jsonl").write_text("not telemetry\n")
        entries = scan_runs(runs)
        assert len(entries) == 2
        assert all(e["summary"] is not None for e in entries)
        run_id = entries[0]["manifest"].run_id
        assert find_run(run_id, runs)["manifest"].run_id == run_id

    def test_missing_directory_is_empty(self, tmp_path):
        assert scan_runs(str(tmp_path / "absent")) == []


class TestProfileSlowest:
    def test_profiles_k_slowest(self):
        store = run_plan(PLAN)
        profiles = profile_slowest(PLAN.specs, store.results, k=2)
        assert len(profiles) == 2
        walls = sorted((r.wall_time for r in store.results), reverse=True)
        assert [p["wall_time"] for p in profiles] == [
            pytest.approx(w, abs=1e-6) for w in walls[:2]
        ]
        for profile in profiles:
            assert profile["functions"]
            assert all(f["cumtime_s"] >= 0 for f in profile["functions"])
        assert "trial" in render_profiles(profiles)

    def test_skips_quarantined_trials(self):
        store = run_plan(PLAN)
        poisoned = list(store.results) + [SimpleNamespace(
            index=PLAN.specs[0].index, seed=0, wall_time=1e9,
            status="quarantined",
        )]
        profiles = profile_slowest(PLAN.specs, poisoned, k=1)
        assert profiles[0]["wall_time"] < 1e9

    def test_rejects_non_positive_k(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            profile_slowest(PLAN.specs, [], k=0)

    def test_profiles_land_in_summary(self, tmp_path):
        recorder = TelemetryRecorder(path=tpath(tmp_path))
        store = run_plan(PLAN, telemetry=recorder)
        recorder.record_profiles(
            profile_slowest(PLAN.specs, store.results, k=1)
        )
        recorder.close()
        _, _, summary = load_telemetry(recorder.path)
        assert len(summary["profile"]) == 1
        assert summary["profile"][0]["functions"]


class TestWireStability:
    def test_stream_is_json_per_line_sorted_keys(self, tmp_path):
        telemetry = tpath(tmp_path)
        run_plan(PLAN, telemetry=telemetry)
        with open(telemetry, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) >= len(PLAN) + 3  # manifest + spans + summary
        for line in lines:
            record = json.loads(line)
            assert json.dumps(record, sort_keys=True) == line
        first, last = json.loads(lines[0]), json.loads(lines[-1])
        assert first["type"] == "manifest"
        assert last["type"] == "summary"
