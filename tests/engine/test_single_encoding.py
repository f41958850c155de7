"""A trial is serialised once: journal and stream lines come from one record.

Counted and compared, never timed.  The oracles below are the parent's
formulas written out long-hand — ``json.dumps`` of the whole entry, the
digest taken from a second ``dumps`` of the record, the untimed record
from a second ``to_record`` walk — so a spliced or derived line that
drifts from them by a byte fails here before any resume does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings

import pytest

from repro.engine.executor import (
    ParallelExecutor,
    SerialExecutor,
    _quarantined_result,
    run_plan,
    stream_plan,
)
from repro.engine.plan import build_plan
from repro.engine.recovery.chaos import ChaosInterrupt, SigintAfter
from repro.engine.recovery.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    record_digest,
)
from repro.engine.results import StreamingResultStore, TrialResult, timed_record

PLAN = build_plan(
    "encoding-plan", kind="query",
    grid={"churn_rate": [0.0, 8.0]},
    base={"n": 8, "topology": "er", "aggregate": "COUNT", "horizon": 150.0},
    trials=4, root_seed=13,
)

GOSSIP_PLAN = build_plan(
    "encoding-gossip", kind="gossip",
    grid={"churn_rate": [0.0]},
    base={"n": 8, "topology": "er", "rounds": 5},
    trials=2, root_seed=7,
)


def journal_oracle(result: TrialResult) -> str:
    record = result.to_record(include_timing=True)
    digest = hashlib.sha256(
        json.dumps(record, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    entry = {
        "type": "trial", "index": result.index, "digest": digest,
        "record": record,
    }
    return json.dumps(entry, sort_keys=True) + "\n"


def stream_oracle(result: TrialResult, include_timing: bool) -> str:
    entry = {
        "point": result.point_dict(),
        "record": result.to_record(include_timing),
    }
    return json.dumps(entry, sort_keys=True) + "\n"


def body(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.readlines()[1:]


def executors():
    return [
        pytest.param(SerialExecutor, id="serial"),
        pytest.param(lambda: ParallelExecutor(jobs=2, chunk=3), id="jobs2"),
    ]


@pytest.fixture(scope="module")
def special_results():
    """Results that exercise every optional member of a record."""
    plain = run_plan(PLAN, executor=SerialExecutor()).results
    gossip = run_plan(GOSSIP_PLAN, executor=SerialExecutor()).results[0]
    assert gossip.completeness != gossip.completeness  # NaN
    covered = dataclasses.replace(
        plain[1], coverage={"reached": [1, 2], "fraction": 0.25, "ok": False},
    )
    return [
        plain[0], plain[-1], gossip, covered,
        _quarantined_result(PLAN.specs[2], 0.0),
        _quarantined_result(PLAN.specs[3], 1.5),
    ]


class TestOneRecord:
    @pytest.mark.parametrize("make", executors())
    def test_to_record_once_per_fresh_trial(
        self, make, tmp_path, monkeypatch
    ):
        calls = []
        real = TrialResult.to_record

        def counted(self, include_timing=False):
            calls.append((self.index, include_timing))
            return real(self, include_timing)

        monkeypatch.setattr(TrialResult, "to_record", counted)
        executor = make()
        try:
            ran = stream_plan(
                PLAN, str(tmp_path / "out.jsonl"), executor=executor,
                checkpoint=str(tmp_path / "run.ckpt"),
            )
        finally:
            executor.close()
        assert ran == len(PLAN)
        assert calls == [(spec.index, True) for spec in PLAN.specs]

    def test_nothing_is_kept_on_the_result(self, special_results):
        result = special_results[0]
        before = dict(vars(result))
        first = timed_record(result)
        assert timed_record(result) is first
        assert vars(result) == before
        # One entry, keyed by identity: an equal twin gets its own record,
        # and asking about the first again rebuilds it.
        twin = dataclasses.replace(result)
        assert timed_record(twin) == first and timed_record(twin) is not first
        assert timed_record(result) is not first


class TestLines:
    @pytest.mark.parametrize("include_timing", [False, True], ids=["plain", "timed"])
    @pytest.mark.parametrize("make", executors())
    def test_run_lines_equal_oracles(self, make, include_timing, tmp_path):
        out, ckpt = str(tmp_path / "out.jsonl"), str(tmp_path / "run.ckpt")
        results: list[TrialResult] = []
        executor = make()
        try:
            stream_plan(
                PLAN, out, executor=executor, checkpoint=ckpt,
                include_timing=include_timing,
                progress=lambda done, total, result: results.append(result),
            )
        finally:
            executor.close()
        assert [r.index for r in results] == [s.index for s in PLAN.specs]
        assert body(ckpt) == [journal_oracle(r) for r in results]
        assert body(out) == [stream_oracle(r, include_timing) for r in results]

    def test_standalone_appends_equal_the_oracles(
        self, special_results, tmp_path
    ):
        ckpt = str(tmp_path / "solo.ckpt")
        with CheckpointWriter(ckpt, PLAN) as writer:
            for position, result in enumerate(special_results):
                # The journal is idempotent per plan index; give every
                # special result an index of its own.
                writer.append(dataclasses.replace(result, index=100 + position))
        assert body(ckpt) == [
            journal_oracle(dataclasses.replace(result, index=100 + position))
            for position, result in enumerate(special_results)
        ]
        for include_timing in (False, True):
            out = str(tmp_path / f"solo-{include_timing}.jsonl")
            with StreamingResultStore(out, include_timing=include_timing) as store:
                for result in special_results:
                    store.append(result)
            assert body(out) == [
                stream_oracle(result, include_timing)
                for result in special_results
            ]

    def test_interleaved_appends_never_see_a_stale_record(
        self, special_results, tmp_path
    ):
        first, second = special_results[0], special_results[1]
        ckpt, out = str(tmp_path / "mix.ckpt"), str(tmp_path / "mix.jsonl")
        with CheckpointWriter(ckpt, PLAN) as writer, \
                StreamingResultStore(out) as store:
            store.append(first)
            writer.append(second)
            store.append(second)
            writer.append(first)
        assert body(ckpt) == [journal_oracle(second), journal_oracle(first)]
        assert body(out) == [
            stream_oracle(first, False), stream_oracle(second, False),
        ]

    def test_the_loader_verifies_every_spliced_line(self, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        stream_plan(PLAN, str(tmp_path / "out.jsonl"), checkpoint=ckpt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = load_checkpoint(ckpt, plan=PLAN)
        assert state.completed == {spec.index for spec in PLAN.specs}
        for line in body(ckpt):
            entry = json.loads(line)
            assert list(entry) == ["digest", "index", "record", "type"]
            assert entry["digest"] == record_digest(entry["record"])
        # One flipped byte inside a spliced record is still caught.
        with open(ckpt, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[2] = lines[2].replace('"messages": ', '"messages": 1', 1)
        with open(ckpt, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.warns(RuntimeWarning, match="integrity digest"):
            assert len(load_checkpoint(ckpt, plan=PLAN).completed) == 1


class TestResumedStreams:
    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("reference") / "out.jsonl")
        stream_plan(PLAN, out)
        with open(out, "rb") as handle:
            return handle.read()

    @pytest.mark.parametrize("make", executors())
    def test_same_path_idiom(self, make, uninterrupted, tmp_path):
        out, ckpt = str(tmp_path / "out.jsonl"), str(tmp_path / "run.ckpt")
        with pytest.raises(ChaosInterrupt):
            stream_plan(PLAN, out, checkpoint=ckpt, progress=SigintAfter(3))
        executor = make()
        try:
            assert stream_plan(
                PLAN, out, executor=executor, checkpoint=ckpt
            ) == len(PLAN)
        finally:
            executor.close()
        with open(out, "rb") as handle:
            assert handle.read() == uninterrupted
        # The finished journal is whole: header + one verified line each.
        assert len(body(ckpt)) == len(PLAN)
        assert load_checkpoint(ckpt, plan=PLAN).completed == {
            spec.index for spec in PLAN.specs
        }

    def test_resume_from_into_a_new_journal(self, uninterrupted, tmp_path):
        out = str(tmp_path / "out.jsonl")
        old, new = str(tmp_path / "old.ckpt"), str(tmp_path / "new.ckpt")
        with pytest.raises(ChaosInterrupt):
            stream_plan(PLAN, out, checkpoint=old, progress=SigintAfter(5))
        assert stream_plan(
            PLAN, out, resume_from=old, checkpoint=new
        ) == len(PLAN)
        with open(out, "rb") as handle:
            assert handle.read() == uninterrupted
        # Resumed trials are copied into the new journal byte for byte.
        assert body(new)[:5] == body(old)
        assert len(body(new)) == len(PLAN)
