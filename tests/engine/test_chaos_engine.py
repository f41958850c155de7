"""Harness chaos conformance: resume after *every* failure point.

The tentpole claim of the crash-safety layer (docs/RECOVERY.md): for any
deterministic fault the chaos injectors can land — SIGINT after the k-th
trial, ENOSPC on the j-th stream append, a worker SIGKILL, a torn file
tail — re-running the same checkpointed command reassembles the exact
baseline bytes.  This suite sweeps the failure point across the whole
run rather than sampling it.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import signal

import pytest

import repro.engine.executor as executor_module
from repro.engine.executor import (
    ParallelExecutor,
    SerialExecutor,
    run_plan,
    stream_plan,
)
from repro.engine.plan import build_plan
from repro.engine.recovery.chaos import (
    ChaosInterrupt,
    ENOSPCAfter,
    KillWorkerAtChunk,
    SigintAfter,
    tear_file_tail,
)
from repro.engine.recovery.checkpoint import load_checkpoint
from repro.engine.results import StreamingResultStore
from repro.sim.errors import ConfigurationError

PLAN = build_plan(
    "chaos-plan", kind="query",
    grid={"churn_rate": [0.0, 8.0]},
    base={"n": 8, "topology": "er", "aggregate": "COUNT", "horizon": 150.0},
    trials=5, root_seed=13,
)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pre-fork worker-kill tests need the fork start method",
)


@pytest.fixture(scope="module")
def baseline_json():
    return run_plan(PLAN, executor=SerialExecutor()).to_json()


@pytest.fixture(scope="module")
def stream_reference(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("chaos-ref") / "reference.jsonl")
    stream_plan(PLAN, path)
    with open(path, "rb") as handle:
        return handle.read()


class TestInjectors:
    """The injectors themselves are deterministic and validated."""

    def test_chaos_interrupt_is_a_keyboard_interrupt(self):
        assert issubclass(ChaosInterrupt, KeyboardInterrupt)

    def test_sigint_after_delivers_the_triggering_result_first(self):
        seen: list[int] = []
        chaos = SigintAfter(2, progress=lambda d, t, r: seen.append(r))
        chaos(1, 3, "a")
        with pytest.raises(ChaosInterrupt):
            chaos(2, 3, "b")
        # The inner progress saw both results before the interrupt.
        assert seen == ["a", "b"]
        # Once fired, it never fires again (resume would re-trip it).
        chaos(3, 3, "c")
        assert seen == ["a", "b", "c"]
        with pytest.raises(ConfigurationError):
            SigintAfter(0)

    def test_enospc_fires_before_delegating(self):
        consumed: list[str] = []
        chaos = ENOSPCAfter(consumed.append, calls=2)
        chaos("a")
        with pytest.raises(OSError) as excinfo:
            chaos("b")
        assert excinfo.value.errno == errno.ENOSPC
        # The failed append wrote nothing — exactly like a full disk.
        assert consumed == ["a"]
        with pytest.raises(ConfigurationError):
            ENOSPCAfter(consumed.append, calls=0)

    def test_tear_file_tail_truncates_and_validates(self, tmp_path):
        path = tmp_path / "file.txt"
        path.write_text("hello world\n")
        assert tear_file_tail(str(path), drop_bytes=3) == 9
        assert path.read_bytes() == b"hello wor"
        with pytest.raises(ConfigurationError):
            tear_file_tail(str(path), drop_bytes=0)
        with pytest.raises(ConfigurationError, match="too small"):
            tear_file_tail(str(path), drop_bytes=100)


class TestSigintEveryPoint:
    """SIGINT after every k-th trial; the resumed run is the baseline."""

    def test_canonical_run_conformance(self, baseline_json, tmp_path):
        for k in range(1, len(PLAN)):
            ckpt = str(tmp_path / f"k{k}.ckpt")
            with pytest.raises(ChaosInterrupt):
                run_plan(PLAN, checkpoint=ckpt, progress=SigintAfter(k))
            assert load_checkpoint(ckpt).completed == set(range(k))
            assert run_plan(PLAN, checkpoint=ckpt).to_json() == baseline_json

    def test_streaming_run_conformance(self, stream_reference, tmp_path):
        for k in range(1, len(PLAN)):
            ckpt = str(tmp_path / f"k{k}.ckpt")
            out = str(tmp_path / f"k{k}.jsonl")
            with pytest.raises(ChaosInterrupt):
                stream_plan(
                    PLAN, out, checkpoint=ckpt, progress=SigintAfter(k)
                )
            assert stream_plan(PLAN, out, checkpoint=ckpt) == len(PLAN)
            with open(out, "rb") as handle:
                assert handle.read() == stream_reference

    @pytest.mark.parametrize("chunk", [1, 7, len(PLAN)])
    def test_parallel_run_conformance(self, baseline_json, tmp_path, chunk):
        for k in (1, len(PLAN) // 2, len(PLAN) - 1):
            ckpt = str(tmp_path / f"c{chunk}k{k}.ckpt")
            executor = ParallelExecutor(jobs=2, chunk=chunk)
            try:
                with pytest.raises(ChaosInterrupt):
                    run_plan(
                        PLAN, executor=executor, checkpoint=ckpt,
                        progress=SigintAfter(k),
                    )
            finally:
                executor.close()
            # Parallel completion order is nondeterministic, but at least
            # k trials were journalled before the interrupt landed.
            assert len(load_checkpoint(ckpt).completed) >= k
            assert run_plan(PLAN, checkpoint=ckpt).to_json() == baseline_json


class TestENOSPCEveryPoint:
    """The disk fills up on every j-th stream append in turn."""

    def test_stream_append_conformance(self, stream_reference, tmp_path):
        for j in range(1, len(PLAN) + 1):
            ckpt = str(tmp_path / f"j{j}.ckpt")
            out = str(tmp_path / f"j{j}.jsonl")
            with pytest.MonkeyPatch.context() as mp:
                real = StreamingResultStore.append
                state = {"calls": 0}

                def flaky(self, result, _state=state, _real=real):
                    _state["calls"] += 1
                    if _state["calls"] == j:
                        raise OSError(errno.ENOSPC, "chaos: disk full")
                    return _real(self, result)

                mp.setattr(StreamingResultStore, "append", flaky)
                with pytest.raises(OSError):
                    stream_plan(PLAN, out, checkpoint=ckpt)
            # The journal append lands *before* the stream append, so the
            # trial whose append failed is already safe in the journal.
            assert len(load_checkpoint(ckpt).completed) == j
            assert stream_plan(PLAN, out, checkpoint=ckpt) == len(PLAN)
            with open(out, "rb") as handle:
                assert handle.read() == stream_reference


class TestTornTails:
    def test_torn_checkpoint_at_every_width(self, baseline_json, tmp_path):
        # Tear progressively deeper into the journal's final line; every
        # width must truncate cleanly and resume to the baseline.
        for drop in (1, 7, 40):
            ckpt = str(tmp_path / f"d{drop}.ckpt")
            with pytest.raises(ChaosInterrupt):
                run_plan(PLAN, checkpoint=ckpt, progress=SigintAfter(5))
            tear_file_tail(ckpt, drop_bytes=drop)
            with pytest.warns(RuntimeWarning, match="torn final checkpoint"):
                resumed = run_plan(PLAN, checkpoint=ckpt)
            assert resumed.to_json() == baseline_json

    def test_torn_stream_output_is_rebuilt_on_resume(
        self, stream_reference, tmp_path
    ):
        ckpt = str(tmp_path / "t.ckpt")
        out = str(tmp_path / "t.jsonl")
        with pytest.raises(ChaosInterrupt):
            stream_plan(PLAN, out, checkpoint=ckpt, progress=SigintAfter(4))
        # The crash also tore the stream file's last line; resume rewrites
        # the stream from the journal, so the tear cannot survive.
        tear_file_tail(out, drop_bytes=11)
        assert stream_plan(PLAN, out, checkpoint=ckpt) == len(PLAN)
        with open(out, "rb") as handle:
            assert handle.read() == stream_reference


@fork_only
class TestCompoundFailures:
    def test_worker_death_then_sigint_then_resume(
        self, baseline_json, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            executor_module, "respawn_backoff", lambda n: 0.0
        )
        ckpt = str(tmp_path / "compound.ckpt")
        executor = ParallelExecutor(jobs=2, chunk=2)
        chaos = KillWorkerAtChunk(
            executor, chunk=1, progress=SigintAfter(6)
        )
        try:
            with pytest.raises(ChaosInterrupt):
                run_plan(
                    PLAN, executor=executor, checkpoint=ckpt, progress=chaos,
                )
            assert chaos.fired
            assert executor.respawns >= 1
        finally:
            executor.close()
        assert len(load_checkpoint(ckpt).completed) >= 6
        resumed = run_plan(PLAN, checkpoint=ckpt)
        assert resumed.to_json() == baseline_json
