"""Chunked-dispatch determinism: chunk layout never leaks into results.

The engine's core guarantee after the warm-pool rebuild: for a fixed
plan, the canonical result document is byte-identical under the serial
backend and under chunked parallel dispatch at *every* chunk size —
including plans with failed trials, quarantined trials, and the
streaming JSONL path.  Wall-clock is quarantined into ``timings``, so
where a trial ran (parent calibration, worker chunk, serial loop) is
unobservable in the document.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.engine.executor import (
    CHUNKS_PER_WORKER,
    PAYLOAD_FIELDS,
    ParallelExecutor,
    SerialExecutor,
    _pack_result,
    _quarantined_result,
    _unpack_result,
    execute_trial,
    run_plan,
    stream_plan,
)
from repro.engine.plan import build_plan
from repro.engine.recovery.checkpoint import result_from_record
from repro.engine.results import load_document
from repro.sim.errors import ConfigurationError

# churn_rate 8.0 produces genuinely failed trials (incomplete queries),
# so the identity checks cover the unhappy verdicts too.
PLAN = build_plan(
    "chunk-plan", kind="query",
    grid={"churn_rate": [0.0, 8.0]},
    base={"n": 8, "topology": "er", "aggregate": "COUNT", "horizon": 150.0},
    trials=5, root_seed=13,
)

CHUNK_SIZES = [1, 7, len(PLAN)]

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pre-fork monkeypatching needs the fork start method",
)


@pytest.fixture(scope="module")
def serial_doc() -> str:
    return run_plan(PLAN).to_json()


class TestCompactTransport:
    def test_pack_unpack_round_trips_field_for_field(self):
        spec = PLAN.specs[0]
        result = execute_trial(spec)
        rebuilt = _unpack_result(_pack_result(result), spec)
        assert rebuilt == result

    def test_payload_carries_no_identity_fields(self):
        for identity in ("index", "kind", "seed", "trial", "point"):
            assert identity not in PAYLOAD_FIELDS

    def test_wire_version_mismatch_detected(self):
        with pytest.raises(ConfigurationError, match="payload"):
            _unpack_result((True, False), PLAN.specs[0])

    # 0.5 s: a watchdog of 0.25 s lost twice; 0.0: a poison trial.
    @pytest.mark.parametrize("wall_time", [0.5, 0.0])
    def test_quarantine_placeholder_is_pinned_and_round_trips(self, wall_time):
        spec = PLAN.specs[7]
        result = _quarantined_result(spec, wall_time)
        record = result.to_record(include_timing=True)
        # The record the placeholders serialised to before they were
        # built by TrialResult.from_spec.
        assert record == {
            "index": 7, "kind": "query", "seed": 17039259473404265729,
            "trial": 2, "ok": False, "terminated": False, "result": None,
            "truth": None, "error": float("inf"), "completeness": 0.0,
            "latency": float("inf"), "messages": 0, "core_size": 0,
            "events_executed": 0, "metrics": {}, "status": "quarantined",
            "wall_time": wall_time,
        }
        assert result.point == (("churn_rate", 8.0),)
        # Wire and journal both rebuild it from the parent's spec.
        assert _unpack_result(_pack_result(result), spec) == result
        assert result_from_record(record, spec) == result


class TestRunIdentity:
    def test_plan_has_mixed_verdicts(self, serial_doc):
        store = run_plan(PLAN)
        assert any(r.ok for r in store.results)
        assert any(not r.ok for r in store.results)

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_fixed_chunk_sizes_are_byte_identical(self, chunk, serial_doc):
        executor = ParallelExecutor(jobs=2, chunk=chunk)
        try:
            doc = run_plan(PLAN, executor=executor).to_json()
        finally:
            executor.close()
        assert doc == serial_doc

    def test_adaptive_chunking_is_byte_identical(self, serial_doc):
        executor = ParallelExecutor(jobs=2)  # chunk=None: calibrate
        try:
            doc = run_plan(PLAN, executor=executor).to_json()
            assert executor.chunks_dispatched >= 1
        finally:
            executor.close()
        assert doc == serial_doc

    def test_chunk_counters_match_the_layout(self):
        executor = ParallelExecutor(jobs=2, chunk=7)
        try:
            run_plan(PLAN, executor=executor)
            # 10 trials at chunk=7: one full chunk + one remainder.
            assert executor.chunks_dispatched == 2
            assert executor.chunks_completed == 2
        finally:
            executor.close()

    def test_batch_progress_is_plan_ordered_and_windowed(self):
        """run_plan is "stream, then collect": progress fires in plan
        order and at most jobs × CHUNKS_PER_WORKER chunks are in flight,
        however long the plan is."""
        plan = build_plan(
            "window-plan", kind="query", grid={"churn_rate": [0.0, 8.0]},
            base={"n": 8, "topology": "er", "aggregate": "COUNT",
                  "horizon": 150.0},
            trials=12, root_seed=13,
        )

        class Watch:
            def __init__(self):
                self.indices, self.in_flight = [], []

            def __call__(self, done, total, result):
                self.indices.append(result.index)

            def chunk_update(self, dispatched, completed):
                self.in_flight.append(dispatched - completed)

        watch = Watch()
        executor = ParallelExecutor(jobs=2, chunk=1)
        try:
            run_plan(plan, executor=executor, progress=watch)
        finally:
            executor.close()
        assert watch.indices == list(range(len(plan)))
        assert max(watch.in_flight) == 2 * CHUNKS_PER_WORKER
        assert executor.chunks_completed == len(plan)

    @pytest.mark.parametrize("jobs", [2, 4])
    @pytest.mark.parametrize("remaining", [1, 5, 35, 71, 2399])
    def test_adaptive_chunks_never_starve_the_pool(self, jobs, remaining):
        executor = ParallelExecutor(jobs=jobs)
        floor = min(remaining, jobs * CHUNKS_PER_WORKER)
        # A tiny calibration wall asks for a huge chunk; the cap holds.
        for wall in (1e-9, 0.0014, 0.026, 5.0):
            size = executor._chunk_size_for(wall, remaining)
            assert size >= 1
            assert -(-remaining // size) >= floor
        # A slow calibration trial still means per-trial dispatch.
        assert executor._chunk_size_for(5.0, remaining) == 1

    def test_warm_pool_reused_across_plans(self, serial_doc):
        executor = ParallelExecutor(jobs=2, chunk=3)
        try:
            first = run_plan(PLAN, executor=executor).to_json()
            pool = executor._pool
            assert pool is not None
            second = run_plan(PLAN, executor=executor).to_json()
            assert executor._pool is pool  # same pool, no re-fork
        finally:
            executor.close()
        assert first == second == serial_doc


class TestStreamingIdentity:
    def _stream(self, tmp_path, name, executor) -> tuple[str, dict]:
        path = str(tmp_path / name)
        stream_plan(PLAN, path, executor=executor)
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read(), dict(load_document(path))

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_stream_files_are_byte_identical(self, tmp_path, chunk):
        serial_text, serial_reloaded = self._stream(
            tmp_path, "serial.jsonl", SerialExecutor()
        )
        executor = ParallelExecutor(jobs=2, chunk=chunk)
        try:
            chunked_text, chunked_reloaded = self._stream(
                tmp_path, f"chunk{chunk}.jsonl", executor
            )
        finally:
            executor.close()
        assert chunked_text == serial_text
        assert chunked_reloaded == serial_reloaded

    def test_stream_consumes_in_plan_order(self):
        executor = ParallelExecutor(jobs=2, chunk=1)
        seen: list[int] = []
        try:
            executor.stream(PLAN.specs, lambda result: seen.append(result.index))
        finally:
            executor.close()
        assert seen == list(range(len(PLAN)))


@fork_only
class TestQuarantineIdentity:
    """Quarantined trials survive chunked dispatch byte-for-byte.

    The hang is injected by monkeypatching ``execute_trial`` *before* the
    lazy pool first forks: under the fork start method every worker
    inherits the patched module, so the same trial hangs in every backend
    and the watchdog quarantines it identically everywhere.
    """

    #: Orders of magnitude above an innocent trial's 1-30 ms, so a host
    #: stall cannot quarantine one; the poisoned trial never returns at all.
    WATCHDOG = 2.0
    HANG_INDEX = 3

    @pytest.fixture()
    def hang_one_trial(self, monkeypatch):
        import repro.engine.executor as executor_module

        real = execute_trial
        never = threading.Event()

        def selective(spec):
            if spec.index == self.HANG_INDEX:
                never.wait()  # the abandoned daemon thread dies with its process
            return real(spec)

        monkeypatch.setattr(executor_module, "execute_trial", selective)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_quarantine_is_byte_identical_across_chunk_sizes(
        self, hang_one_trial, chunk
    ):
        serial = run_plan(
            PLAN, executor=SerialExecutor(watchdog=self.WATCHDOG)
        )
        assert [r.index for r in serial.results
                if r.status == "quarantined"] == [self.HANG_INDEX]
        executor = ParallelExecutor(
            jobs=2, chunk=chunk, watchdog=self.WATCHDOG
        )
        try:
            chunked = run_plan(PLAN, executor=executor)
        finally:
            executor.close()
        assert chunked.to_json() == serial.to_json()
