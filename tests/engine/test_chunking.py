"""Chunked dispatch, unit by unit: the compact worker-to-parent transport
and the adaptive chunk size.

That chunk layout never leaks into results — at every chunk size, with
failed and quarantined trials, on the streaming path — is the backend
axis of ``tests/engine/test_conformance.py``.
"""

from __future__ import annotations

import pytest

from repro.engine.executor import (
    CHUNKS_PER_WORKER,
    PAYLOAD_FIELDS,
    ParallelExecutor,
    _pack_result,
    _quarantined_result,
    _unpack_result,
    execute_trial,
)
from repro.engine.recovery.checkpoint import result_from_record
from repro.sim.errors import ConfigurationError
from tests.engine.conftest import PLAN


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


class TestChunkSizing:
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
