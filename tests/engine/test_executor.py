"""Tests for the TrialExecutor layer (repro.engine.executor)."""

from __future__ import annotations

import math

import pytest

from repro.engine.executor import (
    ParallelExecutor,
    SerialExecutor,
    _quarantined_result,
    execute_trial,
    execute_trial_guarded,
    run_plan,
)
from repro.engine.plan import build_plan
from repro.engine.results import ResultStore, TrialResult
from repro.engine.spec import ExecutorSpec
from repro.sim.errors import ConfigurationError

QUERY_PLAN = build_plan(
    "exec-query", kind="query",
    grid={"churn_rate": [0.0, 2.0]},
    base={"n": 8, "topology": "er", "aggregate": "COUNT", "horizon": 150.0},
    trials=2, root_seed=13,
)


def _square(x: int) -> int:
    return x * x


class TestExecuteTrial:
    def test_query_trial_result_fields(self):
        result = execute_trial(QUERY_PLAN.specs[0])
        assert isinstance(result, TrialResult)
        assert result.kind == "query"
        assert result.index == 0
        assert result.events_executed > 0
        assert result.wall_time > 0.0
        assert result.point_dict() == {"churn_rate": 0.0}

    def test_static_query_is_exact(self):
        result = execute_trial(QUERY_PLAN.specs[0])
        assert result.ok and result.completeness == 1.0
        assert result.result == result.truth == 8

    def test_gossip_trial(self):
        spec = build_plan(
            "g", kind="gossip",
            base={"n": 8, "topology": "er", "mode": "avg", "rounds": 30},
            seeds=[3],
        ).specs[0]
        result = execute_trial(spec)
        assert result.kind == "gossip"
        assert result.terminated
        assert math.isnan(result.completeness)
        assert result.ok == math.isfinite(result.error)

    def test_dissemination_trial(self):
        spec = build_plan(
            "d", kind="dissemination",
            base={"n": 10, "topology": "er", "audit_at": 60.0},
            seeds=[3],
        ).specs[0]
        result = execute_trial(spec)
        assert result.kind == "dissemination"
        assert 0.0 <= result.completeness <= 1.0
        assert result.completeness == result.result


class TestBackends:
    def test_serial_results_in_plan_order(self):
        results = SerialExecutor().run_specs(QUERY_PLAN.specs)
        assert [r.index for r in results] == list(range(len(QUERY_PLAN)))

    def test_parallel_results_in_plan_order(self):
        results = ParallelExecutor(jobs=2).run_specs(QUERY_PLAN.specs)
        assert [r.index for r in results] == list(range(len(QUERY_PLAN)))

    def test_serial_and_parallel_agree(self):
        serial = SerialExecutor().run_specs(QUERY_PLAN.specs)
        parallel = ParallelExecutor(jobs=2).run_specs(QUERY_PLAN.specs)
        assert [r.to_record() for r in serial] == [
            r.to_record() for r in parallel
        ]

    def test_map_preserves_order_serial(self):
        assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_map_preserves_order_parallel(self):
        assert ParallelExecutor(jobs=2).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_map_empty(self):
        assert ParallelExecutor(jobs=2).map(_square, []) == []

    def test_parallel_with_one_item_stays_in_process(self):
        assert ParallelExecutor(jobs=4).map(_square, [5]) == [25]

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=0)


class TestMakeExecutor:
    """``ExecutorSpec.make()`` picks the backend; the ``--jobs``
    convention (nothing, 0 or 1 mean serial) lives on in the CLI only."""

    @pytest.mark.parametrize("jobs", [None, 0, 1])
    def test_serial_selection(self, jobs):
        import argparse

        from repro.cli import _resolve_executor_flag

        spec = _resolve_executor_flag(argparse.Namespace(jobs=jobs))
        assert isinstance(spec.make(), SerialExecutor)

    def test_parallel_selection(self):
        executor = ExecutorSpec.parallel(jobs=3).make()
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 3


class TestRunPlan:
    def test_returns_result_store(self):
        store = run_plan(QUERY_PLAN)
        assert isinstance(store, ResultStore)
        assert len(store) == len(QUERY_PLAN)
        assert store.plan == QUERY_PLAN.meta()

    def test_spec_accepted(self):
        store = run_plan(QUERY_PLAN, executor=ExecutorSpec.serial())
        assert store.to_json() == run_plan(QUERY_PLAN).to_json()

    def test_preset_name_accepted(self):
        store = run_plan(QUERY_PLAN, executor="parallel-unchunked")
        assert store.to_json() == run_plan(QUERY_PLAN).to_json()

    def test_passed_backend_stays_open(self):
        executor = ParallelExecutor(jobs=2)
        try:
            run_plan(QUERY_PLAN, executor=executor)
            assert executor.pool_active
            # Second plan reuses the same warm pool.
            run_plan(QUERY_PLAN, executor=executor)
            assert executor.pool_active
        finally:
            executor.close()
        assert not executor.pool_active


class TestWatchdog:
    """The per-trial wall-clock guard (execute_trial_guarded)."""

    def test_no_watchdog_is_plain_execute_trial(self):
        spec = QUERY_PLAN.specs[0]
        guarded = execute_trial_guarded(spec)
        assert guarded.to_record() == execute_trial(spec).to_record()
        assert guarded.status == ""

    def test_fast_trial_passes_within_the_budget(self):
        result = execute_trial_guarded(QUERY_PLAN.specs[0], watchdog=60.0)
        assert result.ok and result.status == ""
        assert result.to_record() == execute_trial(QUERY_PLAN.specs[0]).to_record()

    def test_invalid_watchdog_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_trial_guarded(QUERY_PLAN.specs[0], watchdog=0.0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_trial_guarded(QUERY_PLAN.specs[0], watchdog=1.0, retries=-1)

    def test_hung_trial_quarantined_after_retries(self, monkeypatch):
        import time as time_module

        import repro.engine.executor as executor_module

        calls = []

        def hang(spec):
            calls.append(spec.index)
            time_module.sleep(2.0)

        monkeypatch.setattr(executor_module, "execute_trial", hang)
        result = execute_trial_guarded(
            QUERY_PLAN.specs[0], watchdog=0.05, retries=1,
        )
        assert len(calls) == 2  # the overrun really was retried
        assert result.status == "quarantined"
        assert not result.ok and not result.terminated
        assert result.index == QUERY_PLAN.specs[0].index
        assert result.error == float("inf")
        assert result.wall_time == pytest.approx(0.05 * 2)

    def test_erroring_trial_reraises_immediately(self, monkeypatch):
        import repro.engine.executor as executor_module

        def boom(spec):
            raise ValueError("boom")

        monkeypatch.setattr(executor_module, "execute_trial", boom)
        with pytest.raises(ValueError, match="boom"):
            execute_trial_guarded(QUERY_PLAN.specs[0], watchdog=5.0)

    def test_quarantined_record_round_trips(self):
        result = _quarantined_result(QUERY_PLAN.specs[0], 2.0)
        record = result.to_record()
        assert record["status"] == "quarantined"
        rebuilt = TrialResult.from_record(record, dict(result.point))
        assert rebuilt.status == "quarantined"

    def test_ordinary_records_omit_the_status_key(self):
        record = execute_trial(QUERY_PLAN.specs[0]).to_record()
        assert "status" not in record

    def test_make_executor_threads_the_settings(self):
        serial = ExecutorSpec.serial(watchdog=5.0, trial_retries=2).make()
        assert isinstance(serial, SerialExecutor)
        assert serial.watchdog == 5.0 and serial.retries == 2
        parallel = ExecutorSpec.parallel(
            jobs=3, watchdog=7.0, trial_retries=1
        ).make()
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.watchdog == 7.0 and parallel.retries == 1

    def test_watchdogged_run_matches_plain_run(self):
        plain = SerialExecutor().run_specs(QUERY_PLAN.specs)
        guarded = SerialExecutor(watchdog=60.0).run_specs(QUERY_PLAN.specs)
        assert [r.to_record() for r in plain] == [
            r.to_record() for r in guarded
        ]

    def test_watchdog_survives_the_process_pool(self):
        # functools.partial(execute_trial_guarded, ...) must pickle.
        plain = SerialExecutor().run_specs(QUERY_PLAN.specs)
        pooled = ParallelExecutor(jobs=2, watchdog=60.0).run_specs(
            QUERY_PLAN.specs
        )
        assert [r.to_record() for r in plain] == [
            r.to_record() for r in pooled
        ]


class TestProgressPrinter:
    """The CLI's progress hook: live ETA, final per-status counts."""

    def _run(self, plan):
        import io

        from repro.cli import _ProgressPrinter

        stream = io.StringIO()
        printer = _ProgressPrinter(jobs=1, stream=stream)
        store = run_plan(plan, executor=SerialExecutor(), progress=printer)
        return printer, stream.getvalue(), store

    def test_final_line_reports_per_status_counts(self):
        plan = build_plan(
            "progress-mixed", kind="query",
            grid={"churn_rate": [0.0, 8.0]},
            base={"n": 8, "topology": "er", "aggregate": "COUNT",
                  "horizon": 100.0},
            trials=2, root_seed=13,
        )
        printer, output, store = self._run(plan)
        assert printer.ok + printer.failed + printer.skipped == len(plan.specs)
        assert printer.ok == sum(1 for r in store.results
                                 if r.terminated and r.ok)
        assert printer.failed == sum(1 for r in store.results
                                     if r.terminated and not r.ok)
        assert printer.skipped == sum(1 for r in store.results
                                      if not r.terminated)
        final = output.strip().splitlines()[-1]
        assert final == (f"[{len(plan.specs)}/{len(plan.specs)}] trials "
                         f"done: {printer.summary()}")

    def test_intermediate_lines_keep_the_eta(self):
        printer, output, _ = self._run(QUERY_PLAN)
        lines = output.strip().splitlines()
        assert all("eta" in line for line in lines[:-1])
        assert "eta" not in lines[-1]
        assert f"{printer.ok} ok" in lines[-1]

    def test_quarantined_counted_and_reported(self):
        import io

        from repro.cli import _ProgressPrinter

        printer = _ProgressPrinter(jobs=1, stream=io.StringIO())
        printer(1, 2, _quarantined_result(QUERY_PLAN.specs[0], 1.0))
        printer(2, 2, execute_trial(QUERY_PLAN.specs[0]))
        assert printer.quarantined == 1 and printer.ok == 1
        assert printer.summary().endswith(", 1 quarantined")

    def test_quarantine_summary_suffix_absent_when_clean(self):
        import io

        from repro.cli import _ProgressPrinter

        printer = _ProgressPrinter(jobs=1, stream=io.StringIO())
        printer(1, 1, execute_trial(QUERY_PLAN.specs[0]))
        assert "quarantined" not in printer.summary()

    def test_chunk_counts_reported_when_chunked(self):
        import io

        from repro.cli import _ProgressPrinter

        printer = _ProgressPrinter(jobs=2, stream=io.StringIO())
        printer.chunk_update(3, 2)
        printer(1, 1, execute_trial(QUERY_PLAN.specs[0]))
        assert printer.summary().endswith("(2/3 chunks)")

    def test_chunk_suffix_absent_for_unchunked_backends(self):
        import io

        from repro.cli import _ProgressPrinter

        printer = _ProgressPrinter(jobs=1, stream=io.StringIO())
        printer(1, 1, execute_trial(QUERY_PLAN.specs[0]))
        assert "chunks" not in printer.summary()

    def test_chunked_run_summary_has_current_counts(self):
        """The executor must publish chunk counters before the final
        per-trial callback, so a summary printed on the last trial is
        not one chunk behind."""
        import io

        from repro.cli import _ProgressPrinter

        final_state = {}

        class Recorder(_ProgressPrinter):
            def __call__(self, done, total, result):
                super().__call__(done, total, result)
                if done == total:
                    final_state["summary"] = self.summary()

        printer = Recorder(jobs=2, stream=io.StringIO())
        executor = ParallelExecutor(jobs=2, chunk=2)
        try:
            run_plan(QUERY_PLAN, executor=executor, progress=printer)
        finally:
            executor.close()
        assert printer.chunks_dispatched == 2
        assert final_state["summary"].endswith("(2/2 chunks)")
