"""The run ledger's one fold: the recorder's summary and ``repro top``
count the same trials the same way.

The recorder folds every record it writes (:class:`RunFold`) and builds
its ``summary`` from the fold; :class:`TelemetryTail` folds the same
records read back from the file.  So on every backend the summary's
counts and worker health equal what the tail shows — including the
per-chunk rounding of ``queue_wait_s`` that the wire format applies.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.engine.executor import SerialExecutor, run_plan
from repro.engine.plan import build_plan
from repro.engine.spec import ExecutorSpec
from repro.engine.telemetry import TELEMETRY_SUFFIX, TelemetryRecorder
from repro.obs.ledger import RunManifest, TelemetryTail, trial_outcome
from tests.engine.conftest import WATCHDOG, poisoned_trial  # noqa: F401 - a fixture

# churn_rate 8.0 produces genuinely failed trials.
PLAN = build_plan(
    "ledger-plan", kind="query",
    grid={"churn_rate": [0.0, 8.0]},
    base={"n": 8, "topology": "er", "aggregate": "COUNT", "horizon": 150.0},
    trials=5, root_seed=13,
)


def tpath(tmp_path) -> str:
    return str(tmp_path / f"run{TELEMETRY_SUFFIX}")


def tail_of(path: str) -> TelemetryTail:
    tail = TelemetryTail(path)
    tail.poll()
    return tail


def assert_agree(tail: TelemetryTail) -> None:
    summary = tail.summary
    assert summary is not None
    assert summary["trials"] == tail.trials_done == len(PLAN)
    assert summary["counts"] == tail.counts
    assert summary["workers"] == [
        tail.workers[pid].to_record() for pid in sorted(tail.workers)
    ]


class TestSummaryAgreesWithTop:
    @pytest.mark.parametrize("executor", [
        ExecutorSpec.serial(),
        ExecutorSpec.parallel(jobs=2),
        ExecutorSpec.parallel(jobs=2, chunk=3),
    ], ids=["serial", "adaptive", "chunk3"])
    def test_every_backend(self, tmp_path, executor):
        run_plan(PLAN, executor=executor, telemetry=tpath(tmp_path))
        tail = tail_of(tpath(tmp_path))
        assert_agree(tail)
        assert tail.counts["ok"] and tail.counts["failed"]

    def test_quarantining_run(self, tmp_path, poisoned_trial):
        run_plan(PLAN, executor=SerialExecutor(watchdog=WATCHDOG),
                 telemetry=tpath(tmp_path))
        tail = tail_of(tpath(tmp_path))
        assert_agree(tail)
        assert tail.counts["quarantined"] == 1

    def test_per_chunk_rounding_is_what_both_sides_average(self, tmp_path):
        # Queue waits of 0.4, 0.4 and 1.4 us travel as 0, 0 and 1 us (the
        # chunk span rounds to 6 places).  Averaged unrounded they would
        # give 1 us; the spans' own values give 0.
        recorder = TelemetryRecorder(path=tpath(tmp_path))
        recorder.open_run({"name": "synthetic", "n_trials": 3})
        for index, wait in enumerate((0.4e-6, 0.4e-6, 1.4e-6)):
            t0 = 100.0 + index
            recorder.record_chunk(
                [SimpleNamespace(index=index, seed=index)],
                [SimpleNamespace(ok=True)],
                {"pid": 7, "t0": t0, "t1": t0 + 0.5,
                 "trials": [(t0, t0 + 0.5)]},
                submitted=t0 - wait,
            )
        summary = recorder.close()
        tail = tail_of(recorder.path)
        assert summary["workers"] == [tail.workers[7].to_record()]
        assert summary["workers"][0]["queue_wait_mean_s"] == 0.0


class TestTopWorkerCount:
    def test_eta_divides_by_the_manifest_workers_not_the_parent(
        self, tmp_path
    ):
        # An adaptive jobs=2 run: the parent runs the calibration trial,
        # two workers run chunks.  Three pids, two workers.
        recorder = TelemetryRecorder(path=tpath(tmp_path))
        recorder.open_run({"name": "live", "n_trials": 10},
                          executor={"backend": "parallel", "jobs": 2})
        spec, result = SimpleNamespace(index=0, seed=0), SimpleNamespace(ok=True)
        recorder.record_trial(spec, result, 10.0, 10.3, worker=1,
                              calibration=True)
        for pid, t0 in ((2, 11.0), (3, 11.0)):
            recorder.record_chunk([spec], [result],
                                  {"pid": pid, "t0": t0, "t1": t0 + 0.3,
                                   "trials": [(t0, t0 + 0.3)]},
                                  submitted=t0)
        tail = tail_of(recorder.path)  # live: no summary yet
        assert not tail.finished and len(tail.workers) == 3
        assert tail.eta_s() == pytest.approx(0.3 * 7 / 2)

    @pytest.mark.parametrize("executor, workers", [
        ({"backend": "serial", "jobs": 1}, 1),
        ({"backend": "parallel", "jobs": 3}, 3),
        ({"backend": "parallel", "jobs": None}, 6),
    ])
    def test_worker_count_of_a_manifest(self, executor, workers):
        manifest = RunManifest(
            run_id="r", started=0.0, plan={}, executor=executor,
            host={"cpu_count": 6}, repro_version="", result_schema={},
        )
        assert manifest.worker_count == workers


def test_one_outcome_rule():
    assert trial_outcome(True) == "ok"
    assert trial_outcome(False) == "failed"
    assert trial_outcome(True, terminated=False) == "skipped"
    assert trial_outcome(True, False, "quarantined") == "quarantined"
