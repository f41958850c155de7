"""Shared pieces of the engine suites: the one query plan and the one gossip
plan, one serial reference run per plan, ``fork_only``, the warm pool and
the fixtures that poison a trial."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from types import SimpleNamespace
from typing import NamedTuple

import pytest

import repro.engine.executor as executor_module
from repro.engine.executor import ParallelExecutor, SerialExecutor, run_plan
from repro.engine.plan import ExperimentPlan, build_plan
from repro.engine.results import ResultStore, StreamingResultStore, TrialResult

# churn_rate 8.0 produces genuinely failed trials (incomplete queries).
PLAN = build_plan(
    "engine-plan", kind="query",
    grid={"churn_rate": [0.0, 8.0]},
    base={"n": 8, "topology": "er", "aggregate": "COUNT", "horizon": 150.0},
    trials=5, root_seed=13,
)
# Gossip records carry a NaN completeness.
GOSSIP_PLAN = build_plan(
    "engine-gossip", kind="gossip",
    grid={"churn_rate": [0.0, 1.0]},
    base={"n": 8, "topology": "er", "mode": "avg", "rounds": 20},
    trials=2, root_seed=77,
)
PLANS = {"query": PLAN, "gossip": GOSSIP_PLAN}

#: The poisoned trial's plan index (in both plans).
HANG_INDEX = 3
#: Orders of magnitude above an innocent trial's 1-30 ms, so a host stall
#: cannot quarantine one.
WATCHDOG = 2.0

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pre-fork monkeypatching needs the fork start method",
)


class Reference(NamedTuple):
    results: list[TrialResult]
    json: str
    stream: bytes


def reference_of(
    plan: ExperimentPlan, results: list[TrialResult], directory: str
) -> Reference:
    """``results`` as ``run_plan`` and ``stream_plan`` would write them."""
    store = ResultStore.from_run(plan, results)
    path = os.path.join(directory, f"{plan.name}.jsonl")
    with StreamingResultStore(path, plan=plan.meta()) as sink:
        for result in store.results:
            sink.append(result)
    with open(path, "rb") as handle:
        return Reference(store.results, store.to_json(), handle.read())


@pytest.fixture(scope="session")
def references(tmp_path_factory) -> dict[str, Reference]:
    directory = str(tmp_path_factory.mktemp("reference"))
    return {
        name: reference_of(plan, run_plan(plan, executor=SerialExecutor()).results,
                           directory)
        for name, plan in PLANS.items()
    }


@pytest.fixture(scope="session")
def reference(references) -> Reference:
    return references["query"]


@pytest.fixture(scope="session")
def warm_pool():
    """A jobs=2 pool, forked before anything is patched; users set its
    ``chunk`` and leave it warm."""
    executor = ParallelExecutor(jobs=2)
    executor._ensure_pool()
    yield executor
    executor.close()


@pytest.fixture()
def no_backoff(monkeypatch):
    """No respawn delay (the executor looks the schedule up at call time)."""
    monkeypatch.setattr(executor_module, "respawn_backoff", lambda n: 0.0)


@pytest.fixture()
def poisoned_trial(monkeypatch) -> int:
    """Trial :data:`HANG_INDEX` hangs, and its watchdog expires at once:
    its thread is never started and joining it returns immediately, so its
    result box stays empty and the real quarantine path runs (retries,
    then ``quarantined_result``).  Every other trial keeps the real
    watchdog.  A pool forked after this inherits it."""
    poisoned = f"trial-{HANG_INDEX}"

    class Thread(threading.Thread):
        def start(self) -> None:
            if self.name != poisoned:
                super().start()

        def join(self, timeout: float | None = None) -> None:
            if self.name != poisoned:
                super().join(timeout)

    monkeypatch.setattr(executor_module, "threading", SimpleNamespace(Thread=Thread))
    return HANG_INDEX


@pytest.fixture()
def lethal_trial(monkeypatch, no_backoff) -> int:
    """Trial :data:`HANG_INDEX` SIGKILLs every (forked) worker it runs on."""
    real = executor_module.execute_trial

    def lethal(spec):
        if spec.index == HANG_INDEX:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(spec)

    monkeypatch.setattr(executor_module, "execute_trial", lethal)
    return HANG_INDEX
