"""The four workloads: inputs, one pass each, and what a pass must get right.

Load shape (all four): closed loop, one client.  A workload runs in its
own child process; passes run back to back with ``gc.collect()`` between
them, after one untimed warm-up.  ``--seed`` replaces every root seed and
the program only ever sees the generated inputs (a YAML file, a plan, a
simulator seed).

Why these four (``perf/README.md`` has the long form):

* ``e4-sweep`` — the paper's core sweep at the n the E-suite really uses;
  membership-heavy, heap queue, per-trial construction dominates.
* ``e22-faults`` — message-heavy at tiny n; the only workload with the
  fault and resilience interposers on the hot path.
* ``storm-10k`` — send-heavy at scale on the raw ``Simulator`` API:
  calendar queue, slot arrays, counting sink; the engine does nothing.
* ``engine-pool`` — 2400 trials of ~1.4 ms, so dispatch, pickling, the
  stream file, the checkpoint journal and telemetry are as large a share
  of wall time as they can ever be; the simulator idles.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import yaml

import repro.engine.executor as executor
import repro.engine.plan as plan_module
import repro.engine.results as results
import repro.experiments as experiments
from repro.engine.recovery import checkpoint
from repro.engine.spec import ExecutorSpec, resolve_executor
from repro.obs.sinks import CountingSink
from repro.obs.spans import read_telemetry
from repro.sim.node import Process
from repro.sim.scheduler import Simulator

ROOT = Path(__file__).resolve().parents[2]

#: The seed the digests in ``perf/expected.json`` are pinned for, and the
#: seed the shipped YAML files' ``expect:`` verdicts are calibrated to.
PINNED_SEED = 2007


@dataclass
class Context:
    """What one workload run was asked to do."""

    seed: int
    tmp: Path
    smoke: bool = False


@dataclass
class PassSample:
    """Everything measured and checked in one pass."""

    wall_s: float
    setup_s: float
    events: int
    trial_ms: list[float]
    digest: str
    failures: list[str] = field(default_factory=list)
    #: Numbers for the per-layer table that come from the program's own
    #: published counters, timings and files rather than from probes.
    facts: dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.trial_ms)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trial_facts(trial_results: list[Any]) -> dict[str, float]:
    """Sum the program's published per-trial timings and counters."""
    facts: dict[str, float] = {
        "engine.trials.calls": len(trial_results),
        "engine.trials.simulate_s": 0.0,
        "engine.trials.check_s": 0.0,
        "sim.trace.retained": 0,
    }
    counters: dict[str, int] = {}
    wall = 0.0
    for result in trial_results:
        wall += result.wall_time
        timings = result.metrics.get("timings", {})
        facts["engine.trials.simulate_s"] += timings.get("simulate", 0.0)
        facts["engine.trials.check_s"] += timings.get("check", 0.0)
        # Trials use the memory sink, which retains every recorded event.
        facts["sim.trace.retained"] += result.metrics["gauges"]["sim.trace_events"]
        for name, value in result.metrics["counters"].items():
            counters[name] = counters.get(name, 0) + value
    facts["engine.trials.other_s"] = (
        wall - facts["engine.trials.simulate_s"] - facts["engine.trials.check_s"]
    )
    facts.update(_counter_facts(counters))
    return facts


def _counter_facts(counters: dict[str, int]) -> dict[str, float]:
    return {
        "churn.joins": counters.get("churn.joins", 0),
        "churn.leaves": counters.get("churn.leaves", 0),
        "faults.dropped": counters.get("net.dropped.fault", 0),
        "faults.duplicates": counters.get("faults.duplicates", 0),
        "resilience.retransmits": counters.get("resilience.retransmits", 0),
        "resilience.abandoned": counters.get("resilience.abandoned", 0),
        "sim.network.dropped": sum(
            value for name, value in counters.items()
            if name.startswith("net.dropped.")
        ),
    }


def _trial_failures(trial_results: list[Any]) -> list[str]:
    return [
        f"trial {result.index} {result.status}"
        for result in trial_results if result.status
    ]


def _trial_sample(
    wall_s: float, setup_s: float, trial_results: list[Any], text: str,
    workers: int = 1,
) -> PassSample:
    """The sample of one pass that ran ``trial_results`` and produced the
    canonical document ``text``."""
    sample = PassSample(
        wall_s=wall_s,
        setup_s=setup_s,
        events=sum(result.events_executed for result in trial_results),
        trial_ms=[result.wall_time * 1e3 for result in trial_results],
        digest=sha256(text),
        failures=_trial_failures(trial_results),
        facts=_trial_facts(trial_results),
    )
    sample.facts["engine.plan.trials"] = len(trial_results)
    sample.facts["engine.results.doc_bytes"] = len(text.encode("utf-8"))
    sample.facts["engine.executor.overhead_us_per_trial"] = _overhead_us(
        wall_s - setup_s, trial_results, workers
    )
    return sample


def _overhead_us(wall_s: float, trial_results: list[Any], workers: int) -> float:
    busy = sum(result.wall_time for result in trial_results) / workers
    return (wall_s - busy) / len(trial_results) * 1e6


class Workload:
    """What :func:`harness.runner.measure` asks of a workload.

    A subclass provides ``name``, ``passes`` (the full pass count),
    ``prepare``, ``warm_up`` and ``run_pass``; the rest has defaults.
    """

    #: Standalone set-up measurements taken before the passes.
    setup_repeats = 0
    #: Whether each pass also does (and times) the full set-up.
    setup_in_pass = True
    #: Passes of the in-process reference arm (``run_reference``).
    reference_passes = 0
    #: Cold ``repro experiment run`` subprocesses (the cold-start arm).
    cli_runs = 0

    def close(self) -> None:
        """Release what ``warm_up`` opened."""

    def layer_facts(
        self, reference: list[PassSample], samples: list[PassSample]
    ) -> tuple[dict[str, float], list[str]]:
        """Per-layer numbers that need more than one pass to compute, and
        the names of the per-layer metrics this run could not measure."""
        return {}, []


# ----------------------------------------------------------------------
# e4-sweep / e22-faults: shipped YAML through load_experiment
# ----------------------------------------------------------------------


def _smoke_e4(record: dict[str, Any]) -> None:
    record["trials"] = 1


def _smoke_e22(record: dict[str, Any]) -> None:
    # Three presets keep every expect: rule matched; one seed per cell.
    record["grid"]["faults"] = ["amnesia", "dup-flood", "silent-crash"]
    record["seeds"] = record["seeds"][:1]


class YamlSweep(Workload):
    """A shipped experiment YAML: ``load_experiment`` → ``run_experiment``
    on the serial executor with an in-memory store and no refinement."""

    setup_repeats = 9

    def __init__(
        self, name: str, source: str, passes: int, warm_stride: int,
        cli_runs: int, smoke_edit: Callable[[dict[str, Any]], None],
    ) -> None:
        self.name = name
        self.source = source
        self.passes = passes
        self.warm_stride = warm_stride
        self.cli_runs = cli_runs
        self.smoke_edit = smoke_edit

    def prepare(self, ctx: Context) -> None:
        shipped = ROOT / "examples" / "experiments" / self.source
        record = yaml.safe_load(shipped.read_text(encoding="utf-8"))
        offset = ctx.seed - PINNED_SEED
        record["root_seed"] = record.get("root_seed", PINNED_SEED) + offset
        if "seeds" in record:
            record["seeds"] = [seed + offset for seed in record["seeds"]]
        if ctx.smoke:
            self.smoke_edit(record)
        # The shipped verdicts are claims about the pinned seed's trials;
        # under any other seed they are computed but not gated.
        self.gate_verdicts = ctx.seed == PINNED_SEED and not ctx.smoke
        self.path = ctx.tmp / f"{self.name}.yaml"
        self.path.write_text(
            yaml.safe_dump(record, sort_keys=False), encoding="utf-8"
        )
        self._warm_records: dict[int, Any] = {}

    def set_up(self) -> tuple[Any, Any]:
        experiment = experiments.load_experiment(str(self.path))
        experiment.to_plan()
        backend = resolve_executor(experiment.executor).make()
        return experiment, backend

    def setup_sample(self) -> float:
        start = time.perf_counter()
        _, backend = self.set_up()
        took = time.perf_counter() - start
        backend.close()
        return took

    def warm_up(self) -> None:
        experiment, backend = self.set_up()
        with backend:
            specs = experiment.to_plan().specs[::self.warm_stride]
            self._warm_records = {
                result.index: result.to_record()
                for result in backend.run_specs(specs)
            }

    def run_pass(self) -> PassSample:
        start = time.perf_counter()
        experiment, backend = self.set_up()
        ready = time.perf_counter()
        with backend:
            run = experiments.run_experiment(experiment, executor=backend)
        text = run.store.to_json()
        wall = time.perf_counter() - start

        trial_results = run.store.results
        sample = _trial_sample(wall, ready - start, trial_results, text)
        results.validate_document(json.loads(text))
        if self.gate_verdicts:
            sample.failures += [str(check) for check in run.failures]
        for result in trial_results:
            warm = self._warm_records.get(result.index)
            if warm is not None and warm != result.to_record():
                sample.failures.append(
                    f"trial {result.index} differs from its warm-up run"
                )
        return sample

    def _cold(self, *argv: str) -> tuple[float, subprocess.CompletedProcess]:
        """Wall time of one fresh interpreter running ``argv``."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *argv], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
        return time.perf_counter() - start, done

    def import_cost(self, repeats: int) -> float:
        """``import repro.cli`` in a fresh interpreter, minus the bare
        interpreter's own start-up (medians of ``repeats`` each)."""
        bare = [self._cold("-c", "pass")[0] for _ in range(repeats)]
        cli = [self._cold("-c", "import repro.cli")[0] for _ in range(repeats)]
        return statistics.median(cli) - statistics.median(bare)

    def cold_cli(self, output: Path) -> tuple[float, str]:
        """One cold ``repro experiment run`` subprocess: wall and digest."""
        wall, done = self._cold(
            "-m", "repro.cli", "experiment", "run", str(self.path),
            "--no-refine", "--output", str(output),
        )
        # Exit 1 means "an expect: rule failed", which is only an error
        # where the verdicts are gated.
        allowed = (0,) if self.gate_verdicts else (0, 1)
        if done.returncode not in allowed:
            raise RuntimeError(
                f"repro experiment run exited {done.returncode}: "
                f"{done.stderr.strip()[-300:]}"
            )
        return wall, sha256(output.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# storm-10k: the raw Simulator API
# ----------------------------------------------------------------------

#: Ping period per entity in sim-time units.
PERIOD = 1.0


class PingNode(Process):
    """One entity of the storm: ping a random neighbor every PERIOD.

    Harness-owned (the same scenario ``benchmarks/emit_scale.py`` runs,
    kept here so ``benchmarks/`` stays free to change).
    """

    def on_start(self) -> None:
        # Uniform initial phase so the pings spread over the period
        # instead of arriving as one synchronized burst.
        self.set_timer(self.rng.uniform(0.0, PERIOD), "ping")

    def on_timer(self, name: str, payload: object) -> None:
        target = self.random_neighbor()
        if target is not None:
            self.send(target, "PING")
        self.set_timer(PERIOD, "ping")


class Storm(Workload):
    """Ping storm: complete graph, silent churn, counting sink.  Every
    pass sets up a fresh simulator, so set-up is sampled there."""

    name = "storm-10k"
    passes = 4
    horizon = 8.0

    def prepare(self, ctx: Context) -> None:
        self.seed = ctx.seed
        self.n = 500 if ctx.smoke else 10_000

    def warm_up(self) -> None:
        self._run(n=500)

    def run_pass(self) -> PassSample:
        return self._run(self.n)

    def _run(self, n: int) -> PassSample:
        start = time.perf_counter()
        sink = CountingSink()
        sim = Simulator(
            seed=self.seed, complete=True, notify_leaves=False,
            notify_joins=False, trace_sink=sink,
        )
        pids = [sim.spawn(PingNode(1.0)).pid for _ in range(n)]
        rng = sim.rng_for("scale-churn")
        for _ in range(n // 20):
            at = rng.uniform(0.1, self.horizon)
            sim.schedule_leave(at, rng.choice(pids))
            sim.schedule_join(at, lambda: PingNode(1.0), lambda present: ())
        ready = time.perf_counter()
        sim.run(until=self.horizon, max_events=500_000_000)
        wall = time.perf_counter() - start

        counters = sim.metrics_snapshot()["counters"]
        document = json.dumps({
            "events_executed": sim.events_executed,
            "counters": counters,
            "summary": sink.summary(),
        }, sort_keys=True)
        facts = _counter_facts(counters)
        facts["sim.trace.retained"] = sim.trace.retained
        return PassSample(
            wall_s=wall,
            setup_s=ready - start,
            events=sim.events_executed,
            trial_ms=[(wall - (ready - start)) * 1e3],
            digest=sha256(document),
            facts=facts,
        )


# ----------------------------------------------------------------------
# engine-pool: many tiny trials through the warm pool and three files
# ----------------------------------------------------------------------


def _noop(item: int) -> int:
    return item


class EnginePool(Workload):
    """2400 ~1.4 ms trials.  Arm A: ``run_plan``, serial, in memory (the
    reference).  Arm B: ``stream_plan`` on one warm pool with the JSONL
    stream, the checkpoint journal and the telemetry file all attached.
    The end-to-end metrics are Arm B's."""

    name = "engine-pool"
    passes = 5
    reference_passes = 2
    # Pool start is a fork: milliseconds, and noisy, so many repeats.
    setup_repeats = 31
    # A pass reuses the warm pool, so only build_plan happens inside it.
    setup_in_pass = False

    def prepare(self, ctx: Context) -> None:
        self.seed = ctx.seed
        self.tmp = ctx.tmp
        self.trials = 10 if ctx.smoke else 600
        # Never more workers than processors.
        self.jobs = min(2, os.cpu_count() or 1)
        self.backend: Any = None
        self.pool_starts: list[float] = []
        self._pass = 0

    def build(self) -> Any:
        return plan_module.build_plan(
            "perf-pool", kind="query",
            grid={"churn_rate": [0, 1], "topology": ["er", "ring"]},
            base={"n": 8, "aggregate": "COUNT", "horizon": 30.0},
            trials=self.trials, root_seed=self.seed,
        )

    def start_pool(self) -> Any:
        backend = ExecutorSpec.parallel(jobs=self.jobs).make()
        # The pool forks on first use; a no-op task per worker makes
        # "pool started" observable from outside.
        backend.map(_noop, range(self.jobs))
        return backend

    def setup_sample(self) -> float:
        start = time.perf_counter()
        self.build()
        built = time.perf_counter()
        backend = self.start_pool()
        done = time.perf_counter()
        backend.close()
        self.pool_starts.append(done - built)
        return done - start

    def warm_up(self) -> None:
        self.backend = self.start_pool()
        self.run_pass()

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def layer_facts(
        self, reference: list[PassSample], samples: list[PassSample]
    ) -> tuple[dict[str, float], list[str]]:
        facts = {"engine.executor.pool_start_s": statistics.median(self.pool_starts)}
        if self.jobs < 2 or not reference:
            # One processor: a "pool" of one worker measures nothing.
            return facts, ["engine.executor.pool_speedup"]
        facts["engine.executor.pool_speedup"] = (
            statistics.median(sample.wall_s for sample in reference)
            / statistics.median(sample.wall_s for sample in samples)
        )
        return facts, []

    def run_reference(self) -> PassSample:
        """Arm A."""
        start = time.perf_counter()
        plan = self.build()
        ready = time.perf_counter()
        store = executor.run_plan(plan)
        text = store.to_json()
        wall = time.perf_counter() - start
        return _trial_sample(wall, ready - start, store.results, text)

    def run_pass(self) -> PassSample:
        """Arm B."""
        self._pass += 1
        stem = self.tmp / f"pool-{self._pass}"
        stream, journal, telemetry = (
            f"{stem}.jsonl", f"{stem}.ckpt.jsonl", f"{stem}.telemetry.jsonl"
        )
        trial_results: list[Any] = []
        try:
            start = time.perf_counter()
            plan = self.build()
            ready = time.perf_counter()
            executor.stream_plan(
                plan, stream, executor=self.backend, telemetry=telemetry,
                checkpoint=journal,
                progress=lambda done, total, result: trial_results.append(result),
            )
            document = results.load_document(stream)
            text = json.dumps(document, indent=2, sort_keys=True) + "\n"
            wall = time.perf_counter() - start

            sample = _trial_sample(
                wall, ready - start, trial_results, text, workers=self.jobs
            )
            if len(trial_results) != len(plan.specs):
                sample.failures.append(
                    f"{len(trial_results)} of {len(plan.specs)} trials completed"
                )
            state = checkpoint.load_checkpoint(journal, plan=plan)
            if state.completed != {spec.index for spec in plan.specs}:
                sample.failures.append("checkpoint journal is incomplete")
            records = list(read_telemetry(telemetry))
            recovery = records[-1].get("recovery", {})
            sample.facts.update({
                "engine.executor.chunks": self.backend.chunks_dispatched,
                "engine.executor.redispatched": (
                    getattr(self.backend, "respawns", 0)
                    + recovery.get("engine.recovery.chunks_redispatched", 0)
                ),
                "engine.recovery.journal_bytes": os.path.getsize(journal),
                "engine.telemetry.spans": sum(
                    1 for record in records if record.get("type") == "span"
                ),
                "engine.telemetry.bytes": os.path.getsize(telemetry),
                # Peak RSS as each worker published it with its trials.
                "worker_rss_kb": max(
                    result.metrics["timings"]["peak_rss_kb"]
                    for result in trial_results
                ),
            })
            return sample
        finally:
            for path in (stream, journal, telemetry):
                if os.path.exists(path):
                    os.remove(path)


def make(name: str) -> Any:
    """The workload called ``name`` (names are fixed by BENCHMARK.json)."""
    if name == "e4-sweep":
        return YamlSweep(name, "e4_churn_sweep.yaml", passes=25,
                         warm_stride=1, cli_runs=7, smoke_edit=_smoke_e4)
    if name == "e22-faults":
        # The warm-up runs every 9th trial: six trials that touch both the
        # plain and the resilient arm, not a 15 s full pass.
        return YamlSweep(name, "e22_recovery_audit.yaml", passes=2,
                         warm_stride=9, cli_runs=0, smoke_edit=_smoke_e22)
    if name == "storm-10k":
        return Storm()
    if name == "engine-pool":
        return EnginePool()
    raise ValueError(f"unknown workload {name!r}")
