"""The engine conformance matrix: every configuration reproduces the one
serial reference run of its plan.

A line of :data:`CELLS_TABLE` is a plan, a backend (the warm pool at chunk
1, 3, 7 or adaptive), an output (a ``timed`` stream keeps wall times) and
observers, then the disruptions run under them.  ``sigint``, ``enospc``
(the stream's append, or the journal's under a store) and ``torn`` are
swept over every point of a serial run (three on the pool) and resumed;
after a colon, the resume runs on another backend, ``from`` a read-only
journal, from its loaded ``state`` or ``into`` a new journal (at one point
of a serial run).  ``kill`` SIGKILLs a worker (then, with a journal,
SIGINTs and resumes); ``hang`` and ``lethal`` poison a trial.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import warnings

import pytest

from repro.engine.executor import (
    CHUNKS_PER_WORKER, ParallelExecutor, SerialExecutor, _quarantined_result,
    run_plan, stream_plan,
)
from repro.engine.recovery.chaos import (
    ChaosInterrupt, ENOSPCAfter, KillWorkerAtChunk, SigintAfter, tear_file_tail,
)
from repro.engine.recovery.checkpoint import CheckpointWriter, load_checkpoint
from repro.engine.recovery.healing import quarantine_threshold
from repro.engine.results import (
    ResultStore, StreamingResultStore, TrialResult, load_document, timed_record,
)
from repro.engine.telemetry import TELEMETRY_SUFFIX
from repro.obs.ledger import OUTCOMES, load_telemetry, run_status, trial_outcome
from tests.engine.conftest import (
    HANG_INDEX, PLAN, PLANS, WATCHDOG, fork_only, reference_of,
)

CELLS_TABLE = """
query   serial    store   none        none hang
query   serial    store   telemetry   none
query   serial    store   checkpoint  none sigint sigint:from sigint:pool1 sigint:pool7 sigint:state
query   serial    stream  checkpoint  none sigint sigint:into sigint:pool3 enospc
query   serial    timed   checkpoint  none
query   pool1     store   none        none hang
query   pool1     store   telemetry   none
query   pool1     store   checkpoint  sigint:into sigint:serial
query   pool1     stream  none        none
query   pool1     timed   none        kill
query   pool3     store   telemetry   kill lethal
query   pool3     store   checkpoint  kill:serial
query   pool3     stream  telemetry   none
query   pool3     stream  checkpoint  none
query   pool3     timed   checkpoint  none
query   pool7     store   none        none hang
query   pool7     store   telemetry   none hang
query   pool7     store   checkpoint  sigint:serial
query   pool7     stream  none        none
query   pool7     timed   both        torn
query   adaptive  store   none        none
query   adaptive  store   telemetry   none
query   adaptive  stream  both        kill
gossip  serial    store   checkpoint  sigint:pool7 torn
gossip  serial    store   both        none
gossip  serial    stream  none        none
gossip  serial    stream  checkpoint  torn
gossip  serial    timed   telemetry   none
gossip  pool1     timed   both        enospc torn lethal
gossip  pool3     store   none        none
gossip  pool3     stream  both        enospc torn hang
gossip  pool3     timed   both        sigint
gossip  pool7     store   none        none
gossip  pool7     store   telemetry   none
gossip  pool7     store   checkpoint  sigint:serial enospc
gossip  pool7     stream  none        none lethal
gossip  adaptive  store   none        none
gossip  adaptive  store   both        sigint enospc torn
gossip  adaptive  stream  none        none
gossip  adaptive  timed   checkpoint  hang lethal
"""

AXES = {
    "plan": ("query", "gossip"),
    "backend": ("serial", "pool1", "pool3", "pool7", "adaptive"),
    "output": ("store", "stream", "timed"),
    "observers": ("none", "telemetry", "checkpoint", "both"),
    "disruption": ("none", "sigint", "enospc", "torn", "kill", "hang", "lethal"),
}
CHUNK = {"pool1": 1, "pool3": 3, "pool7": 7, "adaptive": None}
RESUMABLE = ("sigint", "enospc", "torn")
MODES = ("-", "from", "state", "into")


def impossible(values: dict[str, str]) -> bool:
    """Whether no cell can hold these axis values together."""
    disruption = values.get("disruption")
    return (
        # Resuming needs a journal.
        disruption in RESUMABLE and values.get("observers") in ("none", "telemetry")
        # The serial backend has no worker to kill.
        or disruption in ("kill", "lethal") and values.get("backend") == "serial"
        # A kill must land while a chunk is in flight: two-millisecond gossip
        # trials, or the query plan's two chunks of 7, end too close together.
        or disruption == "kill" and (values.get("plan") == "gossip"
                                     or values.get("backend") == "pool7")
    )


@dataclasses.dataclass(frozen=True)
class Cell:
    plan: str
    backend: str
    output: str
    observers: str
    disruption: str
    finish: str = "-"

    def __str__(self) -> str:
        return "-".join(v for v in dataclasses.astuple(self) if v != "-")

    @property
    def journal(self) -> bool:
        return self.observers in ("checkpoint", "both")

    @property
    def telemetry(self) -> bool:
        return self.observers in ("telemetry", "both")


CELLS = [Cell(*line.split()[:4], *run.split(":"))
         for line in CELLS_TABLE.strip().splitlines() for run in line.split()[4:]]


def body(path) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return handle.readlines()[1:]


def journal_line(result: TrialResult) -> str:
    """A journal line written long-hand: ``json.dumps`` of the entry, the
    digest from a second ``dumps`` of the record."""
    record = result.to_record(include_timing=True)
    blob = json.dumps(record, sort_keys=True).encode("utf-8")
    return json.dumps({"type": "trial", "index": result.index, "record": record,
                       "digest": hashlib.sha256(blob).hexdigest()[:16]},
                      sort_keys=True) + "\n"


def stream_line(result: TrialResult, include_timing: bool) -> str:
    return json.dumps({"point": result.point_dict(),
                       "record": result.to_record(include_timing)},
                      sort_keys=True) + "\n"


class Watch:
    """Progress hook: the results reported and the chunks in flight."""

    def __init__(self) -> None:
        self.results: list[TrialResult] = []
        self.indices: list[int] = []
        self.in_flight: list[int] = []

    def __call__(self, done, total, result) -> None:
        self.results.append(result)
        self.indices.append(result.index)
        assert done == len(self.results)

    def chunk_update(self, dispatched, completed) -> None:
        self.in_flight.append(dispatched - completed)


@contextlib.contextmanager
def patched(cls, name: str, wrap):
    """``cls.name`` replaced by ``wrap(real)`` for the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, name, wrap(getattr(cls, name)))
        yield


class Matrix:
    """One cell's runs, and what each must reproduce."""

    def __init__(self, cell: Cell, request, tmp_path, references) -> None:
        self.cell, self.request, self.tmp = cell, request, tmp_path
        self.plan = PLANS[cell.plan]
        self.indices = [spec.index for spec in self.plan.specs]
        self.expected = references[cell.plan]
        self.warm = None
        if cell.disruption in ("hang", "lethal"):
            # Patched before any pool of this cell forks.
            request.getfixturevalue(
                "poisoned_trial" if cell.disruption == "hang" else "lethal_trial")
            self.expected = reference_of(self.plan, [
                _quarantined_result(self.plan.specs[r.index], 0.0)
                if r.index == HANG_INDEX else r for r in self.expected.results
            ], str(tmp_path))
        guard = {"watchdog": WATCHDOG, "retries": 1} if cell.disruption == "hang" else {}
        if cell.disruption in ("kill", "hang", "lethal") and cell.backend != "serial":
            request.getfixturevalue("no_backoff")
            self.executor = ParallelExecutor(jobs=2, chunk=CHUNK[cell.backend], **guard)
            request.addfinalizer(self.executor.close)
        elif cell.disruption == "hang":
            self.executor = SerialExecutor(**guard)
        else:
            self.executor = self.backend(cell.backend)
            self.warm = getattr(self.executor, "_pool", None)

    def backend(self, name: str):
        if name == "serial":
            return SerialExecutor()
        warm = self.request.getfixturevalue("warm_pool")
        warm.chunk = CHUNK[name]
        return warm

    def run(self, progress, tag: str, out: str, executor=None, **kwargs):
        """One run: telemetry (if observed) to ``tag``'s file, the stream
        (if any) to ``out``'s."""
        if self.cell.telemetry:
            kwargs["telemetry"] = str(self.tmp / f"{tag}{TELEMETRY_SUFFIX}")
        kwargs.update(executor=executor or self.executor, progress=progress)
        if self.cell.output == "store":
            return run_plan(self.plan, **kwargs)
        return stream_plan(self.plan, str(self.tmp / f"{out}.jsonl"),
                           include_timing=self.cell.output == "timed", **kwargs)

    def check(self, value, out: str, watch: Watch, tag: str, ckpt, journal=None,
              preloaded: int = 0):
        """What a finished run shows: the expected document and stream;
        progress for exactly the trials it ran, in plan order; every journal
        and stream line in its long-hand encoding; and a ledger entry
        (manifest naming ``ckpt``) that counts exactly those trials."""
        if self.warm is not None:
            assert self.executor._pool is self.warm  # no re-fork
        path = str(self.tmp / f"{out}.jsonl")
        if self.cell.output == "store":
            assert value.to_json() == self.expected.json
        else:
            assert value == len(self.plan)
            document = json.dumps(load_document(path), indent=2, sort_keys=True) + "\n"
            assert document == self.expected.json
            assert ResultStore.load(path).to_json() == self.expected.json
            if self.cell.output == "stream":
                with open(path, "rb") as handle:
                    assert handle.read() == self.expected.stream
        assert watch.indices == self.indices[preloaded:]
        written = {}
        if journal or ckpt:  # what was resumed, else what was journalled
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                written = load_checkpoint(journal or ckpt, plan=self.plan).results_for(self.plan)
        written.update(zip(watch.indices, watch.results))
        if journal is not None:
            assert body(journal) == [journal_line(written[i]) for i in self.indices]
        if self.cell.output != "store":
            timed = self.cell.output == "timed"
            assert body(path) == [stream_line(written[i], timed) for i in self.indices]
        return self.check_ledger(tag, watch.results, ckpt, preloaded)

    def check_ledger(self, tag: str, fresh, ckpt, preloaded: int = 0):
        """The run's telemetry: an interrupted run (``fresh`` None) has no
        summary; a finished one counts exactly its fresh trials."""
        if not self.cell.telemetry:
            return set(), {}
        manifest, spans, summary = load_telemetry(str(self.tmp / f"{tag}{TELEMETRY_SUFFIX}"))
        assert manifest.checkpoint == ckpt
        if fresh is None:
            assert summary is None and run_status(manifest, summary) == "interrupted"
            return set(), {}
        counts = dict.fromkeys(OUTCOMES, 0)
        for result in fresh:
            counts[trial_outcome(result.ok, result.terminated, result.status)] += 1
        assert (summary["trials"], summary["counts"]) == (len(fresh), counts)
        assert summary.get("resumed_trials") == (preloaded or None)
        trials = [s for s in spans if s.name in ("trial", "calibration")]
        assert sorted(s.attrs["index"] for s in trials) == sorted(r.index for r in fresh)
        if self.cell.disruption == "hang" and fresh:
            assert [s.attrs.get("status") for s in trials
                    if s.attrs["index"] == HANG_INDEX] == ["quarantined"]
        return {span.name for span in spans}, summary.get("recovery", {})

    def single_run(self) -> None:
        """One run start to finish, then (with a journal) a rerun that
        executes nothing."""
        cell, executor, watch = self.cell, self.executor, Watch()
        chaos = KillWorkerAtChunk(executor, 1, progress=watch)
        ckpt = str(self.tmp / "run.ckpt") if cell.journal else None
        calls: list[tuple[int, bool]] = []

        def counted(real):
            def to_record(result, include_timing=False):
                calls.append((result.index, include_timing))
                return real(result, include_timing)
            return to_record

        with patched(TrialResult, "to_record", counted):
            value = self.run(chaos if cell.disruption == "kill" else watch,
                             "run", "run", checkpoint=ckpt)
        names, recovery = self.check(value, "run", watch, "run", ckpt, ckpt)
        # One record per trial, shared by its journal and stream lines.
        assert calls == ([(i, True) for i in self.indices]
                         if cell.journal or cell.output != "store" else [])
        if cell.disruption in ("hang", "lethal"):
            assert [r.index for r in watch.results if r.status] == [HANG_INDEX]
            assert watch.results[HANG_INDEX].wall_time == (
                WATCHDOG * 2 if cell.disruption == "hang" else 0.0)
        if cell.disruption in ("kill", "lethal"):
            assert executor.respawns >= (1 if cell.disruption == "kill"
                                         else quarantine_threshold(executor.retries))
            assert chaos.fired or cell.disruption == "lethal"
            if cell.telemetry:
                assert {"worker_respawned", "chunk_redispatched"} <= names
                assert recovery["engine.recovery.trials_redispatched"] >= 1
                assert (recovery["engine.recovery.worker_respawns"],
                        recovery["engine.recovery.poison_quarantined"]) == (
                    executor.respawns, int(cell.disruption == "lethal"))
        if self.warm is not None:
            chunks = executor.chunks_completed
            assert executor.chunks_dispatched == chunks >= 1
            if executor.chunk is not None:
                assert chunks == -(-len(self.plan) // executor.chunk)
                assert max(watch.in_flight) == min(chunks, 2 * CHUNKS_PER_WORKER)
        if ckpt is not None:  # a finished journal resumes without executing
            rerun = Watch()
            self.check(self.run(rerun, "rerun", "run", checkpoint=ckpt),
                       "run", rerun, "rerun", ckpt, ckpt, preloaded=len(self.plan))

    def points(self) -> list[int]:
        n, cell = len(self.plan), self.cell
        last = n if cell.disruption == "enospc" else n - 1
        if cell.disruption == "kill":
            return [n // 2 + 1]
        if cell.backend != "serial":
            return sorted({1, n // 2, last})
        return list(range(1, last + 1)) if cell.finish == "-" else [n // 2]

    def interrupt_and_resume(self, point: int) -> None:
        """Disrupt a journalled run at ``point``, then finish it."""
        cell, out, watch = self.cell, f"p{point}", Watch()
        ckpt = str(self.tmp / f"{out}.ckpt")
        journalled = reported = point
        if cell.disruption == "enospc":
            reported -= 1
            journalled -= cell.output == "store"  # the journal append failed
            sink = StreamingResultStore if cell.output != "store" else CheckpointWriter

            def full_disk(real):
                chaos = ENOSPCAfter(lambda pair: real(*pair), calls=point)
                return lambda self, result: chaos((self, result))

            with patched(sink, "append", full_disk), \
                    pytest.raises(OSError, match="ENOSPC"):
                self.run(watch, f"{out}-cut", out, checkpoint=ckpt)
        else:
            chaos = SigintAfter(point, progress=watch)
            if cell.disruption == "kill":
                chaos = KillWorkerAtChunk(self.executor, 1, progress=chaos)
            with pytest.raises(ChaosInterrupt):
                self.run(chaos, f"{out}-cut", out, checkpoint=ckpt)
            if cell.disruption == "kill":
                assert chaos.fired and self.executor.respawns >= 1
        assert watch.indices == self.indices[:reported]
        # The journal comes first and follows plan order on every backend.
        assert list(load_checkpoint(ckpt).records) == self.indices[:journalled]
        self.check_ledger(f"{out}-cut", None, ckpt)
        warns = contextlib.nullcontext()
        if cell.disruption == "torn":
            drop = (1, 7, 40)[point % 3]
            tear_file_tail(ckpt, drop_bytes=drop)
            if cell.output != "store":
                tear_file_tail(str(self.tmp / f"{out}.jsonl"), drop_bytes=drop)
            journalled -= 1
            warns = pytest.warns(RuntimeWarning, match="torn final checkpoint")
        before, finish, journal = body(ckpt), Watch(), ckpt
        with warns:
            kwargs = {"checkpoint": ckpt}
            if cell.finish in ("from", "state"):
                journal = None
                kwargs = {"resume_from": ckpt if cell.finish == "from"
                          else load_checkpoint(ckpt)}
            elif cell.finish == "into":
                journal = kwargs["checkpoint"] = str(self.tmp / f"{out}-into.ckpt")
                kwargs["resume_from"] = ckpt
            elif cell.finish != "-":
                kwargs["executor"] = self.backend(cell.finish)
            value = self.run(finish, f"{out}-end", out, **kwargs)
        self.check(value, out, finish, f"{out}-end", preloaded=journalled, journal=journal,
                   ckpt=journal or (ckpt if cell.finish == "from" else None))
        # Resumed trials are copied into a journal byte for byte; without
        # one (resume_from= alone) the old journal is only read.
        assert body(journal or ckpt)[:journalled] == before[:journalled]
        if journal is None:
            assert body(ckpt) == before
        if cell.disruption == "torn" and cell.output != "store" and point == 1:
            # A torn final line of a finished stream drops just that trial.
            tear_file_tail(str(self.tmp / f"{out}.jsonl"), drop_bytes=5)
            with pytest.warns(RuntimeWarning, match="torn final stream line"):
                document = load_document(str(self.tmp / f"{out}.jsonl"))
            assert sum(len(p["trials"]) for p in document["points"]) == len(self.plan) - 1


def check_cell(cell, request, tmp_path, references) -> None:
    matrix = Matrix(cell, request, tmp_path, references)
    if cell.disruption in RESUMABLE or cell.disruption == "kill" and cell.journal:
        for point in matrix.points():
            matrix.interrupt_and_resume(point)
    else:
        matrix.single_run()


def params(cells):
    return [pytest.param(cell, id=str(cell), marks=[fork_only] if (
        cell.disruption == "lethal" or cell.disruption == "hang" and cell.backend != "serial"
    ) else []) for cell in cells]


def pairs(cell: Cell) -> set:
    values = dataclasses.asdict(cell)
    return {((a, values[a]), (b, values[b])) for a, b in itertools.combinations(AXES, 2)}


def test_cells_cover_every_possible_pair_and_nothing_else():
    possible = {((a, va), (b, vb)) for a, b in itertools.combinations(AXES, 2)
                for va in AXES[a] for vb in AXES[b] if not impossible({a: va, b: vb})}
    assert set().union(*map(pairs, CELLS)) == possible
    assert len(set(CELLS)) == len(CELLS)
    for cell in CELLS:
        if cell.finish != "-":
            assert cell.finish in MODES + AXES["backend"], cell
            assert cell.disruption in RESUMABLE + ("kill",), cell


def test_query_plan_has_mixed_verdicts(reference):
    assert {result.ok for result in reference.results} == {True, False}


@pytest.mark.parametrize("cell", params(CELLS))
def test_cell(cell, request, tmp_path, references):
    check_cell(cell, request, tmp_path, references)


def test_one_timed_record_nothing_kept_on_the_result(reference):
    """A trial is serialised once: its journal and stream lines share one
    record, and the result itself keeps nothing."""
    result = reference.results[0]
    before = dict(vars(result))
    first = timed_record(result)
    assert timed_record(result) is first
    assert vars(result) == before
    # One entry, keyed by identity: an equal twin gets its own record,
    # and asking about the first again rebuilds it.
    twin = dataclasses.replace(result)
    assert timed_record(twin) == first and timed_record(twin) is not first
    assert timed_record(result) is not first


def test_journal_and_stream_appends_on_their_own(reference, tmp_path):
    first, second = reference.results[:2]
    covered = dataclasses.replace(first, index=100, coverage={
        "reached": [1, 2], "fraction": 0.25, "ok": False})
    ckpt, out = str(tmp_path / "mix.ckpt"), str(tmp_path / "mix.jsonl")
    # Interleaved appends never see a stale record.
    with CheckpointWriter(ckpt, PLAN) as writer, \
            StreamingResultStore(out, include_timing=True) as store:
        store.append(first)
        writer.append(second)
        store.append(second)
        writer.append(first)
        writer.append(covered)
        store.append(covered)
    assert body(ckpt) == [journal_line(r) for r in (second, first, covered)]
    assert body(out) == [stream_line(r, True) for r in (first, second, covered)]
