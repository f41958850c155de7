"""StreamingResultStore: the JSONL container must be indistinguishable
from the canonical document once loaded.

The contract: ``stream_plan`` writes one header line plus one line per
trial; ``load_document`` reassembles the byte-for-byte canonical schema-v2
document from it, under both executor backends, with summaries recomputed
per point.  Unsupported or foreign streams fail up front with the typed
errors, exactly like the canonical loader.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.executor import (
    ParallelExecutor,
    SerialExecutor,
    run_plan,
    stream_plan,
)
from repro.engine.plan import build_plan
from repro.engine.results import (
    ResultStore,
    StreamingResultStore,
    load_document,
)
from repro.obs.codec import SchemaVersionError
from repro.sim.errors import ConfigurationError


@pytest.fixture(scope="module")
def plan():
    return build_plan(
        "stream-test", kind="gossip",
        grid={"n": [8, 12]}, base={"topology": "er", "rounds": 20},
        trials=2, root_seed=2007,
    )


@pytest.fixture(scope="module")
def reference(plan):
    return run_plan(plan, executor=SerialExecutor())


def _canon(document):
    return json.dumps(document, indent=2, sort_keys=True)


class TestRoundTrip:
    def test_serial_stream_reassembles_canonical_document(
        self, plan, reference, tmp_path
    ):
        path = str(tmp_path / "run.jsonl")
        count = stream_plan(plan, path)
        assert count == len(plan.specs)
        assert _canon(load_document(path)) == _canon(reference.document())

    def test_parallel_stream_is_byte_identical_too(
        self, plan, reference, tmp_path
    ):
        path = str(tmp_path / "run-par.jsonl")
        stream_plan(plan, path, executor=ParallelExecutor(2))
        assert _canon(load_document(path)) == _canon(reference.document())

    def test_store_load_rehydrates_results(self, plan, reference, tmp_path):
        path = str(tmp_path / "run.jsonl")
        stream_plan(plan, path)
        store = ResultStore.load(path)
        assert len(store) == len(reference)
        assert [r.index for r in store.results] == [
            r.index for r in reference.results
        ]

    def test_streaming_twice_is_deterministic(self, plan, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        stream_plan(plan, a)
        stream_plan(plan, b)
        assert open(a).read() == open(b).read()


class TestContainerFormat:
    def test_header_line_carries_envelope(self, plan, tmp_path):
        path = str(tmp_path / "run.jsonl")
        stream_plan(plan, path)
        with open(path) as handle:
            header = json.loads(handle.readline())
            body = [json.loads(line) for line in handle if line.strip()]
        assert header["schema"] == "repro-engine-results"
        assert header["version"] == 2
        assert header["format"] == "jsonl-stream"
        assert header["plan"]["name"] == "stream-test"
        assert len(body) == len(plan.specs)
        for entry in body:
            assert set(entry) == {"point", "record"}

    def test_append_opens_lazily_and_counts(self, tmp_path):
        path = str(tmp_path / "manual.jsonl")
        store = StreamingResultStore(path, plan={"name": "manual"})
        assert store.count == 0
        with store:
            pass  # open + close with no trials
        document = load_document(path)
        assert document["points"] == []

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "schema": "repro-engine-results", "version": 99,
            "format": "jsonl-stream", "plan": {},
        }) + "\n")
        with pytest.raises(SchemaVersionError):
            load_document(str(path))

    def test_foreign_stream_rejected(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({
            "schema": "someone-elses", "format": "jsonl-stream",
        }) + "\n")
        with pytest.raises(ConfigurationError):
            load_document(str(path))

    def test_canonical_json_still_loads(self, reference, tmp_path):
        path = str(tmp_path / "plain.json")
        reference.write(path)
        assert _canon(load_document(path)) == _canon(reference.document())
