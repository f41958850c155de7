"""StreamingResultStore: the JSONL container format.

``stream_plan`` writes one header line plus one line per trial, and
``load_document`` reassembles the canonical schema-v2 document from it
(the byte-identity of that round trip on every backend is a cell of
``tests/engine/test_conformance.py``).  Unsupported, foreign or corrupt
streams fail with the typed errors, exactly like the canonical loader.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.executor import stream_plan
from repro.engine.results import StreamingResultStore, load_document
from repro.obs.codec import SchemaVersionError
from repro.sim.errors import ConfigurationError
from tests.engine.conftest import PLAN


class TestContainerFormat:
    def test_header_line_carries_envelope(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        stream_plan(PLAN, path)
        with open(path) as handle:
            header = json.loads(handle.readline())
            body = [json.loads(line) for line in handle if line.strip()]
        assert header["schema"] == "repro-engine-results"
        assert header["version"] == 2
        assert header["format"] == "jsonl-stream"
        assert header["plan"]["name"] == PLAN.name
        assert len(body) == len(PLAN.specs)
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

    def test_mid_stream_corruption_still_raises(self, reference, tmp_path):
        path = tmp_path / "stream.jsonl"
        lines = reference.stream.decode("utf-8").splitlines()
        lines[2] = "{ garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            load_document(str(path))

    def test_canonical_json_still_loads(self, reference, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(reference.json)
        document = load_document(str(path))
        assert json.dumps(document, indent=2, sort_keys=True) + "\n" == reference.json
