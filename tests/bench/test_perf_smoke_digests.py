"""The four ``perf`` workloads' documents at smoke size, pinned in process
(``perf/run.py`` forces ``PYTHONHASHSEED=0`` in its children)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

#: sha256 of each workload's document at smoke size, seed 2007.
SMOKE_DIGESTS = {
    "e4-sweep": "664a6ac6aee309731ad55cde4b6561bc5999f04ddd7db3ea6efc252842941338",
    "e22-faults": "ce349cdce7ae17485fa67075b222351cc8cefb4745f375f254ea8cb8b1ade3c7",
    "storm-10k": "6efbb5e6aa6813ed39706c299ae3898ac4ec5d5a0b47e7b6c4a8ff480dfae3a7",
    "engine-pool": "cd4d6a2256076592858b5863df89d3465f67afcfbcced744a11d33f5210aeaee",
}


@pytest.mark.parametrize("name", sorted(SMOKE_DIGESTS))
def test_smoke_document_digest(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[2] / "perf"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing under perf/
    from harness.workloads import Context, make

    workload = make(name)
    workload.prepare(Context(seed=2007, tmp=tmp_path, smoke=True))
    try:
        workload.warm_up()
        sample = workload.run_pass()
    finally:
        workload.close()
    assert (sample.failures, sample.digest) == ([], SMOKE_DIGESTS[name])
