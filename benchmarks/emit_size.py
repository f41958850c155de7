"""Emit the size ledger: physical lines under ``src/repro`` and under
``tests``, the width of the ``repro.api`` facade and the number of
committed mutants (``tests/mutants/*.diff``), as a flat BENCH payload that
``repro bench diff`` gates in CI (every metric lower-is-better but
``mutants``; see ROADMAP aim 2).

Run:  python benchmarks/emit_size.py [--output FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"
sys.path.insert(0, str(ROOT / "src"))

import repro.api  # noqa: E402 - needs the path set up above


def loc(path: Path) -> int:
    return len(path.read_bytes().splitlines())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=str(ROOT / "benchmarks/BENCH_size.json"))
    args = parser.parse_args()
    payload = {
        "benchmark": "size",
        "src_loc": sum(loc(path) for path in SRC.rglob("*.py")),
        "test_loc": sum(loc(path) for path in TESTS.rglob("*.py")),
        "executor_loc": loc(SRC / "engine" / "executor.py"),
        "telemetry_loc": loc(SRC / "engine" / "telemetry.py"),
        "cli_loc": loc(SRC / "cli.py"),
        "api_names": len(repro.api.__all__),
        "mutants": len(list((TESTS / "mutants").glob("*.diff"))),
    }
    Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}: {payload}")
