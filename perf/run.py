#!/usr/bin/env python3
"""The repo's benchmark: four workloads, measured from outside.

    PYTHONPATH=src python perf/run.py [--seed 2007] [--trace] [--workload NAME]

prints every metric by name with its unit, checks that the outputs are
correct, and writes ``perf/out/results.json`` (plus one
``perf/out/trace-<workload>.jsonl`` per workload with ``--trace``).
``perf/README.md`` documents the workloads, the metrics and their bounds.

Other modes:

    perf/run.py --repeat 2            two sets back to back, then compare
    perf/run.py --compare A.json B.json
    perf/run.py --smoke [--trace]     tiny inputs, every code path
    perf/run.py --pin                 rewrite perf/expected.json (seed 2007)

With ``--workload NAME`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the form the
benchmark driver reads (``BENCHMARK.json``); ``--seconds N`` caps the
measuring time of a run.

This process is the single load generator.  It runs each workload in a
fresh child interpreter (``PYTHONHASHSEED=0``), so one workload's imports,
caches and peak memory never leak into the next one's numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
EXPECTED = PERF / "expected.json"

# The benchmark measures the source tree it sits in.
sys.path.insert(0, str(ROOT / "src"))

#: A child that has not finished by then is killed (the driver allows 180 s).
CHILD_TIMEOUT_S = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=2007,
                        help="replaces every root seed (default: the pinned 2007)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run the traced pass")
    parser.add_argument("--workload", default=None, metavar="NAME",
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seconds", type=float, default=None,
                        help="cap on one run's measuring time (default: the "
                        "full pass counts)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and single passes, every code path")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run N sets (results-1.json …) and compare the "
                        "first two")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files and exit")
    parser.add_argument("--pin", action="store_true",
                        help="write this run's digests to perf/expected.json")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="result file (default perf/out/results.json)")
    parser.add_argument("--child-out", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--child-tmp", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load_expected() -> dict:
    if EXPECTED.exists():
        return json.loads(EXPECTED.read_text(encoding="utf-8"))["digests"]
    return {}


def _child(args: argparse.Namespace) -> int:
    """Child side: measure one workload, write its block as JSON."""
    from harness.runner import measure

    block = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        tmp=Path(args.child_tmp), out_dir=OUT, expected=_load_expected(),
    )
    Path(args.child_out).write_text(json.dumps(block), encoding="utf-8")
    return 0


def _run_child(name: str, args: argparse.Namespace) -> dict:
    """Parent side: run workload ``name`` in a fresh interpreter."""
    tmp = OUT / f"tmp-{os.getpid()}-{name}"
    tmp.mkdir(parents=True)
    block_path = tmp / "block.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--child-out", str(block_path), "--child-tmp", str(tmp),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    # TMPDIR keeps the program's own temp files (the pool's heartbeat
    # directory) inside this run's directory too.
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(tmp))
    child = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S if args.seconds else None)
        if code != 0:
            raise SystemExit(f"{name}: child exited with code {code}")
        return json.loads(block_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    finally:
        # The child leads its own session: take any pool workers with it.
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _print_workload(name: str, block: dict) -> None:
    from harness.metrics import END_TO_END, PER_LAYER

    passes = ", ".join(f"{count} {kind}" for kind, count in block["passes"].items())
    print(f"\n== {name}  (passes: {passes})")
    print(f"   digest {block['digest']}"
          f"{' (pinned)' if block['digest_pinned'] else ''}")
    for metric in END_TO_END:
        entry = block["end_to_end"].get(metric.name)
        if entry is None:
            print(f"   {metric.name:<18} {'n/a':>14}")
            continue
        spread = (f"  [{entry['q1']:.6g}, {entry['q3']:.6g}]"
                  if "q1" in entry else "")
        print(f"   {metric.name:<18} {entry['value']:>14.6g} {metric.unit:<9}"
              f" n={entry['n']}{spread}")
    if "per_layer" in block:
        print("   -- per layer (traced pass)")
        for metric in PER_LAYER:
            entry = block["per_layer"][metric.name]
            note = "  (unmeasured)" if metric.name in block["unmeasured"] else ""
            value = entry["value"]
            shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
            print(f"   {metric.name:<40} {shown} {metric.unit}{note}")
    for failure in block["failures"]:
        print(f"   FAILED {failure}")


def _driver_line(name: str, block: dict, trace: int) -> str:
    """The one-line JSON the benchmark driver reads."""
    from harness.metrics import DRIVER_END_TO_END, DRIVER_PER_LAYER

    end_to_end = block["end_to_end"]
    if trace:
        source = {**end_to_end, **block.get("per_layer", {})}
        metrics = {
            metric.name: {
                "value": source.get(metric.name, {"value": 0})["value"],
                "unit": metric.unit,
            }
            for metric in DRIVER_PER_LAYER
        }
    else:
        metrics = {
            metric.name: {
                "value": end_to_end[metric.name]["value"], "unit": metric.unit,
            }
            for metric in DRIVER_END_TO_END
        }
    return json.dumps({
        "correct": block["failed"] == 0
        and end_to_end["digest_mismatch"]["value"] == 0,
        "attempted": block["attempted"],
        "failed": block["failed"],
        "metrics": metrics,
    })


def _run_set(args: argparse.Namespace, output: Path) -> dict:
    from harness.metrics import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            raise SystemExit(
                f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
            )
    document = {
        "schema": "repro-perf-results", "version": 1,
        "seed": args.seed, "trace": bool(args.trace), "smoke": args.smoke,
        "seconds": args.seconds, "env": _environment(), "workloads": {},
    }
    for name in names:
        block = _run_child(name, args)
        if "end_to_end" not in block:
            for failure in block["failures"]:
                print(f"FAILED {failure}", file=sys.stderr)
            raise SystemExit(f"{name}: no pass completed")
        document["workloads"][name] = block
        _print_workload(name, block)
    output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {output}")
    return document


def _compare(path_a: str, path_b: str) -> int:
    from harness.metrics import compare

    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    lines, disagreements, _ = compare(a, b)
    print(f"A = {path_a}\nB = {path_b}")
    print("\n".join(lines))
    return 1 if disagreements else 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.compare:
        return _compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no src/repro under {ROOT}; the benchmark "
              "measures the source tree it is checked out in", file=sys.stderr)
        return 2
    if args.child_out:
        return _child(args)

    OUT.mkdir(exist_ok=True)
    output = Path(args.output) if args.output else OUT / "results.json"
    documents = []
    for number in range(1, args.repeat + 1):
        target = output
        if args.repeat > 1:
            target = output.with_name(f"{output.stem}-{number}{output.suffix}")
            print(f"\n#### set {number} of {args.repeat}")
        documents.append((target, _run_set(args, target)))

    blocks = documents[-1][1]["workloads"]
    if args.pin:
        if args.seed != 2007 or args.smoke or args.workload:
            raise SystemExit("--pin needs a full run at seed 2007")
        EXPECTED.write_text(json.dumps({
            "seed": args.seed,
            "digests": {name: block["digest"] for name, block in blocks.items()},
        }, indent=2) + "\n", encoding="utf-8")
        print(f"pinned {len(blocks)} digests in {EXPECTED}")
    status = 0
    if args.repeat > 1:
        status = _compare(str(documents[0][0]), str(documents[1][0]))
    failed = sum(block["failed"] for block in blocks.values())
    mismatched = sum(
        block["end_to_end"]["digest_mismatch"]["value"] for block in blocks.values()
    )
    if failed or mismatched:
        print(f"{failed} failed operation(s), {mismatched} digest mismatch(es)",
              file=sys.stderr)
        status = 1
    if args.workload:
        print(_driver_line(args.workload, blocks[args.workload], args.trace))
        # The driver reads failures from the JSON line, not the exit code.
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
