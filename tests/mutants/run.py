"""Run the committed mutants: each must be killed by the tests it names.

    python tests/mutants/run.py [NAME ...]

Every ``*.diff`` beside this file is a small unified diff against ``src/``
whose header lines (``# key: value``, above the diff) say what it breaks
(``mutant``), which change added it (``from``) and, one per line, a test
id that must fail with it applied (``kills``).  The named tests must first
all pass on the clean tree.  Then, for each mutant, the runner copies
``src/`` to a temporary directory, applies the diff there with ``git
apply`` and runs only that mutant's tests against the copy.

Exits 1 if a patch no longer applies, a mutant survives (one of its named
tests passes) or a named test fails without any mutant; 0 otherwise.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def header(path: Path) -> dict[str, list[str]]:
    """The ``# key: value`` lines above a diff, values grouped by key."""
    fields: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            break
        key, _, value = line[1:].partition(":")
        fields.setdefault(key.strip(), []).append(value.strip())
    return fields


def junit_id(case: ET.Element) -> str:
    """A JUnit test case as the pytest id ``path.py::Class::name``."""
    parts = case.get("classname", "").split(".")
    module = next(i for i in range(len(parts), 0, -1)
                  if (ROOT / Path(*parts[:i])).with_suffix(".py").exists())
    path = "/".join(parts[:module]) + ".py"
    return "::".join([path, *parts[module:], case.get("name", "")])


def passing(src: Path, tests: list[str], scratch: Path) -> set[str]:
    """Those of ``tests`` that pass against the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if not probe.stdout.startswith(str(src)):
        sys.exit(f"repro imports from {probe.stdout or probe.stderr!r}, not {src}")
    report = scratch / "report.xml"
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junit-xml={report}", *tests],
        cwd=ROOT, env=env, capture_output=True,
    )
    return {
        junit_id(case) for case in ET.parse(report).iter("testcase")
        if not any(case.find(tag) is not None for tag in ("failure", "error", "skipped"))
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    mutants = [path for path in sorted(HERE.glob("*.diff"))
               if not args.names or path.stem in args.names]
    kills = {mutant: header(mutant).get("kills", []) for mutant in mutants}
    problems = [f"{mutant.name}: names no test" for mutant, tests in kills.items()
                if not tests]
    with tempfile.TemporaryDirectory() as directory:
        scratch = Path(directory)
        named = sorted({test for tests in kills.values() for test in tests})
        clean = passing(ROOT / "src", named, scratch)
        problems += [f"fails without a mutant: {test}" for test in named
                     if test not in clean]
        for mutant, tests in kills.items():
            copy = scratch / mutant.stem
            shutil.copytree(ROOT / "src", copy / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
            applied = subprocess.run(
                ["git", "apply", str(mutant)], cwd=copy, capture_output=True,
                text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(scratch)),
            )
            if applied.returncode:
                problems.append(f"{mutant.name}: no longer applies: {applied.stderr.strip()}")
                continue
            survivors = passing(copy / "src", tests, scratch) & set(tests)
            print(f"{mutant.stem}: " + (
                "survived " + ", ".join(sorted(survivors)) if survivors
                else f"killed by {len(tests)} test(s)"))
            problems += [f"{mutant.name}: survived {test}" for test in sorted(survivors)]
    for problem in problems:
        print("FAIL", problem)
    print(f"{len(mutants)} mutant(s), {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
