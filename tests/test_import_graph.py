"""The import graph follows use, pinned by module counts, not clocks.

``repro.api`` is the one re-export surface; no package ``__init__`` imports
anything, ``networkx`` loads inside the three generators that call it, and
the CLI imports what the invoked command runs.  Each case below runs in a
fresh interpreter (``sys.modules`` of the test process is already full)
and inspects what one statement loaded.  Counts repeat exactly, so the
ceilings are tight: at the parent of this file ``import
repro.sim.scheduler`` loaded 85 ``repro.*`` modules plus ``networkx``.

Reproduce any row by hand::

    PYTHONPATH=src python -c "import sys, repro.sim.scheduler; \
        print(len([m for m in sys.modules if m.startswith('repro')]))"
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SIZE_LEDGER = str(ROOT / "benchmarks" / "BENCH_size.json")


def loaded_after(code: str) -> tuple[set[str], list[str]]:
    """Run ``code`` in a fresh interpreter; return ``sys.modules``' names
    and whatever the code stored in ``report`` (a list of strings)."""
    script = (
        "import json, sys\n"
        "report = []\n"
        f"{code}\n"
        "sys.stdout = sys.__stdout__\n"
        "print(json.dumps([sorted(sys.modules), report]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=str(ROOT),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    modules, report = json.loads(done.stdout.splitlines()[-1])
    return set(modules), report


def repro_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def repro_imports(path: Path) -> dict[str, str]:
    """``name -> module`` for every ``from repro... import name`` in a file."""
    return {
        alias.asname or alias.name: node.module
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "repro"
        for alias in node.names
    }


class TestOneFacade:
    PACKAGE = ROOT / "src" / "repro"

    def test_no_package_init_re_exports_anything(self):
        # experiments/__init__.py is the one exception: the pipeline-owned
        # benchmark harness (perf/) reads through it and cannot be edited.
        offenders = {
            str(init.relative_to(self.PACKAGE)): sorted(repro_imports(init))
            for init in self.PACKAGE.rglob("__init__.py")
            if init.parent.name != "experiments" and repro_imports(init)
        }
        assert offenders == {}

    def test_the_facade_imports_every_name_from_its_defining_module(self):
        import repro.api as api

        imported = repro_imports(self.PACKAGE / "api.py")
        assert set(imported) == set(api.__all__)
        for name, module_name in imported.items():
            module = importlib.import_module(module_name)
            assert getattr(module, name) is getattr(api, name), name
            if name == "generators":  # a submodule, not a re-export
                continue
            # The module holds the definition, not a copy imported from
            # yet another module.
            assert name not in repro_imports(Path(module.__file__)), (
                f"{name}: {module_name} re-exports it"
            )


class TestLibraryImports:
    def test_the_simulator_core_loads_only_the_simulator_core(self):
        modules, _ = loaded_after("import repro.sim.scheduler")
        ours = repro_modules(modules)
        assert len(ours) <= 20, sorted(ours)
        assert not {"networkx", "yaml"} & modules
        assert "repro.obs.export" not in ours
        assert not [m for m in ours
                    if m.startswith(("repro.engine", "repro.analysis"))]

    def test_the_executor_spec_is_a_leaf(self):
        ours = repro_modules(loaded_after("import repro.engine.spec")[0])
        assert len(ours) <= 8, sorted(ours)
        assert "repro.engine.executor" not in ours

    def test_the_root_package_exports_nothing_but_its_version(self):
        modules, report = loaded_after(
            "import repro\n"
            "report.append(str(sorted(n for n in vars(repro)"
            " if not n.startswith('__'))))\n"
            "before = 'importlib.metadata' in sys.modules\n"
            "report.append(str(before))\n"
            "report.append(repro.__version__)\n"
        )
        names, metadata_loaded_on_import, version = report
        assert names == "[]"
        assert metadata_loaded_on_import == "False"
        assert version[0].isdigit()
        assert repro_modules(modules) == {"repro", "repro.version"}

    def test_a_serial_experiment_loads_no_process_pool(self, tmp_path):
        # The pool machinery (``multiprocessing``, ``pickle``, ``socket``)
        # and the manifest's host and run-id modules load where a pool
        # starts and a manifest is written, not in every trial process.
        path = tmp_path / "one.yaml"
        path.write_text(
            "schema: repro-experiment\nversion: 1\nname: one-trial\n"
            "kind: query\nbase: {n: 6}\ntrials: 1\nroot_seed: 7\n",
            encoding="utf-8",
        )
        modules, report = loaded_after(
            "from repro.experiments.loader import load_experiment\n"
            "from repro.experiments.runner import run_experiment\n"
            f"run = run_experiment(load_experiment({str(path)!r}),"
            " executor='serial')\n"
            "report.append(str(len(run.store)))\n"
        )
        assert report == ["1"]
        assert "repro.engine.executor" in modules
        assert not {"multiprocessing", "concurrent.futures.process", "socket",
                    "uuid"} & modules

    def test_writing_an_experiment_document_loads_no_metadata_reader(
        self, tmp_path
    ):
        # The document's ``repro_version`` stamp answers from the source
        # tree: no ``importlib.metadata``, whose ``email`` package imports
        # ``socket``.
        path = tmp_path / "one.yaml"
        output = tmp_path / "one.json"
        path.write_text(
            "schema: repro-experiment\nversion: 1\nname: one-trial\n"
            "kind: query\nbase: {n: 6}\ntrials: 1\nroot_seed: 7\n",
            encoding="utf-8",
        )
        modules, report = loaded_after(
            "import io\n"
            "from repro.cli import main\n"
            "sys.stdout = io.StringIO()\n"
            f"report.append(str(main(['experiment', 'run', {str(path)!r},"
            f" '--output', {str(output)!r}])))\n"
        )
        assert report == ["0"]
        assert '"repro_version"' in output.read_text(encoding="utf-8")
        assert not {"importlib.metadata", "email", "socket"} & modules

    def test_the_facade_is_eager_and_complete(self):
        modules, report = loaded_after(
            "import repro.api\nreport.append(str(len(repro.api.__all__)))"
        )
        assert report == ["207"]
        # Whoever asks for everything pays for everything — except the
        # optional graph library, which still waits for a generator call.
        assert len(repro_modules(modules)) > 80
        assert "networkx" not in modules


class TestCliImports:
    def test_importing_the_cli_imports_no_command(self):
        modules, _ = loaded_after("import repro.cli")
        assert repro_modules(modules) == {"repro", "repro.cli", "repro.version"}
        assert not {"networkx", "yaml", "concurrent.futures.process",
                    "importlib.metadata"} & modules

    @pytest.mark.parametrize("argv", [
        ["matrix"],
        ["bench", "diff", SIZE_LEDGER, SIZE_LEDGER],
        ["describe", "--arrival", "static", "--knowledge", "local"],
        ["faults"],
        ["executor", "--show", "guarded"],
    ], ids=lambda argv: argv[0])
    def test_a_light_command_loads_neither_the_engine_nor_networkx(self, argv):
        modules = self.main_in_child(argv)
        assert "repro.engine.executor" not in modules
        assert not {"networkx", "yaml", "concurrent.futures.process"} & modules

    @pytest.mark.parametrize("argv", [
        ["query", "--n", "6", "--trials", "1"],
        ["sweep", "--n", "6", "--trials", "1", "--rates", "0"],
    ], ids=lambda argv: argv[0])
    def test_an_engine_command_runs_its_experiment_without_yaml(self, argv):
        # The commands lower to an ExperimentDef; only reading or writing
        # an experiment file needs the YAML parser.
        modules = self.main_in_child(argv)
        assert "repro.experiments.runner" in modules
        assert "yaml" not in modules

    @pytest.mark.parametrize("command", [["runs", "list", "--dir"],
                                         ["top", "--once"]],
                             ids=lambda command: command[0])
    def test_the_run_ledger_reads_without_the_engine(self, tmp_path, command):
        from repro.engine.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(directory=str(tmp_path))
        recorder.open_run({"name": "ledger", "n_trials": 0})
        recorder.close()
        target = str(tmp_path) if command[0] == "runs" else recorder.path
        modules = self.main_in_child(command + [target])
        assert not [m for m in modules if m.startswith("repro.engine")]
        assert "networkx" not in modules

    @staticmethod
    def main_in_child(argv: list[str]) -> set[str]:
        modules, report = loaded_after(
            "import io\n"
            "from repro.cli import main\n"
            "sys.stdout = io.StringIO()\n"
            f"report.append(str(main({argv!r})))\n"
        )
        assert report == ["0"]
        return modules

    def test_help_lists_every_command_without_configuring_one(self):
        modules, report = loaded_after(
            "import io\n"
            "from repro.cli import _COMMANDS, main\n"
            "sys.stdout = io.StringIO()\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit as stop:\n"
            "    report.append(str(stop.code))\n"
            "text = sys.stdout.getvalue()\n"
            "report.append(str(all(name in text for name in _COMMANDS)))\n"
            "report.append(str(len(_COMMANDS)))\n"
        )
        assert report == ["0", "True", "17"]
        assert repro_modules(modules) == {"repro", "repro.cli", "repro.version"}


class TestNetworkxIsDemandLoaded:
    #: sha256 (first 16 hex) of the sorted edge list ``generators.make(
    #: "regular", 8, Simulator(seed=7).rng_for("topology"))`` returned
    #: before the import moved inside the generator: same call, same seed,
    #: same topology.  (A networkx release that changes
    #: ``random_regular_graph`` would move it — and every document run on
    #: a ``regular`` topology with it.)
    REGULAR_8_SEED_7 = "36f0f7471b894aa6"

    TRIAL = (
        "import hashlib\n"
        "from repro.engine.trials import QueryConfig, run_query\n"
        "from repro.sim.scheduler import Simulator\n"
        "from repro.topology import generators\n"
        "outcome = run_query(QueryConfig(n=8, topology={family!r}, seed=7))\n"
        "report.append(str(outcome.ok))\n"
        "report.append(str('networkx' in sys.modules))\n"
        "topo = generators.make({family!r}, 8,"
        " Simulator(seed=7).rng_for('topology'))\n"
        "edges = sorted(tuple(sorted(edge)) for edge in topo.edges())\n"
        "report.append(hashlib.sha256(repr(edges).encode()).hexdigest()[:16])\n"
    )

    def test_an_er_trial_never_loads_networkx(self):
        modules, report = loaded_after(self.TRIAL.format(family="er"))
        assert report[:2] == ["True", "False"]
        assert "networkx" not in modules

    def test_a_regular_trial_loads_it_and_builds_the_same_graph(self):
        modules, report = loaded_after(self.TRIAL.format(family="regular"))
        assert report == ["True", "True", self.REGULAR_8_SEED_7]
        assert "networkx" in modules
