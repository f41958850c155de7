"""Read and write ``repro-experiment`` documents as YAML.

The loader is deliberately thin: YAML parses to plain data, and all
validation and canonicalisation lives in
:meth:`repro.experiments.schema.ExperimentDef.from_dict`.  What this
module owns is the *canonical text form* — :func:`dump_experiment` emits
keys in schema order with defaults omitted, so two equivalent experiments
dump to identical bytes and :func:`experiment_digest` can pin a shipped
YAML file against drift (``tests/experiments/test_golden.py``).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.experiments.schema import ExperimentDef
from repro.sim.errors import ConfigurationError

__all__ = [
    "load_experiment",
    "loads_experiment",
    "dump_experiment",
    "save_experiment",
    "experiment_digest",
    "experiment_plan_digest",
]


def loads_experiment(text: str) -> ExperimentDef:
    """Parse one experiment definition from YAML text."""
    import yaml

    try:
        record = yaml.safe_load(text)
    except yaml.YAMLError as error:
        raise ConfigurationError(f"invalid YAML: {error}") from None
    if record is None:
        raise ConfigurationError("empty experiment document")
    return ExperimentDef.from_dict(record)


def load_experiment(path: str | Path) -> ExperimentDef:
    """Load one experiment definition from a YAML file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(f"cannot read {path}: {error}") from None
    try:
        return loads_experiment(text)
    except ConfigurationError as error:
        raise ConfigurationError(f"{path}: {error}") from None


def dump_experiment(experiment: ExperimentDef) -> str:
    """The canonical YAML text of an experiment.

    Key order is the fixed schema order from
    :meth:`ExperimentDef.to_dict` (``sort_keys=False`` preserves it) and
    defaults are omitted there, so ``loads → dump`` is a *canonicalising*
    projection: any two texts describing the same experiment dump to the
    same bytes, and dumping is idempotent.
    """
    import yaml

    return yaml.safe_dump(
        experiment.to_dict(),
        sort_keys=False,
        default_flow_style=False,
        allow_unicode=True,
        width=79,
    )


def save_experiment(experiment: ExperimentDef, path: str | Path) -> Path:
    """Write the canonical YAML form to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_experiment(experiment), encoding="utf-8")
    return path


def experiment_digest(experiment: ExperimentDef) -> str:
    """A short stable digest of the canonical YAML form.

    Changes whenever anything observable about the *definition* changes
    (name, grid, seeds, specs, expectations); stays fixed across
    formatting-only edits to a source YAML file.
    """
    text = dump_experiment(experiment)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def experiment_plan_digest(experiment: ExperimentDef) -> str:
    """The engine's :attr:`~repro.engine.plan.ExperimentPlan.digest` of the
    lowered plan.

    This is the byte-identity anchor: the YAML experiment and its Python
    ``build_plan`` twin must agree on this digest, because it hashes the
    exact trial specs (grid points, seeds, order) the executor will run.
    """
    return experiment.to_plan().digest
