"""The version stamp: a source checkout answers from the tree, an
installed package from its metadata, and the two cannot drift."""

from __future__ import annotations

import re
from pathlib import Path

import repro.version as version_module
from repro.version import FALLBACK_VERSION, package_version

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_the_fallback_is_the_checkout_version():
    project = PYPROJECT.read_text(encoding="utf-8").split("[project]", 1)[1]
    pinned = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert pinned is not None and pinned.group(1) == FALLBACK_VERSION


def test_a_source_checkout_stamps_the_fallback():
    assert version_module._in_source_checkout()
    assert package_version() == FALLBACK_VERSION


def test_an_installed_package_reads_its_metadata(monkeypatch):
    import importlib.metadata as metadata

    monkeypatch.setattr(version_module, "_in_source_checkout", lambda: False)
    monkeypatch.setattr(metadata, "version", lambda name: f"{name}-9.9")
    assert package_version() == "repro-9.9"

    def absent(name):
        raise metadata.PackageNotFoundError(name)

    monkeypatch.setattr(metadata, "version", absent)
    assert package_version() == FALLBACK_VERSION
