"""Package version lookup, shared by ``repro --version`` and the result
documents' provenance stamp.

In a source checkout (``pyproject.toml`` beside ``src/``) the stamp is
:data:`FALLBACK_VERSION`, the checkout's own ``version``, answered without
importing ``importlib.metadata`` (which loads ``email``, ``socket``,
``csv`` and ``zipfile`` into every process that writes a document).  An
installed package reads its distribution metadata.
"""

from __future__ import annotations

import os

#: The version a source checkout stamps; ``tests/test_version.py`` holds
#: it equal to ``pyproject.toml``'s ``version``.
FALLBACK_VERSION = "1.0.0"


def _in_source_checkout() -> bool:
    """Does this module run from a checkout's ``src/repro/``?"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.basename(src) == "src" and os.path.isfile(
        os.path.join(os.path.dirname(src), "pyproject.toml")
    )


def package_version() -> str:
    """The installed ``repro`` version, or the source-tree fallback."""
    if _in_source_checkout():
        return FALLBACK_VERSION
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        return FALLBACK_VERSION
