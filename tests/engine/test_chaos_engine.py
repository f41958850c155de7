"""The harness chaos injectors: deterministic and validated.

``SigintAfter``, ``ENOSPCAfter``, ``KillWorkerAtChunk`` and
``tear_file_tail`` break the harness at exact, count-based points; the
conformance matrix (``tests/engine/test_conformance.py``) lands each of
them at every point of a run and resumes to the baseline bytes.
"""

from __future__ import annotations

import errno

import pytest

from repro.engine.recovery.chaos import (
    ChaosInterrupt,
    ENOSPCAfter,
    SigintAfter,
    tear_file_tail,
)
from repro.sim.errors import ConfigurationError


class TestInjectors:
    """The injectors themselves are deterministic and validated."""

    def test_chaos_interrupt_is_a_keyboard_interrupt(self):
        assert issubclass(ChaosInterrupt, KeyboardInterrupt)

    def test_sigint_after_delivers_the_triggering_result_first(self):
        seen: list[int] = []
        chaos = SigintAfter(2, progress=lambda d, t, r: seen.append(r))
        chaos(1, 3, "a")
        with pytest.raises(ChaosInterrupt):
            chaos(2, 3, "b")
        # The inner progress saw both results before the interrupt.
        assert seen == ["a", "b"]
        # Once fired, it never fires again (resume would re-trip it).
        chaos(3, 3, "c")
        assert seen == ["a", "b", "c"]
        with pytest.raises(ConfigurationError):
            SigintAfter(0)

    def test_enospc_fires_before_delegating(self):
        consumed: list[str] = []
        chaos = ENOSPCAfter(consumed.append, calls=2)
        chaos("a")
        with pytest.raises(OSError) as excinfo:
            chaos("b")
        assert excinfo.value.errno == errno.ENOSPC
        # The failed append wrote nothing — exactly like a full disk.
        assert consumed == ["a"]
        with pytest.raises(ConfigurationError):
            ENOSPCAfter(consumed.append, calls=0)

    def test_tear_file_tail_truncates_and_validates(self, tmp_path):
        path = tmp_path / "file.txt"
        path.write_text("hello world\n")
        assert tear_file_tail(str(path), drop_bytes=3) == 9
        assert path.read_bytes() == b"hello wor"
        with pytest.raises(ConfigurationError):
            tear_file_tail(str(path), drop_bytes=0)
        with pytest.raises(ConfigurationError, match="too small"):
            tear_file_tail(str(path), drop_bytes=100)
