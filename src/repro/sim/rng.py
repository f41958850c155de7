"""Seeded randomness for reproducible simulations.

All stochastic components (message delays, churn processes, topology
generators) draw from streams derived from a single root seed, so a
simulation is fully determined by ``(configuration, seed)``.  Independent
components receive independent child streams, which keeps results stable
when one component consumes a different number of variates than before
(e.g. after a protocol change).
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.sim.errors import ConfigurationError

#: Large odd multiplier used to derive well-separated child seeds.
_STREAM_MULTIPLIER = 0x9E3779B97F4A7C15


class _Stream(random.Random):
    """A :class:`random.Random` that keeps no instance dictionary.

    ``Random.seed`` stores ``gauss_next = None`` on the instance, which
    gives every stream its own ``__dict__`` (≈ 330 bytes beside the
    2.5 KB Mersenne Twister state; one stream per entity at scale).  Here
    the class holds that ``None`` and the seed goes straight to the C
    generator: the same state, so the same draws.  ``gauss`` still sets
    the attribute on the instance when it caches its second variate.  The
    constructor takes no argument for ``copy``/``pickle``
    (``Random.__reduce__`` calls the class bare, then restores the state).
    """

    gauss_next = None

    def __init__(self, seed: int | None = None) -> None:
        super(random.Random, self).seed(seed)


class SeedSequence:
    """Derives independent child seeds from a root seed.

    This is a small, dependency-free analogue of
    :class:`numpy.random.SeedSequence`: each named or indexed child gets a
    seed that is a deterministic mix of the root seed and the child key.

    >>> ss = SeedSequence(42)
    >>> ss.child("churn") != ss.child("delays")
    True
    >>> ss.child("churn") == SeedSequence(42).child("churn")
    True
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise ConfigurationError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed & 0xFFFFFFFFFFFFFFFF

    def child(self, key: str | int) -> int:
        """Return a deterministic child seed for ``key``."""
        if isinstance(key, str):
            key_int = int.from_bytes(key.encode("utf-8").ljust(8, b"\0")[:8], "little")
            # Fold in the remaining bytes for long keys so distinct long
            # names do not collide on their 8-byte prefix.
            for i, byte in enumerate(key.encode("utf-8")[8:]):
                key_int ^= byte << (8 * (i % 8))
        else:
            key_int = int(key)
        mixed = (self.seed ^ (key_int * _STREAM_MULTIPLIER)) & 0xFFFFFFFFFFFFFFFF
        # A final avalanche step (splitmix64 finaliser) decorrelates
        # neighbouring keys.
        mixed = (mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        mixed = (mixed ^ (mixed >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        return mixed ^ (mixed >> 31)

    def stream(self, key: str | int) -> random.Random:
        """Return a :class:`random.Random` seeded with the child seed (its
        state and draws are ``random.Random(self.child(key))``'s)."""
        return _Stream(self.child(key))

    def spawn(self, key: str | int) -> "SeedSequence":
        """Return a child :class:`SeedSequence` (for nested components)."""
        return SeedSequence(self.child(key))

    def __repr__(self) -> str:
        return f"SeedSequence({self.seed})"


def iter_seeds(root: int, count: int) -> Iterator[int]:
    """Yield ``count`` independent seeds derived from ``root``.

    Used by the benchmark harness to run repeated trials.
    """
    ss = SeedSequence(root)
    for i in range(count):
        yield ss.child(i)
