"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.protocols.one_time_query import WaveNode
from repro.sim.latency import ConstantDelay
from repro.sim.scheduler import Simulator

# Registered here, before any test module is imported, because a test's
# ``@settings(...)`` inherits from the profile loaded at decoration time.
# ``tier1`` makes the gate deterministic: the same examples on every run
# and every box, no example database.  ``explore`` is the random search
# (its own non-blocking CI job; a test's explicit ``max_examples`` still
# wins): whatever it falsifies is committed as an ``@example``.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.register_profile("explore", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random stream for tests."""
    return random.Random(12345)


@pytest.fixture
def sim() -> Simulator:
    """A simulator with unit message delay (easy to reason about)."""
    return Simulator(seed=0, delay_model=ConstantDelay(1.0))


@pytest.fixture
def complete_sim() -> Simulator:
    """A simulator over the complete communication graph."""
    return Simulator(seed=0, delay_model=ConstantDelay(1.0), complete=True)


def make_wave_node(value: float = 1.0) -> WaveNode:
    """Factory helper used across protocol tests."""
    return WaveNode(value)


def spawn_line(sim: Simulator, n: int, value: float = 1.0) -> list[int]:
    """Spawn a line topology of WaveNodes; returns pids in order."""
    pids: list[int] = []
    for _ in range(n):
        neighbors = [pids[-1]] if pids else []
        proc = sim.spawn(WaveNode(value), neighbors)
        pids.append(proc.pid)
    return pids
