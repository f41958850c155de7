"""Benchmark harness: preset scenarios and the callable-based sweep.

The trial runners re-exported here live in :mod:`repro.engine.trials`;
new code should import them from :mod:`repro.api`.
"""

from repro.engine.trials import (
    DisseminationConfig,
    DisseminationOutcome,
    GossipConfig,
    GossipOutcome,
    QueryConfig,
    QueryOutcome,
    build_population,
    reachable_now,
    run_dissemination,
    run_gossip,
    run_query,
)
from repro.bench.scenarios import SCENARIOS, make_scenario
from repro.bench.sweep import SweepPoint, sweep, sweep_table

__all__ = [
    "DisseminationConfig",
    "DisseminationOutcome",
    "GossipConfig",
    "GossipOutcome",
    "QueryConfig",
    "QueryOutcome",
    "SCENARIOS",
    "SweepPoint",
    "build_population",
    "make_scenario",
    "reachable_now",
    "run_dissemination",
    "run_gossip",
    "run_query",
    "sweep",
    "sweep_table",
]
