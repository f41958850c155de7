"""Differential: the default trial sink vs ``trace_sink="memory"``.

A trial retains what its checker reads.  The three trial configs default
to the ``"null"`` sink, so a default-config outcome holds every
protocol-milestone event, the membership and contact changes folded
(not as events), and *no* transport event — and everything decided from
the trace (verdict, metrics block, per-kind counts, invariant violations,
the run's presence and edge intervals) equals the full-retention run's.
Counted, never timed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine.trials import (
    DisseminationConfig,
    GossipConfig,
    QueryConfig,
    run_dissemination,
    run_gossip,
    run_query,
)
from repro.obs.sinks import FOLDED_KINDS, TRANSPORT_KINDS
from repro.sim.errors import ConfigurationError

TRIALS = {
    "query": (run_query, QueryConfig(
        n=12, aggregate="COUNT", horizon=80.0, seed=2007)),
    "ft_wave": (run_query, QueryConfig(
        n=10, protocol="ft_wave", notify_leaves=False, aggregate="COUNT",
        horizon=60.0, seed=11)),
    "gossip": (run_gossip, GossipConfig(n=12, rounds=12, seed=2007)),
    "dissemination": (run_dissemination, DisseminationConfig(
        n=12, audit_at=40.0, seed=2007)),
}

STRESS = {
    "plain": {},
    "chaos+full": {"faults": "chaos-mix", "resilience": "full"},
}


def _decided(outcome) -> dict:
    """Everything an outcome states that is decided from the trace
    (``check.violations`` lives in the metrics block's counters)."""
    return {
        "verdict": getattr(outcome, "verdict", None),
        "estimate": getattr(outcome, "estimate", None),
        "messages": outcome.messages,
        "events_executed": outcome.events_executed,
        "metrics": {
            k: v for k, v in outcome.metrics.items() if k != "timings"
        },
        "summary": outcome.trace.summary(),
        "presence": {
            pid: outcome.run.interval(pid) for pid in outcome.run.entities()
        },
        "edges": {
            pair: outcome.run.presence(*pair) for pair in outcome.run.edges()
        },
    }


@pytest.mark.parametrize("check", [False, True], ids=["unchecked", "checked"])
@pytest.mark.parametrize("stress", sorted(STRESS))
@pytest.mark.parametrize("trial", sorted(TRIALS))
def test_default_sink_retains_what_the_checker_reads(trial, stress, check):
    run, config = TRIALS[trial]
    config = replace(config, check_invariants=check, **STRESS[stress])
    assert config.trace_sink == "null"

    lean = run(config)
    full = run(replace(config, trace_sink="memory"))

    dropped = TRANSPORT_KINDS | FOLDED_KINDS
    transport = sum(lean.trace.count(kind) for kind in TRANSPORT_KINDS)
    folded = sum(lean.trace.count(kind) for kind in FOLDED_KINDS)
    assert transport > 0 and folded > 0
    assert lean.trace.retained == len(lean.trace) - transport - folded
    assert not any(event.kind in dropped for event in lean.trace)
    assert full.trace.retained == len(full.trace) == len(lean.trace)

    assert _decided(lean) == _decided(full)
    # The retained events are the full run's, minus the transport and
    # folded kinds.
    assert [(e.time, e.kind, e.data) for e in lean.trace] == [
        (e.time, e.kind, e.data) for e in full.trace if e.kind not in dropped
    ]

    for kind in ("send", "join"):
        with pytest.raises(ConfigurationError, match=f"'{kind}'"):
            lean.trace.events(kind)
    assert len(full.trace.events("send")) == full.messages
