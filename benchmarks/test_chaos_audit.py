"""Chaos audit: every builtin fault preset runs invariant-clean.

Each preset in :data:`repro.faults.FAULT_PRESETS` drives one representative
seconds-scale trial with the streaming invariant checkers enabled.  A
violation means fault injection broke a substrate contract — delivered to a
crashed entity, let a zombie send, bent the clock — rather than merely
stressing the protocol (which is its job).  The audit also pins the
scheduling ledger: the ``faults.injected`` counter must equal the plan's
own ``scheduled_count()``, so no activation is lost or double-fired.

The resilience companions re-run the chaos-mix trials with the recovery
layer installed (``resilience="arq"`` / ``"full"``): the invariants must
stay clean — retransmission is not a licence to deliver to the dead — and
the layer's own accountability ledger must balance (every retransmission
timer that fires ends in exactly one counted outcome, and no message is
acknowledged more often than it was sent).

The E19 companion check re-runs the fault-tolerant wave — silent
departures, no perfect detector — under a total drop burst longer than the
detection timeout: heartbeat silence must unblock the wave, so the query
still terminates (with whatever coverage survived).
"""

from __future__ import annotations

from typing import Any

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.core.aggregates import COUNT
from repro.core.spec import OneTimeQuerySpec
from repro.engine.trials import (
    DisseminationConfig,
    GossipConfig,
    QueryConfig,
    run_dissemination,
    run_gossip,
    run_query,
)
from repro.faults.injector import install_plan
from repro.faults.spec import FAULT_PRESETS, FaultPlan, FaultSpec, fault_preset
from repro.protocols.ft_wave import FaultTolerantWaveNode
from repro.sim.latency import ConstantDelay
from repro.sim.scheduler import Simulator
from repro.topology import generators as gen


def _assert_clean(metrics: dict[str, Any], label: str) -> None:
    counters = metrics.get("counters", {})
    offending = {name: count for name, count in counters.items()
                 if name.startswith("check.violations")}
    assert not offending, f"{label}: invariant violations {offending}"


@pytest.mark.parametrize("preset", sorted(FAULT_PRESETS))
def test_presets_run_invariant_clean(preset):
    outcome = run_query(QueryConfig(
        n=16, topology="er", aggregate="COUNT", horizon=150.0,
        seed=2007, faults=preset, check_invariants=True,
    ))
    _assert_clean(outcome.metrics, preset)
    counters = outcome.metrics["counters"]
    plan = fault_preset(preset)
    assert counters["faults.injected"] == plan.scheduled_count(), (
        f"{preset}: activation ledger does not match the plan"
    )


def test_gossip_runs_clean_under_chaos_mix():
    outcome = run_gossip(GossipConfig(
        n=16, topology="er", mode="avg", rounds=40, seed=2007,
        faults="chaos-mix", check_invariants=True,
    ))
    _assert_clean(outcome.metrics, "gossip/chaos-mix")
    assert outcome.metrics["counters"]["faults.injected"] > 0


def test_dissemination_runs_clean_under_chaos_mix():
    outcome = run_dissemination(DisseminationConfig(
        n=16, topology="er", audit_at=60.0, seed=2007,
        faults="chaos-mix", check_invariants=True,
    ))
    _assert_clean(outcome.metrics, "dissemination/chaos-mix")
    assert outcome.metrics["counters"]["faults.injected"] > 0


def _assert_resilience_ledger(counters: dict[str, Any], label: str) -> None:
    fired = counters.get("resilience.timer_fired", 0)
    accounted = (
        counters.get("resilience.retransmits", 0)
        + counters.get("resilience.abandoned", 0)
        + counters.get("resilience.unreachable", 0)
        + counters.get("resilience.breaker_blocked", 0)
    )
    assert fired == accounted, (
        f"{label}: resilience timer ledger {fired} != {accounted}"
    )
    assert counters.get("resilience.acks_received", 0) <= counters.get(
        "resilience.sends", 0
    ), f"{label}: more acks than sends"


def test_query_runs_clean_with_resilience_under_chaos_mix():
    outcome = run_query(QueryConfig(
        n=16, topology="er", aggregate="COUNT", horizon=150.0,
        seed=2007, faults="chaos-mix", resilience="arq",
        check_invariants=True,
    ))
    _assert_clean(outcome.metrics, "query/chaos-mix+arq")
    counters = outcome.metrics["counters"]
    assert counters["resilience.sends"] > 0
    _assert_resilience_ledger(counters, "query/chaos-mix+arq")


def test_gossip_runs_clean_with_resilience_under_chaos_mix():
    outcome = run_gossip(GossipConfig(
        n=16, topology="er", mode="avg", rounds=40, seed=2007,
        faults="chaos-mix", resilience="arq", check_invariants=True,
    ))
    _assert_clean(outcome.metrics, "gossip/chaos-mix+arq")
    counters = outcome.metrics["counters"]
    assert counters["resilience.sends"] > 0
    _assert_resilience_ledger(counters, "gossip/chaos-mix+arq")


def test_dissemination_runs_clean_with_resilience_under_chaos_mix():
    outcome = run_dissemination(DisseminationConfig(
        n=16, topology="er", audit_at=60.0, seed=2007,
        faults="chaos-mix", resilience="arq", check_invariants=True,
    ))
    _assert_clean(outcome.metrics, "dissemination/chaos-mix+arq")
    counters = outcome.metrics["counters"]
    assert counters["resilience.sends"] > 0
    _assert_resilience_ledger(counters, "dissemination/chaos-mix+arq")


def test_breaker_preset_runs_clean_under_flaky_links():
    outcome = run_query(QueryConfig(
        n=16, topology="er", aggregate="COUNT", horizon=150.0,
        seed=2007, faults="flaky-links", resilience="full",
        protocol="ft_wave", notify_leaves=False, check_invariants=True,
    ))
    _assert_clean(outcome.metrics, "query/flaky-links+full")
    _assert_resilience_ledger(
        outcome.metrics["counters"], "query/flaky-links+full"
    )


def test_e19_ft_wave_terminates_under_drop_burst():
    """Heartbeat silence during a total drop window must unblock the wave."""
    n = 10
    rows = []
    for seed in (2007, 2008, 2009):
        sim = Simulator(seed=seed, delay_model=ConstantDelay(0.5),
                        notify_leaves=False)
        topo = gen.line(n)
        pids = []
        for node in sorted(topo.nodes()):
            neighbors = [p for p in topo.neighbors(node) if p < node]
            pids.append(sim.spawn(
                FaultTolerantWaveNode(1.0, 1.0, 3.0), neighbors
            ).pid)
        install_plan(FaultPlan.of(
            FaultSpec("drop_burst", start=1.0, duration=6.0,
                      probability=1.0),
            name="wave-blackout",
        ), sim)
        querier = sim.network.process(pids[0])
        querier.issue_query(COUNT)
        sim.run(until=1000.0)
        verdict = OneTimeQuerySpec().check(sim.trace)[0]
        assert verdict.terminated, (
            f"seed {seed}: FT wave deadlocked under the drop burst"
        )
        counters = sim.metrics_snapshot()["counters"]
        assert counters["net.dropped.fault"] > 0
        latency = (querier.results[0].latency
                   if querier.results else float("inf"))
        rows.append([seed, verdict.terminated,
                     counters["net.dropped.fault"], latency])
    emit(render_table(
        ["seed", "terminated", "msgs dropped", "latency"],
        rows,
        title=(f"E19 chaos: FT wave (timeout 3) on a line of {n} under a "
               "total drop burst t=[1,7]"),
    ))
