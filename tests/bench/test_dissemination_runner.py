"""Tests for the dissemination runner (run_dissemination)."""

from __future__ import annotations

import pytest

from repro.api import (
    DisseminationConfig,
    build_plan,
    run_dissemination,
    run_plan,
)
from repro.churn.models import ReplacementChurn
from repro.sim.errors import ConfigurationError
from repro.topology.generators import ring


class TestStatic:
    @pytest.mark.parametrize("protocol", ["flood", "anti_entropy"])
    def test_full_coverage(self, protocol):
        outcome = run_dissemination(DisseminationConfig(
            n=12, protocol=protocol, seed=4, audit_at=60.0,
        ))
        assert outcome.ok
        assert outcome.coverage == 1.0
        assert outcome.population_coverage == 1.0
        assert outcome.messages > 0

    def test_prebuilt_topology(self):
        outcome = run_dissemination(DisseminationConfig(
            n=8, topology=ring(8), protocol="flood", seed=2, audit_at=60.0,
        ))
        assert outcome.ok

    def test_flood_cheaper(self):
        flood = run_dissemination(DisseminationConfig(
            n=12, protocol="flood", seed=4, audit_at=60.0,
        ))
        repair = run_dissemination(DisseminationConfig(
            n=12, protocol="anti_entropy", seed=4, audit_at=60.0,
        ))
        assert flood.messages < repair.messages

    def test_record_fields(self):
        outcome = run_dissemination(DisseminationConfig(
            n=6, protocol="flood", seed=1, audit_at=50.0, value="cfg",
        ))
        assert outcome.record.value == "cfg"
        assert outcome.record.origin == outcome.origin
        assert outcome.record.issue_time == pytest.approx(10.0)


class TestChurn:
    def test_anti_entropy_beats_flood_on_population(self):
        def population_coverage(protocol: str) -> float:
            outcome = run_dissemination(DisseminationConfig(
                n=20, protocol=protocol, seed=7, audit_at=100.0,
                churn=lambda f: ReplacementChurn(f, rate=1.5),
            ))
            return outcome.population_coverage

        assert population_coverage("anti_entropy") > population_coverage("flood")

    def test_origin_gone_before_the_broadcast_is_a_failed_trial(self):
        # As a query whose querier left reports a failed record, a
        # broadcast whose origin left first fails its trial instead of
        # aborting the plan.
        plan = build_plan(
            "d", kind="dissemination", grid={"churn_rate": [8.0]},
            base={"n": 8, "protect_origin": False, "broadcast_at": 30.0},
            trials=4,
        )
        results = run_plan(plan).results
        assert len(results) == 4
        for result in results:
            assert not result.ok and not result.terminated
            assert (result.result, result.truth, result.error) == (0.0, 0.0, 1.0)

    def test_unissued_outcome(self):
        outcome = run_dissemination(DisseminationConfig(
            n=8, protocol="flood", seed=0, broadcast_at=30.0,
            protect_origin=False,
            churn=lambda f: ReplacementChurn(f, rate=8.0),
        ))
        assert outcome.record.bid == -1
        assert outcome.record.origin == outcome.origin
        assert outcome.record.deliveries == ()
        assert not outcome.verdict.issued and not outcome.ok
        assert outcome.coverage == outcome.population_coverage == 0.0

    def test_faults_spare_the_protected_origin(self):
        # ``chaos-mix`` crashes the origin of this trial unless the fault
        # plan is installed with the origin protected.
        outcome = run_dissemination(DisseminationConfig(
            n=12, audit_at=40.0, seed=2007, faults="chaos-mix",
            resilience="full",
        ))
        assert outcome.verdict.issued and outcome.ok


class TestValidation:
    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            run_dissemination(DisseminationConfig(protocol="smoke-signals"))

    def test_audit_before_broadcast(self):
        with pytest.raises(ConfigurationError):
            run_dissemination(DisseminationConfig(
                broadcast_at=50.0, audit_at=20.0,
            ))

    @pytest.mark.parametrize("n", [6, 10], ids=["fewer", "more"])
    def test_prebuilt_topology_wrong_nodes_rejected(self, n):
        # The one population builder checks a prebuilt topology against
        # nodes 0..n-1 for every trial kind.
        with pytest.raises(ConfigurationError, match="0..n-1"):
            run_dissemination(DisseminationConfig(n=n, topology=ring(8)))
