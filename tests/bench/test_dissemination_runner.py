"""Tests for the dissemination runner (run_dissemination)."""

from __future__ import annotations

import pytest

from repro.api import (
    DisseminationConfig,
    run_dissemination,
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
