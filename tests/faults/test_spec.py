"""Tests for the declarative fault vocabulary (repro.faults.spec)."""

from __future__ import annotations

import pickle

import pytest

from repro.faults.spec import (
    FAULT_KINDS,
    FAULT_PRESETS,
    MESSAGE_KINDS,
    FaultPlan,
    FaultSpec,
    fault_preset,
    resolve_faults,
)
from repro.sim.errors import ConfigurationError


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec("meteor_strike")

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError, match="start"):
            FaultSpec("crash", start=-1.0)

    @pytest.mark.parametrize("kind", sorted(MESSAGE_KINDS) + ["link_flap"])
    def test_window_kinds_need_positive_duration(self, kind):
        with pytest.raises(ConfigurationError, match="duration"):
            FaultSpec(kind, start=1.0, duration=0.0)

    def test_crash_needs_no_duration(self):
        assert FaultSpec("crash", start=1.0).duration == 0.0

    @pytest.mark.parametrize("probability", [-0.1, 1.5])
    def test_probability_bounds(self, probability):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultSpec("drop_burst", duration=1.0, probability=probability)

    def test_copies_count_period_bounds(self):
        with pytest.raises(ConfigurationError, match="copies"):
            FaultSpec("duplicate", duration=1.0, copies=0)
        with pytest.raises(ConfigurationError, match="count"):
            FaultSpec("crash", count=0)
        with pytest.raises(ConfigurationError, match="period"):
            FaultSpec("link_flap", duration=1.0, period=0.0)

    def test_fraction_open_interval(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ConfigurationError, match="fraction"):
                FaultSpec("partition", duration=5.0, fraction=bad)

    def test_links_normalised_and_self_loops_rejected(self):
        spec = FaultSpec("drop_burst", duration=1.0, links=((5, 2), (1, 3)))
        assert spec.links == ((1, 3), (2, 5))
        with pytest.raises(ConfigurationError, match="self-loop"):
            FaultSpec("drop_burst", duration=1.0, links=((4, 4),))


class TestScheduleAccounting:
    def test_window(self):
        assert FaultSpec("drop_burst", start=2.0, duration=3.0).window() == (2.0, 5.0)

    def test_activations_per_kind(self):
        assert FaultSpec("drop_burst", duration=1.0).activations() == 1
        flap = FaultSpec("link_flap", duration=1.0, count=4, period=2.0)
        assert flap.activations() == 4

    def test_end_time_per_kind(self):
        assert FaultSpec("crash", start=3.0).end_time() == 3.0
        assert FaultSpec(
            "crash_rejoin", start=3.0, rejoin_after=5.0
        ).end_time() == 8.0
        flap = FaultSpec("link_flap", start=1.0, duration=0.5, count=3,
                         period=2.0)
        assert flap.end_time() == 1.0 + 2 * 2.0 + 0.5
        assert FaultSpec("drop_burst", start=2.0, duration=4.0).end_time() == 6.0


class TestFaultPlan:
    def test_specs_canonicalised_regardless_of_order(self):
        a = FaultSpec("crash", start=5.0)
        b = FaultSpec("drop_burst", start=2.0, duration=4.0)
        assert FaultPlan.of(a, b) == FaultPlan.of(b, a)
        assert FaultPlan.of(a, b).specs[0].kind == "drop_burst"

    def test_compose_merges_and_names(self):
        left = FaultPlan.of(FaultSpec("crash", start=5.0), name="left")
        right = FaultPlan.of(
            FaultSpec("drop_burst", start=1.0, duration=2.0), name="right"
        )
        merged = left + right
        assert merged.name == "left+right"
        assert len(merged) == 2
        assert merged.specs[0].kind == "drop_burst"

    def test_truthiness_and_none(self):
        assert not FaultPlan.none()
        assert len(FaultPlan.none()) == 0
        assert FaultPlan.of(FaultSpec("crash"))

    def test_scheduled_count_and_kinds(self):
        plan = FaultPlan.of(
            FaultSpec("link_flap", duration=1.0, count=3, period=2.0),
            FaultSpec("crash", start=4.0),
        )
        assert plan.scheduled_count() == 4
        assert plan.kinds() == ("crash", "link_flap")

    def test_shifted(self):
        plan = FaultPlan.of(FaultSpec("crash", start=2.0), name="x")
        shifted = plan.shifted(3.0)
        assert shifted.specs[0].start == 5.0
        assert shifted.name == "x"

    def test_non_spec_member_rejected(self):
        with pytest.raises(ConfigurationError, match="FaultSpec"):
            FaultPlan(specs=("crash",))  # type: ignore[arg-type]


class TestSerialisation:
    def test_spec_round_trip(self):
        spec = FaultSpec("delay_spike", start=1.5, duration=2.5,
                         probability=0.25, magnitude=4.0,
                         links=((3, 1), (2, 7)))
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_plan_json_round_trip(self):
        plan = fault_preset("chaos-mix")
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault spec field"):
            FaultSpec.from_dict({"kind": "crash", "blast_radius": 3})

    def test_wrong_schema_and_version_rejected(self):
        with pytest.raises(ConfigurationError, match="schema"):
            FaultPlan.from_dict({"schema": "not-a-plan"})
        with pytest.raises(ConfigurationError, match="version"):
            FaultPlan.from_dict({"schema": "repro-fault-plan", "version": 99})

    def test_plans_pickle(self):
        plan = fault_preset("chaos-mix")
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestResolveFaults:
    def test_none_and_empty_resolve_to_none(self):
        assert resolve_faults(None) is None
        assert resolve_faults(FaultPlan.none()) is None

    def test_plan_passes_through(self):
        plan = fault_preset("drop-storm")
        assert resolve_faults(plan) is plan

    def test_preset_name_resolves(self):
        assert resolve_faults("drop-storm") == fault_preset("drop-storm")

    def test_unknown_preset_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="drop-storm"):
            resolve_faults("not-a-preset")

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigurationError, match="FaultPlan"):
            resolve_faults(42)  # type: ignore[arg-type]


class TestPresets:
    def test_every_kind_is_covered_by_some_preset(self):
        covered = {
            kind for plan in FAULT_PRESETS.values() for kind in plan.kinds()
        }
        assert covered == set(FAULT_KINDS)

    def test_presets_are_nonempty_and_round_trip(self):
        for plan in FAULT_PRESETS.values():
            assert plan
            assert FaultPlan.from_json(plan.to_json()) == plan
