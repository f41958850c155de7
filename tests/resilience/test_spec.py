"""Tests for resilience specifications (repro.resilience.spec)."""

from __future__ import annotations

import random

import pytest

from repro.resilience.spec import (
    RESILIENCE_PRESETS,
    SPEC_SCHEMA,
    SPEC_VERSION,
    ResilienceSpec,
    backoff_schedule,
    resilience_preset,
    resolve_resilience,
    retry_delay,
)
from repro.sim.errors import ConfigurationError


class TestValidation:
    def test_defaults_are_valid(self):
        spec = ResilienceSpec()
        assert spec.enabled
        assert spec.max_retries == 4

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"min_rto": 0.0},
        {"min_rto": 5.0, "base_rto": 3.0},
        {"base_rto": 30.0, "max_rto": 20.0},
        {"backoff": 0.5},
        {"jitter": -0.1},
        {"jitter": 1.5},
        {"detector_beta": 0.0},
        {"breaker_threshold": -1},
        {"breaker_cooldown": 0.0},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResilienceSpec(**kwargs)

    def test_exclude_kinds_normalised_sorted(self):
        spec = ResilienceSpec(exclude_kinds=("ZZZ", "AAA", "MMM"))
        assert spec.exclude_kinds == ("AAA", "MMM", "ZZZ")

    def test_specs_are_frozen_and_hashable(self):
        spec = ResilienceSpec()
        with pytest.raises(AttributeError):
            spec.max_retries = 7
        assert hash(spec) == hash(ResilienceSpec())


class TestSerialisation:
    def test_dict_round_trip(self):
        spec = ResilienceSpec(
            name="custom", max_retries=2, jitter=0.0,
            breaker_threshold=3, exclude_kinds=("X", "Y"),
        )
        assert ResilienceSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = ResilienceSpec(adaptive_detector=True, detector_beta=2.5)
        assert ResilienceSpec.from_json(spec.to_json()) == spec

    def test_dict_embeds_schema_and_version(self):
        record = ResilienceSpec().to_dict()
        assert record["schema"] == SPEC_SCHEMA
        assert record["version"] == SPEC_VERSION

    def test_canonical_json_shape(self):
        text = ResilienceSpec().to_json()
        assert text.endswith("\n")
        assert text.index('"backoff"') < text.index('"jitter"')

    def test_wrong_schema_rejected(self):
        record = ResilienceSpec().to_dict()
        record["schema"] = "something-else"
        with pytest.raises(ConfigurationError):
            ResilienceSpec.from_dict(record)

    def test_wrong_version_rejected(self):
        record = ResilienceSpec().to_dict()
        record["version"] = SPEC_VERSION + 1
        with pytest.raises(ConfigurationError):
            ResilienceSpec.from_dict(record)

    def test_unknown_field_rejected(self):
        record = ResilienceSpec().to_dict()
        record["max_reties"] = 3  # typo'd field must not pass silently
        with pytest.raises(ConfigurationError, match="max_reties"):
            ResilienceSpec.from_dict(record)


class TestResolve:
    def test_none_resolves_to_none(self):
        assert resolve_resilience(None) is None

    def test_disabled_resolves_to_none(self):
        assert resolve_resilience(ResilienceSpec.disabled()) is None

    def test_spec_passes_through(self):
        spec = ResilienceSpec(max_retries=1)
        assert resolve_resilience(spec) is spec

    def test_preset_name_resolves(self):
        assert resolve_resilience("arq") == RESILIENCE_PRESETS["arq"]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_resilience("no-such-preset")

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_resilience(42)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(RESILIENCE_PRESETS))
    def test_presets_enabled_and_labelled(self, name):
        spec = resilience_preset(name)
        assert spec.enabled
        assert spec.name == name

    def test_full_preset_turns_everything_on(self):
        spec = resilience_preset("full")
        assert spec.breaker_threshold > 0
        assert spec.adaptive_detector and spec.adaptive_rto

    def test_unknown_name_lists_the_presets(self):
        with pytest.raises(ConfigurationError, match="arq"):
            resilience_preset("bogus")

    @pytest.mark.parametrize("name", sorted(RESILIENCE_PRESETS))
    def test_presets_round_trip_json(self, name):
        spec = RESILIENCE_PRESETS[name]
        assert ResilienceSpec.from_json(spec.to_json()) == spec


class TestRetryDelay:
    def test_exponential_backoff_without_jitter(self):
        spec = ResilienceSpec(jitter=0.0, backoff=2.0, base_rto=2.0,
                              min_rto=0.5, max_rto=100.0)
        rng = random.Random(0)
        delays = [retry_delay(spec, rng, a, spec.base_rto) for a in (1, 2, 3)]
        assert delays == [2.0, 4.0, 8.0]

    def test_clamped_to_min_and_max(self):
        spec = ResilienceSpec(jitter=0.0, backoff=4.0, base_rto=1.0,
                              min_rto=1.0, max_rto=5.0)
        rng = random.Random(0)
        assert retry_delay(spec, rng, 1, 0.1) == 1.0  # floor
        assert retry_delay(spec, rng, 5, 1.0) == 5.0  # ceiling

    def test_zero_jitter_makes_no_rng_draw(self):
        spec = ResilienceSpec(jitter=0.0)
        rng = random.Random(7)
        before = rng.getstate()
        retry_delay(spec, rng, 1, spec.base_rto)
        assert rng.getstate() == before

    def test_jitter_bounded_by_fraction(self):
        spec = ResilienceSpec(jitter=0.25, backoff=1.0, base_rto=4.0)
        rng = random.Random(3)
        for attempt in range(1, 6):
            delay = retry_delay(spec, rng, attempt, spec.base_rto)
            assert 4.0 <= delay <= 4.0 * 1.25


class TestBackoffSchedule:
    def test_length_is_transmission_count(self):
        spec = ResilienceSpec(max_retries=3)
        assert len(backoff_schedule(spec)) == 4

    def test_deterministic_per_seed(self):
        spec = ResilienceSpec(jitter=0.3)
        assert backoff_schedule(spec, seed=9) == backoff_schedule(spec, seed=9)
        assert backoff_schedule(spec, seed=9) != backoff_schedule(spec, seed=10)

    def test_monotone_until_the_clamp(self):
        spec = ResilienceSpec(jitter=0.0, backoff=2.0, base_rto=1.0,
                              min_rto=0.5, max_rto=1000.0, max_retries=5)
        schedule = backoff_schedule(spec)
        assert list(schedule) == sorted(schedule)

    def test_explicit_rto_overrides_base(self):
        spec = ResilienceSpec(jitter=0.0, backoff=2.0, min_rto=0.5,
                              base_rto=3.0, max_rto=100.0, max_retries=1)
        assert backoff_schedule(spec, rto=1.0) == (1.0, 2.0)
