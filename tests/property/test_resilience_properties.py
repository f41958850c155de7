"""Property-based tests for the resilience plane.

Four contracts, each over randomly generated resilience specs:

* the backoff schedule is a pure function of ``(spec, seed)`` — same inputs,
  same delays — and every delay respects the ``[min_rto, max_rto]`` clamp
  (stretched by at most the jitter fraction);
* the JSON wire format is lossless —
  ``ResilienceSpec.from_json(spec.to_json())`` recovers the spec exactly;
* timer accountability — on a live lossy network (breaker off), every
  retransmission timer that fires is accounted for:
  ``resilience.timer_fired == resilience.retransmits +
  resilience.abandoned + resilience.unreachable``;
* ack conservation — ``resilience.acks_received <= resilience.sends``
  (each tracked message is acknowledged at most once).
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.resilience.spec import ResilienceSpec, backoff_schedule
from repro.resilience.transport import ReliableTransport
from repro.sim.latency import BernoulliLoss, ConstantDelay
from repro.sim.node import Process
from repro.sim.scheduler import Simulator

# --- strategies ----------------------------------------------------------

small_floats = st.floats(min_value=0.1, max_value=5.0,
                         allow_nan=False, allow_infinity=False)


@st.composite
def resilience_specs(draw, jitter=None, breaker=True):
    min_rto = draw(small_floats)
    base_rto = min_rto + draw(st.floats(
        min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False))
    max_rto = base_rto + draw(st.floats(
        min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False))
    return ResilienceSpec(
        max_retries=draw(st.integers(min_value=0, max_value=5)),
        min_rto=min_rto, base_rto=base_rto, max_rto=max_rto,
        backoff=draw(st.floats(min_value=1.0, max_value=3.0,
                               allow_nan=False, allow_infinity=False)),
        jitter=draw(st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False, allow_infinity=False))
        if jitter is None else jitter,
        adaptive_rto=draw(st.booleans()),
        breaker_threshold=draw(st.integers(min_value=0, max_value=3))
        if breaker else 0,
        breaker_cooldown=draw(small_floats),
        partial_results=draw(st.booleans()),
    )


# --- properties ----------------------------------------------------------

class TestBackoffDeterminism:
    @given(spec=resilience_specs(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_schedule_is_a_function_of_spec_and_seed(self, spec, seed):
        assert backoff_schedule(spec, seed=seed) == backoff_schedule(
            spec, seed=seed
        )

    @given(spec=resilience_specs(), seed=st.integers(min_value=0, max_value=2**16))
    # Found by a random run: 3.0 + uniform(0, jitter * 3.0) is 1 ulp above
    # 3.0 * (1.0 + jitter), which rounds to 3.0.
    @example(spec=ResilienceSpec(max_retries=0, min_rto=3.0, base_rto=3.0,
                                 max_rto=3.0, backoff=1.0, jitter=1.09e-16),
             seed=0)
    @settings(max_examples=60, deadline=None)
    def test_every_delay_respects_the_clamp(self, spec, seed):
        schedule = backoff_schedule(spec, seed=seed)
        assert len(schedule) == spec.max_retries + 1
        # The bound is retry_delay's own expression at delay = max_rto
        # (monotone in delay), not the algebraically equal
        # max_rto * (1 + jitter), which rounds differently.
        ceiling = spec.max_rto + spec.jitter * spec.max_rto
        for delay in schedule:
            assert spec.min_rto <= delay <= ceiling

    @given(spec=resilience_specs(jitter=0.0))
    @settings(max_examples=40, deadline=None)
    def test_zero_jitter_schedules_are_nondecreasing(self, spec):
        schedule = backoff_schedule(spec)
        assert list(schedule) == sorted(schedule)


class TestSerialisationLossless:
    @given(spec=resilience_specs())
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip(self, spec):
        assert ResilienceSpec.from_dict(spec.to_dict()) == spec

    @given(spec=resilience_specs(), name=st.text(max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_with_names(self, spec, name):
        named = ResilienceSpec.from_dict({**spec.to_dict(), "name": name})
        assert ResilienceSpec.from_json(named.to_json()) == named


class TestTimerAccountability:
    @given(
        spec=resilience_specs(breaker=False),
        loss=st.floats(min_value=0.0, max_value=0.8,
                       allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_timer_fire_is_accounted_for(self, spec, loss, seed):
        sim = Simulator(seed=seed, delay_model=ConstantDelay(0.3),
                        loss_model=BernoulliLoss(loss))
        procs = [sim.spawn(Process(value=1.0)) for _ in range(5)]
        for left, right in zip(procs, procs[1:]):
            sim.network.add_edge(left.pid, right.pid)
        ReliableTransport(spec).install(sim)
        for left, right in zip(procs, procs[1:]):
            left.send(right.pid, "DATA", k=left.pid)
            right.send(left.pid, "DATA", k=right.pid)
        sim.run(until=2000.0)
        counters = sim.metrics_snapshot()["counters"]
        assert counters.get("resilience.timer_fired", 0) == (
            counters.get("resilience.retransmits", 0)
            + counters.get("resilience.abandoned", 0)
            + counters.get("resilience.unreachable", 0)
        )
        assert counters.get("resilience.acks_received", 0) <= counters.get(
            "resilience.sends", 0
        )
        # The run drained: nothing is pending once every message was either
        # acknowledged or explicitly abandoned.
        assert sim.network.resilience.pending_count == 0
