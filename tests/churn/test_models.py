"""Tests for churn models (repro.churn.models)."""

from __future__ import annotations

import pytest

from repro.churn.lifetimes import ConstantLifetime, ExponentialLifetime
from repro.churn.adversary import GrowthAdversary
from repro.churn.models import (
    ArrivalDepartureChurn,
    FiniteArrivalChurn,
    NoChurn,
    PhasedChurn,
    ReplacementChurn,
    ScheduledChurn,
)
from repro.churn.traces import Session, TraceReplayChurn
from repro.core.arrival import (
    FiniteArrival,
    InfiniteArrivalBounded,
    InfiniteArrivalFinite,
    StaticArrival,
)
from repro.core.runs import Run
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.topology.attachment import UniformAttachment


def seeded_sim(n: int = 8) -> Simulator:
    sim = Simulator(seed=4)
    prev = None
    for _ in range(n):
        prev = sim.spawn(Process(value=1.0), neighbors=[prev.pid] if prev else [])
    return sim


class TestChurnModelBase:
    def test_double_install_rejected(self):
        sim = seeded_sim()
        model = NoChurn()
        model.install(sim)
        with pytest.raises(SimulationError):
            model.install(sim)

    def test_uninstalled_access_rejected(self):
        with pytest.raises(SimulationError):
            _ = NoChurn().sim


class TestNoChurn:
    def test_membership_never_changes(self):
        sim = seeded_sim(5)
        NoChurn().install(sim)
        before = sim.network.present()
        sim.run(until=100)
        assert sim.network.present() == before

    def test_arrival_class(self):
        sim = seeded_sim(5)
        model = NoChurn()
        model.install(sim)
        assert model.arrival_class() == StaticArrival(5)

    def test_run_admitted_by_declared_class(self):
        sim = seeded_sim(5)
        model = NoChurn()
        model.install(sim)
        sim.run(until=50)
        run = Run.from_trace(sim.trace, horizon=50)
        assert model.arrival_class().admits(run)


class TestReplacementChurn:
    def test_population_constant(self):
        sim = seeded_sim(8)
        model = ReplacementChurn(lambda: Process(value=1.0), rate=2.0)
        model.install(sim)
        sim.run(until=50)
        assert len(sim.network.present()) == 8
        assert model.joins == model.leaves
        assert model.joins > 10

    def test_composition_turns_over(self):
        sim = seeded_sim(8)
        original = sim.network.present()
        model = ReplacementChurn(lambda: Process(value=1.0), rate=2.0)
        model.install(sim)
        sim.run(until=100)
        assert sim.network.present() != original

    def test_zero_rate_is_static(self):
        sim = seeded_sim(4)
        model = ReplacementChurn(lambda: Process(), rate=0.0)
        model.install(sim)
        sim.run(until=50)
        assert model.joins == 0

    def test_immortal_protected(self):
        sim = seeded_sim(6)
        protected = min(sim.network.present())
        model = ReplacementChurn(lambda: Process(value=1.0), rate=5.0)
        model.immortal.add(protected)
        model.install(sim)
        sim.run(until=100)
        assert sim.network.is_present(protected)

    def test_stop_at_freezes(self):
        sim = seeded_sim(6)
        model = ReplacementChurn(lambda: Process(value=1.0), rate=2.0)
        model.install(sim, stop_at=10.0)
        sim.run(until=100)
        run = Run.from_trace(sim.trace, horizon=100)
        assert run.quiescent_from() <= 10.0 + 1e-9

    def test_declared_class_admits_run(self):
        sim = seeded_sim(8)
        model = ReplacementChurn(lambda: Process(value=1.0), rate=1.0)
        model.install(sim)
        sim.run(until=30)
        run = Run.from_trace(sim.trace, horizon=30)
        assert model.arrival_class() == InfiniteArrivalBounded(8)
        assert model.arrival_class().admits(run)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplacementChurn(lambda: Process(), rate=-1.0)


class TestArrivalDepartureChurn:
    def test_population_fluctuates(self):
        sim = seeded_sim(4)
        model = ArrivalDepartureChurn(
            lambda: Process(value=1.0),
            arrival_rate=1.0,
            lifetimes=ExponentialLifetime(5.0),
        )
        model.install(sim)
        sim.run(until=100)
        assert model.joins > 50
        assert model.leaves > 20

    def test_concurrency_cap_respected(self):
        sim = seeded_sim(4)
        model = ArrivalDepartureChurn(
            lambda: Process(value=1.0),
            arrival_rate=5.0,
            lifetimes=ConstantLifetime(10.0),
            concurrency_cap=10,
        )
        model.install(sim)
        sim.run(until=60)
        run = Run.from_trace(sim.trace, horizon=60)
        assert run.max_concurrency() <= 10
        assert model.rejected > 0
        assert model.arrival_class() == InfiniteArrivalBounded(10)
        assert model.arrival_class().admits(run)

    def test_uncapped_class(self):
        model = ArrivalDepartureChurn(
            lambda: Process(), arrival_rate=1.0, lifetimes=ConstantLifetime(1.0)
        )
        assert model.arrival_class() == InfiniteArrivalFinite()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ArrivalDepartureChurn(
                lambda: Process(), arrival_rate=0.0, lifetimes=ConstantLifetime(1.0)
            )
        with pytest.raises(ConfigurationError):
            ArrivalDepartureChurn(
                lambda: Process(),
                arrival_rate=1.0,
                lifetimes=ConstantLifetime(1.0),
                concurrency_cap=0,
            )


class TestFiniteArrivalChurn:
    def test_exactly_total_arrivals(self):
        sim = seeded_sim(3)
        model = FiniteArrivalChurn(
            lambda: Process(value=1.0), total_arrivals=7, arrival_rate=1.0
        )
        model.install(sim)
        sim.run(until=500)
        assert model.joins == 7
        assert len(sim.network.present()) == 10

    def test_quiescence_reached(self):
        sim = seeded_sim(3)
        model = FiniteArrivalChurn(
            lambda: Process(value=1.0),
            total_arrivals=5,
            arrival_rate=2.0,
            lifetimes=ConstantLifetime(3.0),
        )
        model.install(sim)
        sim.run(until=500)
        run = Run.from_trace(sim.trace, horizon=500)
        assert run.quiescent_from() < 500
        assert model.arrival_class() == FiniteArrival()
        assert model.arrival_class().admits(run)

    def test_zero_arrivals(self):
        sim = seeded_sim(3)
        model = FiniteArrivalChurn(lambda: Process(), total_arrivals=0, arrival_rate=1.0)
        model.install(sim)
        sim.run(until=50)
        assert model.joins == 0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            FiniteArrivalChurn(lambda: Process(), total_arrivals=-1, arrival_rate=1.0)
        with pytest.raises(ConfigurationError):
            FiniteArrivalChurn(lambda: Process(), total_arrivals=3, arrival_rate=0.0)


class TestScheduledChurn:
    def test_replays_schedule(self):
        sim = seeded_sim(2)
        model = ScheduledChurn(
            lambda: Process(value=1.0),
            schedule=[(5.0, "join"), (10.0, "join")],
            attachment=UniformAttachment(1),
        )
        model.install(sim)
        sim.run(until=20)
        assert model.joins == 2
        assert len(sim.network.present()) == 4

    def test_scheduled_leave(self):
        sim = seeded_sim(3)
        victim = max(sim.network.present())
        model = ScheduledChurn(lambda: Process(), schedule=[(4.0, ("leave", victim))])
        model.install(sim)
        sim.run(until=10)
        assert not sim.network.is_present(victim)
        assert model.leaves == 1

    def test_leave_of_absent_is_noop(self):
        sim = seeded_sim(3)
        model = ScheduledChurn(lambda: Process(), schedule=[(4.0, ("leave", 999))])
        model.install(sim)
        sim.run(until=10)
        assert model.leaves == 0

    def test_stop_at_freezes_scheduled_joins_but_not_leaves(self):
        """Like every model's joins (and unlike its lifetime-style leaves),
        a scheduled join after ``stop_at`` does not happen."""
        sim = seeded_sim(3)
        victim = max(sim.network.present())
        model = ScheduledChurn(
            lambda: Process(), attachment=UniformAttachment(1),
            schedule=[(2.0, "join"), (6.0, "join"), (7.0, ("leave", victim))],
        )
        model.install(sim, stop_at=5.0)
        sim.run(until=10)
        assert (model.joins, model.leaves) == (1, 1)

    def test_unknown_action_rejected(self):
        sim = seeded_sim(2)
        model = ScheduledChurn(lambda: Process(), schedule=[(1.0, "explode")])
        with pytest.raises(ConfigurationError):
            model.install(sim)

    def test_schedule_sorted(self):
        model = ScheduledChurn(
            lambda: Process(), schedule=[(5.0, "join"), (1.0, "join")]
        )
        assert [t for t, _ in model.schedule] == [1.0, 5.0]


#: One of every churn model, each with a leave path it can take by t = 30
#: on an 8-process ring (``seeded_sim``): random victims, expiring
#: lifetimes of joiners and of doomed initial members, scheduled leaves.
LEAVING_MODELS = {
    "no-churn": lambda: NoChurn(),
    "arrival-departure": lambda: ArrivalDepartureChurn(
        lambda: Process(), arrival_rate=0.8,
        lifetimes=ExponentialLifetime(6.0), attachment=UniformAttachment(1),
    ),
    "arrival-departure-doomed": lambda: ArrivalDepartureChurn(
        lambda: Process(), arrival_rate=0.8,
        lifetimes=ExponentialLifetime(6.0), attachment=UniformAttachment(1),
        doom_initial=True,
    ),
    "replacement": lambda: ReplacementChurn(
        lambda: Process(), rate=0.6, attachment=UniformAttachment(1),
    ),
    "finite-arrival": lambda: FiniteArrivalChurn(
        lambda: Process(), total_arrivals=6, arrival_rate=1.0,
        lifetimes=ConstantLifetime(4.0), attachment=UniformAttachment(1),
    ),
    "phased": lambda: PhasedChurn(
        lambda: Process(), storm_rate=1.0, storm_length=5.0,
        calm_length=5.0, attachment=UniformAttachment(1),
    ),
    "scheduled": lambda: ScheduledChurn(
        lambda: Process(), attachment=UniformAttachment(1),
        schedule=[(2.0, "join"), (4.0, ("leave", 7)), (6.0, ("leave", 6)),
                  (8.0, ("leave", 999))],
    ),
    "trace-replay": lambda: TraceReplayChurn(
        lambda: Process(), [Session(arrival=1.0, duration=3.0),
                            Session(arrival=2.0, duration=20.0)],
        attachment=UniformAttachment(1),
    ),
    "growth-adversary": lambda: GrowthAdversary(lambda: Process(), max_joins=5),
}


@pytest.mark.parametrize("name", sorted(LEAVING_MODELS))
def test_every_leave_is_counted_in_the_churn_leaves_metric(name):
    sim = seeded_sim()
    model = LEAVING_MODELS[name]()
    model.install(sim)
    sim.run(until=30)
    counters = sim.metrics_snapshot()["counters"]
    assert counters.get("churn.leaves", 0) == model.leaves
    assert counters.get("churn.joins", 0) == model.joins
    if name not in ("no-churn", "growth-adversary"):
        assert model.leaves > 0  # the leave path was taken
