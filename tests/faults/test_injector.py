"""Tests for the fault-plan runtime (repro.faults.injector)."""

from __future__ import annotations

import pytest

from repro.churn.spec import ChurnSpec
from repro.engine.trials import QueryConfig, run_query
from repro.faults.injector import FaultInjector, SendEffect, install_plan
from repro.faults.spec import FaultPlan, FaultSpec
from repro.sim import trace as tr
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.latency import ConstantDelay
from repro.sim.messages import Message
from repro.sim.node import Process
from repro.sim.scheduler import Simulator


class Recorder(Process):
    """Counts deliveries and neighbor callbacks."""

    def __init__(self, value=1.0):
        super().__init__(value)
        self.received: list[Message] = []
        self.left_neighbors: list[int] = []

    def on_message(self, message):
        self.received.append(message)

    def on_neighbor_leave(self, pid):
        self.left_neighbors.append(pid)


def line_sim(n=6, seed=3, **kwargs) -> tuple[Simulator, list[Recorder]]:
    sim = Simulator(seed=seed, delay_model=ConstantDelay(0.5), **kwargs)
    procs = [sim.spawn(Recorder()) for _ in range(n)]
    for left, right in zip(procs, procs[1:]):
        sim.network.add_edge(left.pid, right.pid)
    return sim, procs


def ping_forever(sim, proc, until=20.0, period=1.0):
    def tick():
        if not sim.network.is_present(proc.pid):
            return
        for nbr in sorted(sim.network.neighbors(proc.pid)):
            proc.send(nbr, "PING")
        if sim.now < until:
            sim.schedule(period, tick)

    sim.call_soon(tick)


class TestInstall:
    def test_double_install_rejected(self):
        sim, _ = line_sim()
        injector = FaultInjector(FaultPlan.of(FaultSpec("crash", start=1.0)))
        injector.install(sim)
        with pytest.raises(SimulationError, match="already installed"):
            injector.install(sim)

    def test_second_injector_on_same_sim_rejected(self):
        sim, _ = line_sim()
        FaultInjector(FaultPlan.of(FaultSpec("crash", start=1.0))).install(sim)
        with pytest.raises(SimulationError, match="already has"):
            FaultInjector(
                FaultPlan.of(FaultSpec("crash", start=2.0))
            ).install(sim)

    def test_crash_rejoin_requires_factory(self):
        sim, _ = line_sim()
        injector = FaultInjector(
            FaultPlan.of(FaultSpec("crash_rejoin", start=1.0))
        )
        with pytest.raises(ConfigurationError, match="factory"):
            injector.install(sim)

    def test_plan_type_checked(self):
        with pytest.raises(ConfigurationError, match="FaultPlan"):
            FaultInjector("drop-storm")  # type: ignore[arg-type]

    def test_install_plan_none_installs_nothing(self):
        sim, _ = line_sim()
        assert install_plan(None, sim) is None
        assert install_plan(FaultPlan.none(), sim) is None
        assert sim.network.fault_injector is None


class TestDropBurst:
    def test_certain_drop_inside_window_only(self):
        sim, procs = line_sim(n=2)
        plan = FaultPlan.of(
            FaultSpec("drop_burst", start=2.0, duration=4.0, probability=1.0)
        )
        install_plan(plan, sim)
        ping_forever(sim, procs[0], until=10.0)
        sim.run(until=15.0)
        lost = sim.trace.events(tr.MSG_LOST)
        assert lost, "messages sent inside the window must be lost"
        assert all(2.0 <= e.time < 6.0 for e in lost)
        assert all(e["reason"] == "fault:drop_burst" for e in lost)
        # Deliveries happened outside the window.
        assert procs[1].received
        counters = sim.metrics_snapshot()["counters"]
        assert counters["net.dropped.fault"] == len(lost)
        assert counters["faults.injected.drop_burst"] == 1
        # The window close is traced.
        cleared = sim.trace.events(tr.FAULT_CLEARED)
        assert [e.time for e in cleared] == [6.0]

    def test_link_whitelist_restricts_the_burst(self):
        sim, procs = line_sim(n=3)
        protected_link = (procs[0].pid, procs[1].pid)
        other = (procs[1].pid, procs[2].pid)
        plan = FaultPlan.of(FaultSpec(
            "drop_burst", start=0.0, duration=30.0, probability=1.0,
            links=(other,),
        ))
        install_plan(plan, sim)
        ping_forever(sim, procs[1], until=10.0)  # sends on both links
        sim.run(until=15.0)
        assert procs[0].received, "whitelisted link must be unaffected"
        assert not procs[2].received, "listed link must drop everything"
        lost = sim.trace.events(tr.MSG_LOST)
        assert {(e["sender"], e["receiver"]) for e in lost} == {
            (procs[1].pid, procs[2].pid)
        }
        assert protected_link  # silence unused warning


class TestDuplicate:
    def test_copies_are_delivered(self):
        sim, procs = line_sim(n=2)
        plan = FaultPlan.of(FaultSpec(
            "duplicate", start=0.0, duration=30.0, probability=1.0, copies=2,
        ))
        install_plan(plan, sim)
        sim.at(1.0, lambda: procs[0].send(procs[1].pid, "PING"))
        sim.run(until=10.0)
        assert len(procs[1].received) == 3  # original + 2 copies
        counters = sim.metrics_snapshot()["counters"]
        assert counters["faults.duplicates"] == 2
        assert counters["net.sent"] == 1
        assert counters["net.delivered"] == 3
        # All three deliveries share the original msg_id.
        ids = {e["msg_id"] for e in sim.trace.events(tr.DELIVER)}
        assert len(ids) == 1


class TestDelaySpike:
    def test_extra_delay_is_added(self):
        sim, procs = line_sim(n=2)
        plan = FaultPlan.of(FaultSpec(
            "delay_spike", start=0.0, duration=30.0, probability=1.0,
            magnitude=5.0,
        ))
        install_plan(plan, sim)
        sim.at(1.0, lambda: procs[0].send(procs[1].pid, "PING"))
        sim.run(until=20.0)
        deliver = sim.trace.events(tr.DELIVER)[0]
        assert deliver.time == pytest.approx(1.0 + 0.5 + 5.0)


class TestLinkFlap:
    def test_links_sever_and_restore(self):
        sim, procs = line_sim(n=4)
        plan = FaultPlan.of(FaultSpec(
            "link_flap", start=2.0, duration=1.0, probability=0.99,
            count=2, period=5.0,
        ))
        install_plan(plan, sim)
        sim.run(until=20.0)
        downs = sim.trace.events("edge_down")
        # Initial wiring also records edge_up, so count only the restores.
        restores = [e for e in sim.trace.events("edge_up") if e.time > 0.0]
        assert downs and len(downs) == len(restores)
        # The topology is whole again after the last restore.
        assert len(sim.network.edges()) == 3
        counters = sim.metrics_snapshot()["counters"]
        assert counters["faults.injected.link_flap"] == 2

    def test_flaps_on_a_complete_network_under_churn(self):
        # A churn join's attachment points are explicit links on a complete
        # network too; a leave used to keep them, so a flap drew a pair
        # with a departed end and raised MembershipError on every seed.
        outcome = run_query(QueryConfig(
            n=10, protocol="request_collect", seed=0, faults="flaky-links",
            churn=ChurnSpec(kind="replacement", rate=2.0),
        ))
        counters = outcome.metrics["counters"]
        assert counters["membership.leaves"] > 100
        assert counters["faults.links_severed"] > 0


class TestPartition:
    def test_split_and_heal_are_traced(self):
        sim, _ = line_sim(n=6)
        plan = FaultPlan.of(FaultSpec(
            "partition", start=2.0, duration=6.0, fraction=0.5,
        ))
        install_plan(plan, sim)
        sim.run(until=20.0)
        assert sim.trace.events("partition_split")
        assert sim.trace.events("partition_heal")
        injected = sim.trace.events(tr.FAULT_INJECTED)
        assert [e["fault"] for e in injected] == ["partition"]


class TestCrash:
    def test_crash_is_silent_and_respects_protection(self):
        sim, procs = line_sim(n=5)
        plan = FaultPlan.of(FaultSpec("crash", start=2.0, count=4))
        install_plan(plan, sim, protected=(procs[0].pid,))
        sim.run(until=10.0)
        assert sim.network.is_present(procs[0].pid)
        assert len(sim.network.present()) == 1
        # Silent: nobody received an on_neighbor_leave callback.
        assert all(not p.left_neighbors for p in procs)
        counters = sim.metrics_snapshot()["counters"]
        assert counters["faults.crashes"] == 4
        injected = sim.trace.events(tr.FAULT_INJECTED)[0]
        assert injected["silent"] is True
        assert len(injected["victims"]) == 4

    def test_crash_notify_setting_is_restored(self):
        sim, _ = line_sim(n=3)
        assert sim.network.notify_leaves is True
        install_plan(
            FaultPlan.of(FaultSpec("crash", start=1.0)), sim
        )
        sim.run(until=5.0)
        assert sim.network.notify_leaves is True


class TestCrashRejoin:
    def test_population_recovers_with_fresh_entities(self):
        sim, procs = line_sim(n=4)
        before = sim.network.present()
        plan = FaultPlan.of(FaultSpec(
            "crash_rejoin", start=2.0, count=2, rejoin_after=3.0,
        ))
        install_plan(plan, sim, factory=Recorder)
        sim.run(until=10.0)
        after = sim.network.present()
        assert len(after) == len(before)
        # Ids are never reused: the replacements are new entities.
        assert len(after - before) == 2
        counters = sim.metrics_snapshot()["counters"]
        assert counters["faults.rejoins"] == 2


class TestSendEffect:
    def test_inactive_injector_is_a_no_op(self):
        sim, procs = line_sim(n=2)
        injector = install_plan(
            FaultPlan.of(FaultSpec("drop_burst", start=50.0, duration=1.0)),
            sim,
        )
        message = Message(
            sender=procs[0].pid, receiver=procs[1].pid, kind="PING"
        )
        assert injector.send_effect(message) is None

    def test_drop_short_circuits(self):
        effect = SendEffect(drop=True, reason="fault:drop_burst")
        assert effect.drop and effect.copies == 0

    def test_uninstalled_injector_refuses_to_run(self):
        injector = FaultInjector(FaultPlan.of(FaultSpec("crash")))
        with pytest.raises(SimulationError, match="not installed"):
            _ = injector.sim
