"""Tests for temporal-connectivity classification (repro.core.runs)."""

from __future__ import annotations

import pytest

from repro.core.runs import ConnectivityClass, Run, classify_snapshots
from repro.sim.errors import ConfigurationError
from repro.topology.generators import line, ring
from repro.topology.graph import Topology


def disconnected(n: int = 4) -> Topology:
    return Topology(nodes=range(n))


class TestClassifySnapshots:
    def test_always_connected(self):
        verdict = classify_snapshots([ring(5)] * 4)
        assert verdict.klass is ConnectivityClass.ALWAYS
        assert verdict.connected_fraction == 1.0
        assert verdict.max_interval == 4  # identical graphs: max window

    def test_always_connected_varying_shape(self):
        # Connected every instant but sharing only part of the structure.
        a = Topology(nodes=range(3), edges=[(0, 1), (1, 2)])
        b = Topology(nodes=range(3), edges=[(0, 2), (2, 1)])
        verdict = classify_snapshots([a, b, a, b])
        assert verdict.klass is ConnectivityClass.ALWAYS
        # Shared edges {(1,2)} do not span; T=1 only.
        assert verdict.max_interval == 1

    def test_recurrent(self):
        snaps = [ring(4), disconnected(), ring(4), disconnected(), ring(4)]
        verdict = classify_snapshots(snaps)
        assert verdict.klass is ConnectivityClass.RECURRENT
        assert verdict.max_interval == 0
        assert verdict.connected_fraction == pytest.approx(3 / 5)

    def test_eventual_after_partition(self):
        # One disconnected stretch, then connected forever: the stretch
        # heals, so within the observation this is recurrent-and-eventual;
        # the classifier reports RECURRENT (the stronger claim here).
        snaps = [disconnected(), disconnected(), ring(4), ring(4)]
        verdict = classify_snapshots(snaps)
        assert verdict.klass is ConnectivityClass.RECURRENT
        assert verdict.first_connected_suffix == 2

    def test_never_connected(self):
        verdict = classify_snapshots([disconnected()] * 3)
        assert verdict.klass is ConnectivityClass.DISCONNECTED
        assert verdict.connected_fraction == 0.0

    def test_ends_disconnected(self):
        snaps = [ring(4), disconnected()]
        verdict = classify_snapshots(snaps)
        assert verdict.klass is ConnectivityClass.DISCONNECTED

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            classify_snapshots([])

    def test_singleton_snapshot(self):
        verdict = classify_snapshots([ring(3)])
        assert verdict.klass is ConnectivityClass.ALWAYS

    def test_str(self):
        verdict = classify_snapshots([ring(3)] * 2)
        assert "always connected" in str(verdict)

    def test_reachable_classes(self):
        """Over every connected/disconnected pattern up to length 7 the
        classifier reaches exactly its three classes: always connected,
        recurrent iff the observation ends connected, disconnected
        otherwise."""
        seen = set()
        for length in range(1, 8):
            for mask in range(2 ** length):
                pattern = [bool(mask >> i & 1) for i in range(length)]
                snaps = [ring(4) if ok else disconnected() for ok in pattern]
                klass = classify_snapshots(snaps).klass
                if all(pattern):
                    assert klass is ConnectivityClass.ALWAYS
                elif pattern[-1]:
                    assert klass is ConnectivityClass.RECURRENT
                else:
                    assert klass is ConnectivityClass.DISCONNECTED
                seen.add(klass)
        assert seen == set(ConnectivityClass)


class TestSnapshotsFromTrace:
    def make_trace(self):
        from repro.sim.trace import TraceLog

        log = TraceLog()
        for i in range(3):
            neighbors = (i - 1,) if i > 0 else ()
            log.record(0.0, "join", entity=i, value=1.0, neighbors=neighbors)
        return log

    def test_static_snapshots(self):
        snaps = Run.from_trace(self.make_trace()).snapshots([1.0, 5.0])
        assert len(snaps) == 2
        assert all(s.is_connected() for s in snaps)
        assert all(len(s) == 3 for s in snaps)

    def test_isolated_members_included(self):
        log = self.make_trace()
        log.record(2.0, "join", entity=9, value=1.0, neighbors=())
        snaps = Run.from_trace(log).snapshots([3.0])
        assert 9 in snaps[0]
        assert not snaps[0].is_connected()

    def test_no_times_rejected(self):
        with pytest.raises(ConfigurationError):
            Run.from_trace(self.make_trace()).snapshots([])

    def test_classify_trace_static(self):
        verdict = classify_snapshots(
            Run.from_trace(self.make_trace()).snapshots([1.0, 2.0, 3.0])
        )
        assert verdict.klass is ConnectivityClass.ALWAYS


class TestEndToEnd:
    def test_churned_overlay_classification(self):
        """A live simulation's connectivity classifies sensibly."""
        from repro.churn.models import ReplacementChurn
        from repro.sim.node import Process
        from repro.sim.scheduler import Simulator
        from repro.topology import generators as gen

        sim = Simulator(seed=6)
        topo = gen.make("er", 16, sim.rng_for("topo"))
        pids = []
        for node in sorted(topo.nodes()):
            neighbors = [p for p in topo.neighbors(node) if p < node]
            pids.append(sim.spawn(Process(value=1.0), neighbors).pid)
        ReplacementChurn(lambda: Process(value=1.0), rate=1.0).install(sim)
        sim.run(until=60)
        verdict = classify_snapshots(
            Run.from_trace(sim.trace).snapshots([float(t) for t in range(5, 60, 5)])
        )
        assert verdict.klass in ConnectivityClass
        assert 0.0 <= verdict.connected_fraction <= 1.0
