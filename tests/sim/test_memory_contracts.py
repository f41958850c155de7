"""What one entity costs: memory contracts of the simulator core.

The largest run the simulator can hold is set by the bytes each entity
keeps (see "Memory: what an entity costs" in ``docs/SCALING.md``).  The
contracts below hold the core to keeping only live state, each stated on
the object itself so that they mean the same under every Python version:
a random stream carries no instance dictionary, a complete network's
entity holds no adjacency set until an explicit link touches it, a
departed entity's process stream is released, a sink that keeps no
membership event retains none (the trace's fold holds the membership),
and a pending timer or delivery is one tuple, not a ``partial``, whose
queued event is the only handle anything keeps.

The last test holds a storm-shaped simulator (n = 2 000 ping nodes on a
complete network with silent churn and the counting sink, built but not
run) to a tracemalloc ceiling of bytes per entity, about 15 % above what
this code measures; the count repeats exactly for a given interpreter.
History (CPython 3.11): 4 444.5 B per entity with a ``__dict__`` per
stream and an empty adjacency set per entity, 3 892.5 B without them,
3 434.7 B with each join folded into columns instead of retained as an
event and the first timer queued as one ``PendingTimer``, 3 122.9 B with
the queued event as the timer's only handle (no per-process timer table,
no timer id) and a fixed ``"timer"`` label in place of a string per timer.
"""

from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
import tracemalloc

import pytest

from repro.obs.sinks import CountingSink, NullSink
from repro.sim.messages import Message
from repro.sim.network import PendingDelivery
from repro.sim.node import PendingTimer, Process
from repro.sim.rng import SeedSequence
from repro.sim.scheduler import Simulator


class PingNode(Process):
    """One storm entity: ping a random neighbor every period."""

    def on_start(self) -> None:
        self.set_timer(self.rng.uniform(0.0, 1.0), "ping")

    def on_timer(self, name: str, payload: object) -> None:
        target = self.random_neighbor()
        if target is not None:
            self.send(target, "PING")
        self.set_timer(1.0, "ping")


def draws(rng: random.Random) -> list:
    """One of every draw the simulator and its protocols make, in a fixed
    order; ``gauss`` twice, so that its cached second variate is used."""
    items = list(range(20))
    rng.shuffle(items)
    return [
        rng.random(), rng.uniform(0.5, 1.5), rng.gauss(0.0, 1.0),
        rng.gauss(0.0, 1.0), rng.randrange(1_000), rng.choice("abcdef"),
        rng.sample(range(100), 5), items, rng.expovariate(2.0),
        rng.getrandbits(70),
    ]


class TestStreamKeepsNoInstanceDict:
    @pytest.mark.parametrize("seed", [0, 7, 2007, 2**63 + 5])
    def test_a_stream_is_the_stdlib_generator_without_a_dict(self, seed):
        child = SeedSequence(seed).child("transport")
        stream = SeedSequence(seed).stream("transport")
        reference = random.Random(child)
        assert isinstance(stream, random.Random)
        assert vars(stream) == {}
        assert stream.getstate() == reference.getstate()
        assert draws(stream) == draws(reference)
        assert stream.getstate() == reference.getstate()

    def test_a_stream_survives_copy_and_pickle_mid_gauss_pair(self):
        stream = SeedSequence(11).stream(3)
        stream.gauss(0.0, 1.0)  # caches the pair's second variate
        for clone in (copy.copy(stream), copy.deepcopy(stream),
                      pickle.loads(pickle.dumps(stream))):
            assert type(clone) is type(stream)
            assert clone.getstate() == stream.getstate()
            assert draws(clone) == draws(copy.deepcopy(stream))


class TestCompleteNetworkAdjacency:
    def test_an_entity_holds_no_adjacency_set_until_add_edge(self):
        sim = Simulator(seed=1, complete=True)
        a, b, c = (sim.spawn(PingNode(0)).pid for _ in range(3))
        network = sim.network
        slot = network._slot_of.__getitem__
        assert [network._adj[slot(p)] for p in (a, b, c)] == [None] * 3
        assert network.neighbors(a) == {b, c} and network.degree(a) == 2
        assert network.edges() == set()
        network.remove_edge(a, b)  # no explicit link: nothing to close
        network.add_edge(a, b)
        assert network._adj[slot(a)] == {b} and network._adj[slot(b)] == {a}
        assert network._adj[slot(c)] is None
        assert network.edges() == {(a, b)}
        network.remove_edge(a, b)
        assert network.edges() == set()
        assert sim.trace.count("edge_up") == sim.trace.count("edge_down") == 1

    def test_a_leaver_takes_its_explicit_links_with_it(self):
        # Attachment points on a complete network are explicit links; a
        # leave unlinks them exactly as on a sparse network.
        sim = Simulator(seed=1, complete=True)
        first = sim.spawn(PingNode(0)).pid
        attached = sim.spawn(PingNode(0), [first]).pid
        last = sim.spawn(PingNode(0)).pid
        assert sim.network.edges() == {(first, attached)}
        sim.kill(attached)
        assert sim.network.edges() == set()
        sim.network.add_edge(first, last)
        sim.kill(first)
        assert sim.network.edges() == set()
        assert sim.network._adj[sim.network._slot_of[last]] == set()


class TestDepartedStreamReleased:
    def test_a_departed_pid_keeps_no_stream_and_the_rest_continue(self):
        sim = Simulator(seed=2007, complete=True)
        pids = [sim.spawn(PingNode(0)).pid for _ in range(4)]
        assert sorted(sim._process_streams) == pids  # on_start drew
        stayer = sim.process_rng(pids[0])
        before = stayer.random()
        sim.kill(pids[1])
        sim.schedule_leave(0.0, pids[2])
        sim.run(until=0.0)
        assert sorted(sim._process_streams) == [pids[0], pids[3]]
        assert sim.process_rng(pids[0]) is stayer
        reference = SeedSequence(2007).spawn("process").stream(pids[0])
        reference.uniform(0.0, 1.0)  # the on_start draw
        assert [reference.random(), reference.random()] == [
            before, stayer.random()]


class TestMembershipIsFoldedNotRetained:
    @pytest.mark.parametrize("sink", [NullSink, CountingSink])
    def test_joins_leaves_and_links_leave_no_event(self, sink):
        sim = Simulator(seed=5, trace_sink=sink())
        for i in range(6):
            sim.spawn(PingNode(0), [i - 1] if i else [])
        sim.kill(2)
        sim.network.add_edge(0, 5)
        sim.network.remove_edge(0, 5)
        sim.schedule_leave(1.5, 4)
        sim.run(until=3.0)
        summary = sim.trace.summary()
        assert (summary["join"], summary["leave"]) == (6, 2)
        assert summary["edge_up"] == summary["edge_down"] == 1
        assert summary["timer"] > 6 and summary["send"] > 0
        assert sim.trace.retained == 0
        assert len(sim.trace.membership.kinds) == 8 + 2  # joins, leaves, contacts


class TestOneRecordPerPendingEvent:
    def test_a_pending_timer_and_delivery_are_one_tuple_each(self):
        received = []

        class Probe(Process):
            def on_timer(self, name, payload):
                received.append((name, payload))

            def on_message(self, message):
                received.append(message)

        sim = Simulator(seed=1, complete=True)
        a, b = (sim.spawn(Probe()) for _ in range(2))
        handle = a.set_timer(0.5, "tick", payload=5)
        a.send(b.pid, "PING", hops=1)
        pending = sorted((sim.queue.pop() for _ in iter(sim.queue.peek_time, None)),
                         key=lambda event: event[4])
        (_, _, _, deliver, deliver_label, _), (_, _, _, fire, fire_label, _) = pending
        assert pending[1] is handle  # the queued event is the timer's handle
        assert (deliver_label, fire_label) == ("deliver:PING", "timer")
        assert type(fire) is PendingTimer and type(deliver) is PendingDelivery
        assert tuple(fire) == (a, "tick", 5)
        sent = Message(a.pid, b.pid, "PING", {"hops": 1})
        assert deliver[1:3] == (sent, 0)
        assert sys.getsizeof(fire) == sys.getsizeof((None,) * 3)
        assert sys.getsizeof(deliver) == sys.getsizeof((None,) * 4)
        for action in (fire, deliver):  # its fields, and nothing else
            referents = sorted(map(id, gc.get_referents(action)))
            assert referents == sorted(map(id, [type(action), *action]))
        fire()
        deliver()
        assert received == [("tick", 5), sent]
        assert not hasattr(a, "_timers")  # no per-process table of handles


def test_bytes_per_entity_of_a_storm_shaped_simulator():
    n, ceiling = 2_000, 3_600
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim = Simulator(
            seed=2007, complete=True, notify_leaves=False, notify_joins=False,
            trace_sink=CountingSink(),
        )
        for _ in range(n):
            sim.spawn(PingNode(1.0))
        per_entity = (tracemalloc.get_traced_memory()[0] - base) / n
    finally:
        tracemalloc.stop()
    assert sim.network.population() == n
    assert per_entity <= ceiling, (
        f"{per_entity:.1f} B per entity at n={n} (ceiling {ceiling}): an "
        "entity grew a per-instance dict, an eager container or a copy"
    )
