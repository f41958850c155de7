"""The optimised core generates exactly the runs the reference model does:
queue backends pop in ``RefQueue``'s order, and one protocol body run through
``Simulator`` and ``RefSim`` across arrival × topology × attachment × delay ×
transport × queue × sink leaves the same trace (as the sink retains it),
counts, metrics, links, stream states and pending events.  A hot-path change proves
itself with an axis or an ``@example``; each names its ``EVIDENCE``.
"""

import json
import tempfile
from collections import Counter
from functools import partial, reduce
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.churn import models as churn
from repro.churn.lifetimes import ExponentialLifetime
from repro.obs.codec import encode_event
from repro.obs.sinks import CountingSink, JsonlStreamSink, NullSink
from repro.sim.events import CalendarEventQueue, EventQueue, HeapEventQueue
from repro.sim.latency import BernoulliLoss, ConstantDelay, ExponentialDelay, UniformDelay
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.sim.trace import TraceEvent
from repro.topology import attachment as attach
from tests.reference import model as ref

QUEUES = [HeapEventQueue, CalendarEventQueue, partial(EventQueue, calendar_threshold=None),
          partial(EventQueue, calendar_threshold=8)]  # pinned, then migrating
TIMES = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0, 10), st.floats(1e5, 1e6))
OPS = st.lists(st.one_of(  # ties pushed together, pops, cancels announced or not
    st.tuples(st.just("push"), TIMES, st.sampled_from([-1, 0, 1]), st.integers(1, 30)),
    st.tuples(st.just("pop"), st.integers(1, 20)),
    st.tuples(st.just("cancel"), st.integers(0, 10**4), st.booleans())), max_size=40)


def replay(queue, ops):
    """Every pop of ``ops`` on ``queue`` and the next time after each op."""
    handles, seen = [], []
    for op in ops:
        if op[0] == "push":
            handles += [queue.push(op[1], None, priority=op[2]) for _ in range(op[3])]
        for _ in range(op[1] if op[0] == "pop" else 0):
            if queue.peek_time() is not None:
                seen.append(tuple(queue.pop()[:3]))
        if op[0] == "cancel" and handles:
            handle = handles.pop(op[1] % len(handles))
            if tuple(handle[:3]) not in seen:
                handle[5] = True
                if op[2] and hasattr(queue, "note_cancelled"):
                    queue.note_cancelled()
        seen.append(queue.peek_time())
    return seen + [tuple(queue.pop()[:3]) for _ in iter(queue.peek_time, None)]


@settings(max_examples=60)
@given(ops=OPS)
@example(ops=[("push", 42.0, 0, 3000), ("cancel", 7, True), ("pop", 5)])
@example(ops=[("push", i / 1000, i % 3 - 1, 2) for i in range(60)]
         + [("push", 1e6 + i, 0, 1) for i in range(5)] + [("push", 0.05, 1, 3)])
def test_every_queue_pops_in_the_reference_order(ops):
    expected = replay(ref.RefQueue(), ops)
    for make in QUEUES:
        assert replay(queue := make(), ops) == expected, make
    if ops and ops[0][0] == "push" and ops[0][3] > 8:  # more than 8 pending at once
        assert queue.backend == "calendar"


class Body:
    """Both sides' protocol: a tick floods (``value`` hops), pings and cancels
    a spare timer; newcomers are greeted, departures recorded."""

    def on_start(self):
        self.set_timer(self.rng.uniform(0.0, 1.0), "tick")
        self.spare = self.set_timer(5.0, "spare")

    def on_timer(self, name, payload):
        self.cancel_timer(self.spare)
        if self.rng.random() < 0.5:
            self.broadcast("GOSSIP", hops=1)
        if (target := self.random_neighbor()) is not None:
            self.send(target, "PING", degree=self.degree())
        self.set_timer(1.0, "tick")

    def on_message(self, message):
        if message.kind == "GOSSIP" and message.payload["hops"] < self.value:
            self.broadcast("GOSSIP", exclude=message.sender, hops=message.payload["hops"] + 1)

    def on_neighbor_join(self, pid):
        self.send(pid, "HELLO")

    def on_neighbor_leave(self, pid):
        self.record("lost", peer=pid)

    def on_stop(self):
        self.record("bye", degree=self.degree())


Fast, Ref = type("Fast", (Body, Process), {}), type("Ref", (Body, ref.RefProcess), {})
RULES = {**{f"uniform-{k}": (partial(attach.UniformAttachment, k), ref.uniform(k))
            for k in (1, 2, 6)},
         "degree": (partial(attach.DegreeProportionalAttachment, 2), ref.degree_proportional(2)),
         "chain": (attach.ChainAttachment, ref.chain)}
LIFE = ExponentialLifetime(6.0)
#: arrival -> (factory, rule, n, start calm) -> (fast model, RefChurn keywords)
ARRIVALS = {
    "static": lambda f, r, n, calm: (churn.NoChurn(), {}),
    "replacement": lambda f, r, n, calm: (
        churn.ReplacementChurn(f, 0.6, r), dict(rate=0.6, label="churn:replace", replaces=True)),
    **{name: lambda f, r, n, calm, capped=capped: (
        churn.ArrivalDepartureChurn(f, 0.8, LIFE, r, cap := max(2, n - 4) if capped else None,
                                    doom_initial=True),
        dict(rate=0.8, label="churn:arrival", lifetimes=LIFE, cap=cap, doom_initial=True))
       for name, capped in (("arrival-departure", False), ("arrival-departure-cap", True))},
    "finite": lambda f, r, n, calm: (churn.FiniteArrivalChurn(f, 5, 1.0, LIFE, r), dict(
        rate=1.0, label="churn:finite-arrival", lifetimes=LIFE, remaining=5)),
    "phased": lambda f, r, n, calm: (churn.PhasedChurn(f, 1.5, 2.0, 1.5, r, start_calm=calm), dict(
        rate=1.5, label="churn:storm-replace", replaces=True, phases=(2.0, 1.5, calm))),
    "scheduled": lambda f, r, n, calm: (churn.ScheduledChurn(f, plan := [
        (1.5, "join"), (2.5, ("leave", 1)), (4.0, "join"), (4.5, ("leave", n + 1))], r),
        dict(schedule=plan)),
}
DELAYS = {"default": None, "edge": None, "constant": ConstantDelay(1.0),
          "exponential": ExponentialDelay(0.8)}
SINKS = {"memory": lambda path: None, "null": lambda path: NullSink(),
         "counts": lambda path: CountingSink(), "jsonl": JsonlStreamSink}


def run(s, fast, sink=None):
    """Run scenario ``s`` on one side; return the simulator, its churn model
    and what the run left besides its trace, pending events drained last."""
    n, complete = s["n"], s["complete"]
    options = dict(seed=s["seed"], delay_model=DELAYS[s["delay"]], complete=complete,
                   loss_model=BernoulliLoss(0.3) if s["loss"] else None, fifo=s["fifo"],
                   notify_leaves=s["notify_leaves"], notify_joins=s["notify_joins"])
    sim = Simulator(trace_sink=sink, **options) if fast else ref.RefSim(**options)
    node, rule = partial(Fast if fast else Ref, 1 if complete else 3), RULES[s["attachment"]]
    for i in range(n):  # a ring with two chords, or a complete network
        sim.spawn(node(), [] if complete else [i - 1] * (i > 0) + [0] * (i == n - 1)
                  + [i - 3] * (i in (4, 6)))
    for pid in sorted({2, n // 2} if complete else {2}):  # holes
        sim.kill(pid)
    if s["delay"] == "edge":
        sim.network.set_edge_delay(0, 1, ConstantDelay(2.5))
        sim.network.set_edge_delay(3, 4, UniformDelay(0.1, 0.2))
    model, keywords = ARRIVALS[s["arrival"]](node, rule[0]() if fast else rule[1], n,
                                             s["seed"] % 2 == 1)
    model = model if fast else ref.RefChurn(node, rule[1], **keywords)
    model.immortal |= {"none": set(), "first": {0}, "absent": {2, 10_000},
                       "all": set(sim.network.present_sorted())}[s["immortal"]]
    model.install(sim, stop_at=s["horizon"] * 5 / 6)
    model.installed = sim.rng_for("churn").getstate()  # for EVIDENCE
    if fast and s["migrate"]:  # to the calendar mid-run, likely mid-fan-out
        sim.queue._threshold = len(sim.queue) + 10
    if s["extras"]:  # joins, leaves and an edge opened, closed and reopened
        rng, network = sim.rng_for("joins"), sim.network
        choose = partial(rule[0]().choose, network, rng) if fast else partial(rule[1], sim, rng)
        for at in (1.5, 3.0, 11.0, 19.0):
            sim.schedule_join(at, node, lambda view: choose())
        sim.schedule_leave(2.2, 1)
        sim.schedule_leave(4.4, n - 1)
        far = n - 1 if complete else n // 2  # n // 2 is a hole on a complete network
        for at, edge in ((1.0, network.add_edge), (2.5, network.remove_edge),
                         (3.0, network.add_edge)):
            sim.schedule(at, lambda edge=edge: {0, far} <= set(
                network.present_sorted()) and edge(0, far), label="edge")
    sim.run(until=s["horizon"])
    return sim, model, dict(
        metrics=sim.metrics_snapshot(), present=sim.network.present_sorted(),
        edges=sorted(sim.network.edges()),
        streams=[sim.rng_for(name).getstate() for name in ("churn", "transport")],
        churn=(model.joins, model.leaves, model.rejected), pending=[
            (e[0], e[1], e[2], e[4]) for e in (sim.queue.pop() for _ in iter(
                sim.queue.peek_time, None))])


#: What a run ``f`` (churn model ``m``) that reached each axis shows.
EVIDENCE = {
    "static": lambda f, m: f.metrics.value("net.sent"), "cap": lambda f, m: m.rejected,
    "ring": lambda f, m: f.metrics.value("net.delivered"),
    "complete with holes": lambda f, m: f.network.complete and f.metrics.value("net.delivered"),
    "replacement": lambda f, m: m.leaves == m.joins > 0, "immortals absent": lambda f, m: m.leaves,
    "everyone immortal": lambda f, m: not m.leaves and m.installed != m._rng.getstate(),
    "arrival-departure": lambda f, m: m.joins and m.leaves,
    "finite": lambda f, m: m.joins == 5, "scheduled": lambda f, m: m.joins == m.leaves == 2,
    # A uniform replacement keeps the population; its draw sees it less the leaver.
    "pool branch": lambda f, m: m.joins and f.network.population() - 1 <= 21,
    "set branch": lambda f, m: m.joins and f.network.population() - 1 > 21,
    **dict.fromkeys(("phased", "uniform-6", "degree", "chain"), lambda f, m: m.joins),
    # Delays on the 1.0 bound, past the default's 1.5, on the 2.5 override.
    "on a bucket bound": lambda f, m: f.metrics.histogram("net.delivery_delay").counts[1]
    == f.metrics.value("net.sent"),
    "exponential": lambda f, m: sum(f.metrics.histogram("net.delivery_delay").counts[3:]),
    "edge override": lambda f, m: f.metrics.histogram("net.delivery_delay").counts[3],
    "loss": lambda f, m: f.metrics.value("net.dropped.loss"),
    "fifo": lambda f, m: f.network.fifo and f.metrics.value("net.delivered"),
    "receiver absent": lambda f, m: f.metrics.value("net.dropped.receiver_absent"),
    "silent leaves": lambda f, m: m.leaves and not f.trace.count("lost"),
    "silent joins": lambda f, m: m.joins and not f.metrics.value("net.sent.HELLO"),
    "joins, leaves and edges": lambda f, m: f.trace.count("edge_up") and f.trace.count(
        "edge_down") and f.metrics.value("membership.joins") > 12 + m.joins,
    # Reopened, its far end left with the link open; no edge names a leaver.
    "complete-network edges": lambda f, m: f.network.complete and f.trace.count(
        "edge_up") == 2 and f.trace.count("edge_down") == 1 and all(
        map(f.network.is_present, sum(f.network.edges(), ()))),
    "migrating queue": lambda f, m: f.queue.backend == "calendar",
    "null sink": lambda f, m: f.trace.retained < len(f.trace),
    "counting sink": lambda f, m: f.trace.sink.summary(),
    "jsonl sink": lambda f, m: f.trace.sink.events_written,
}
BASE = dict(seed=2007, n=8, complete=False, arrival="static", immortal="none",
            attachment="uniform-2", delay="default", loss=False, fifo=False,
            notify_leaves=True, notify_joins=True, extras=False, migrate=False,
            sink="memory", horizon=6.0)


def case(*evidence, **overrides):
    return {**BASE, **overrides, "evidence": evidence}


CELLS = {("degree", "arrival-departure-cap"): ("degree", "arrival-departure", "cap",
                                               "joins, leaves and edges"),
         ("chain", "replacement"): ("chain", "replacement"),
         ("uniform-2", "replacement"): ("pool branch",)}
EXAMPLES = [
    # The five fault-free send-path pins: chords on an 8-ring, seed 2007.
    case("loss", "static", "ring", loss=True), case("fifo", fifo=True),
    case("edge override", delay="edge"), case("on a bucket bound", delay="constant"),
    case("receiver absent", "complete with holes", "complete-network edges", complete=True,
         extras=True),
    # The twelve membership cells: attachment rule x churn on a 12-ring.
    *(case(*CELLS.get((rule, kind), ()), arrival=kind, attachment=rule, n=12, horizon=30.0,
           immortal="first", extras=True) for rule in ("uniform-2", "degree", "chain")
      for kind in ("arrival-departure", "arrival-departure-cap", "replacement", "static")),
    case("set branch", "immortals absent", n=30, arrival="replacement", immortal="absent",
         attachment="uniform-1", complete=True, notify_joins=False, horizon=8.0),
    case("everyone immortal", n=20, arrival="replacement", immortal="all"),
    case("uniform-6", n=40, arrival="replacement", attachment="uniform-6"),
    case("finite", "exponential", arrival="finite", delay="exponential", horizon=12.0),
    case("phased", "null sink", "migrating queue", n=26, arrival="phased", complete=True,
         sink="null", migrate=True, seed=3),
    case("phased", "counting sink", "silent leaves", arrival="phased", sink="counts",
         notify_leaves=False, loss=True),
    case("scheduled", "silent joins", "jsonl sink", n=10, arrival="scheduled", sink="jsonl",
         notify_joins=False, attachment="uniform-6", complete=True),
]
SCENARIOS = st.builds(
    case, seed=st.integers(0, 2**16), n=st.integers(3, 45), complete=st.booleans(),
    arrival=st.sampled_from(sorted(ARRIVALS)), attachment=st.sampled_from(sorted(RULES)),
    immortal=st.sampled_from(["none", "first", "absent", "all"]),
    delay=st.sampled_from(sorted(DELAYS)), sink=st.sampled_from(sorted(SINKS)),
    **dict.fromkeys(("loss", "fifo", "notify_leaves", "notify_joins", "extras", "migrate"),
                    st.booleans()))


@settings(max_examples=40)
@given(s=SCENARIOS)
@lambda test: reduce(lambda test, s: example(s=s)(test), EXAMPLES, test)
def test_the_core_generates_the_reference_runs(s):
    assert {key for e in EXAMPLES for key in e["evidence"]} == set(EVIDENCE)  # all covered
    with tempfile.TemporaryDirectory() as tmp:
        sink = SINKS[s["sink"]](path := Path(tmp) / "trace.jsonl")
        fast, model, left = run(s, True, sink)
        reference, _, ref_left = run(s, False)
        assert list(fast.trace) == [e for e in reference.trace if fast.trace.sink.retains(e[1])]
        assert fast.trace.summary() == dict(Counter(e[1] for e in reference.trace))
        if s["sink"] == "counts":  # counted in place, against counted by ``emit``
            counts = CountingSink()
            for event in reference.trace:
                counts.emit(TraceEvent(*event))
            assert sink.summary() == counts.summary()
        if s["sink"] == "jsonl":
            fast.trace.close()
            assert path.read_text().splitlines() == [
                json.dumps(encode_event(*e)) for e in reference.trace]
        assert [key for key in s["evidence"] if not EVIDENCE[key](fast, model)] == []
        assert left == ref_left
