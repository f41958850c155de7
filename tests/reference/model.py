"""A naive executable model of the simulator core: the runs it must generate.

A run is who is present and who can reach whom.  This states how the core
generates runs — queue, run loop, network without faults, process API, churn
and attachment — in the plainest code: a sorted list, dicts, one ``send`` per
receiver, stdlib draws, a trace that keeps everything.  Never optimised, never
shipped; ``test_core_matches_reference.py`` holds the core to it.
"""

from bisect import bisect_right, insort
from functools import partial, partialmethod
from itertools import accumulate

from repro.obs.metrics import Metrics
from repro.sim.errors import MembershipError, TopologyError
from repro.sim.events import PRIORITY_MEMBERSHIP, PRIORITY_NORMAL
from repro.sim.latency import UniformDelay
from repro.sim.messages import Message
from repro.sim.rng import SeedSequence

HOP_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0)


class RefQueue:
    """A sorted list of ``[time, priority, seq, action, label, cancelled]``."""

    def __init__(self):
        self.events, self.seq = [], 0

    def push(self, time, action, *, priority=PRIORITY_NORMAL, label=""):
        event = [time, priority, self.seq, action, label, False]
        self.seq += 1
        insort(self.events, event)  # ``seq`` is unique: never reaches the action
        return event

    def pop(self):
        """The earliest event not cancelled (``None`` if there is none)."""
        while self.events and self.events[0][5]:
            self.events.pop(0)
        return self.events.pop(0) if self.events else None

    def peek_time(self):
        return next((event[0] for event in self.events if not event[5]), None)


class RefProcess:
    """The process API a protocol body sees: pid, value, stream, sends, timers
    and records.  The body defines every ``on_*`` hook."""

    def __init__(self, value=None):
        self.pid, self.value, self.sim, self.alive = -1, value, None, False
        self.timers, self.timer_ids = {}, 0

    @property
    def rng(self):
        return self.sim.rng_for(self.pid)

    def neighbors(self):
        return self.sim.neighbors(self.pid)

    def degree(self):
        return len(self.neighbors())

    def random_neighbor(self):
        return self.sim.random_neighbor(self.pid, self.rng)

    def send(self, receiver, kind, **payload):
        self.sim.send(Message(self.pid, receiver, kind, payload))

    def broadcast(self, kind, exclude=None, **payload):
        """A ``send`` of its own ``payload`` copy to each other neighbor, in order."""
        targets = [pid for pid in sorted(self.neighbors()) if pid != exclude]
        for receiver in targets:
            self.sim.send(Message(self.pid, receiver, kind, dict(payload)))
        return len(targets)

    def set_timer(self, delay, name, payload=None):
        self.timer_ids += 1
        action = partial(self.fire, self.timer_ids, name, payload)
        self.timers[self.timer_ids] = self.sim.queue.push(
            self.sim.now + delay, action, label="timer")
        return self.timer_ids

    def cancel_timer(self, timer_id):
        event = self.timers.pop(timer_id, None)
        if event is not None:
            event[5] = True

    def fire(self, timer_id, name, payload):
        """Only a present process hears its timer (it stays queued)."""
        self.timers.pop(timer_id, None)
        if self.alive:
            self.record("timer", name=name)
            self.on_timer(name, payload)

    def record(self, kind, **data):
        self.sim.record(kind, entity=self.pid, **data)


class RefSim:
    """Simulator and network in one (``sim.network is sim``).  ``present`` lists
    pids as uniform sampling indexes them: a leave moves the last one up."""

    def __init__(self, seed=0, delay_model=None, loss_model=None, complete=False,
                 fifo=False, notify_leaves=True, notify_joins=True):
        self.seeds, self.streams = SeedSequence(seed), {}
        self.queue, self.metrics, self.trace = RefQueue(), Metrics(), []
        self.now, self.events_executed = 0.0, 0
        self.delay_model = delay_model or UniformDelay()
        self.loss_model, self.complete, self.fifo = loss_model, complete, fifo
        self.notify_leaves, self.notify_joins = notify_leaves, notify_joins
        self.procs, self.adj, self.present = {}, {}, []
        self.edge_delays, self.last_delivery = {}, {}
        self.next_pid, self.next_msg, self.network = 0, 0, self

    def rng_for(self, key):
        """The named stream, or process ``key``'s."""
        if key not in self.streams:
            seeds = self.seeds if isinstance(key, str) else self.seeds.spawn("process")
            self.streams[key] = seeds.stream(key)
        return self.streams[key]

    def schedule(self, delay, action, *, priority=PRIORITY_NORMAL, label=""):
        return self.queue.push(self.now + delay, action, priority=priority, label=label)

    def run(self, until=None):
        while (time := self.queue.peek_time()) is not None and (until is None or time <= until):
            event = self.queue.pop()
            self.now, self.events_executed = event[0], self.events_executed + 1
            event[3]()
        self.now = self.now if until is None else until

    def record(self, kind, **data):
        self.trace.append((self.now, kind, data))

    def metrics_snapshot(self):
        for name, value in (("time", self.now), ("events_executed", self.events_executed),
                            ("population", len(self.procs)), ("trace_events", len(self.trace))):
            self.metrics.set_gauge(f"sim.{name}", value)
        return self.metrics.snapshot()

    def present_sorted(self):
        return sorted(self.procs)

    def spawn(self, proc, neighbors=()):
        """A join: the newcomer links to ``neighbors`` (on a complete network,
        to everyone present), starts, and those it attaches to hear of it."""
        pid = proc.pid = self.next_pid
        proc.sim, self.next_pid = self, pid + 1
        points = sorted(set(neighbors))
        self.procs[pid], self.adj[pid] = proc, set(points)
        self.present.append(pid)
        for other in points:
            self.adj[other].add(pid)
        self.metrics.inc("membership.joins")
        data = {"entity": pid, "degree": len(points), "value": proc.value,
                "neighbors": tuple(points)}
        if self.complete:
            data["complete"] = True
            data["degree"] = len(self.procs) - 1
        self.record("join", **data)
        proc.alive = True
        proc.on_start()
        if self.notify_joins:
            for other in sorted(self.neighbors(pid)) if self.complete else points:
                if other in self.procs:
                    self.procs[other].on_neighbor_join(pid)
        return proc

    def kill(self, pid):
        """A leave: the process stops, its links go, its neighbors hear."""
        proc = self.procs[pid]
        proc.alive = False
        proc.on_stop()
        former = sorted(self.neighbors(pid))
        for other in self.adj.pop(pid):
            self.adj[other].discard(pid)
        del self.procs[pid]
        self.present[self.present.index(pid)] = self.present[-1]
        self.present.pop()
        self.metrics.inc("membership.leaves")
        self.record("leave", entity=pid)
        for other in former if self.notify_leaves else ():
            if other in self.procs:
                self.procs[other].on_neighbor_leave(pid)

    def schedule_join(self, delay, make_process, choose):
        return self.schedule(delay, lambda: self.spawn(make_process(), choose(self.procs.keys())),
                             priority=PRIORITY_MEMBERSHIP, label="join")

    def schedule_leave(self, delay, pid):
        return self.schedule(delay, lambda: pid in self.procs and self.kill(pid),
                             priority=PRIORITY_MEMBERSHIP, label="leave")

    def neighbors(self, pid):
        if pid not in self.procs:
            raise MembershipError(f"process {pid} is not present")
        return frozenset(self.procs) - {pid} if self.complete else frozenset(self.adj[pid])

    def random_neighbor(self, pid, rng):
        """``rng.choice`` over the sorted neighbors; on a complete network one
        ``randrange`` over ``present`` but its last entry, which stands in for
        ``pid``."""
        neighbors = self.neighbors(pid)
        if not neighbors:
            return None
        if not self.complete:
            return rng.choice(sorted(neighbors))
        other = self.present[rng.randrange(len(self.present) - 1)]
        return self.present[-1] if other == pid else other

    def link(self, a, b, up):
        """Open (``up``) or close the contact between ``a`` and ``b``."""
        if (b in self.adj[a]) == up:
            return
        for x, y in ((a, b), (b, a)):
            self.adj[x].add(y) if up else self.adj[x].discard(y)
        self.record("edge_up" if up else "edge_down", a=min(a, b), b=max(a, b))
        for x, y in ((a, b), (b, a)):
            (self.procs[x].on_neighbor_join if up else self.procs[x].on_neighbor_leave)(y)

    add_edge, remove_edge = partialmethod(link, up=True), partialmethod(link, up=False)

    def edges(self):
        return {(a, b) for a in self.adj for b in self.adj[a] if a < b}

    def set_edge_delay(self, a, b, model):
        self.edge_delays[min(a, b), max(a, b)] = model

    def send(self, message):
        """Count and trace one message; lose it, or queue its delivery."""
        sender, receiver, kind = message.sender, message.receiver, message.kind
        if sender not in self.procs:
            raise MembershipError(f"sender {sender} is not present")
        if receiver not in self.neighbors(sender):
            reason = "" if self.complete else ": not a neighbor"
            raise TopologyError(f"process {sender} cannot reach {receiver}{reason}")
        fields = {"msg_id": self.next_msg, "msg_kind": kind, "sender": sender,
                  "receiver": receiver}
        self.next_msg += 1
        self.metrics.inc("net.sent")
        self.metrics.inc(f"net.sent.{kind}")
        self.record("send", **fields)
        rng = self.rng_for("transport")
        if self.loss_model is not None and self.loss_model.is_lost(rng):
            self.metrics.inc("net.dropped.loss")
            self.record("drop", **fields, reason="loss")
            self.record("msg_lost", msg_id=fields["msg_id"], msg_kind=kind, entity=sender,
                        sender=sender, receiver=receiver, reason="loss")
            return
        channel = (min(sender, receiver), max(sender, receiver))
        delay = self.edge_delays.get(channel, self.delay_model).sample(rng)
        self.metrics.observe("net.delivery_delay", delay)
        deliver_at = self.now + delay
        if self.fifo:
            deliver_at = max(deliver_at, self.last_delivery.get((sender, receiver), 0.0))
            self.last_delivery[sender, receiver] = deliver_at
        self.queue.push(deliver_at, partial(self.deliver, message, fields),
                        label=f"deliver:{kind}")

    def deliver(self, message, fields):
        receiver = self.procs.get(message.receiver)
        if receiver is None or not receiver.alive:
            self.metrics.inc("net.dropped.receiver_absent")
            self.record("drop", **fields, reason="receiver_absent")
            return
        self.metrics.inc("net.delivered")
        if isinstance(hops := message.payload.get("hops"), int):
            self.metrics.observe("net.delivery_hops", hops, buckets=HOP_BUCKETS)
        self.record("deliver", **fields)
        receiver.on_message(message)


def uniform(k):
    """Attachment rules map (sim, churn stream) to points: here ``k`` present
    pids, uniformly without replacement."""
    return lambda sim, rng: rng.sample(sorted(sim.procs), min(k, len(sim.procs)))


def degree_proportional(k):
    """``k`` present pids, each drawn with weight degree + 1 among those left."""
    def choose(sim, rng):
        candidates, chosen = sorted(sim.procs), []
        weights = [len(sim.neighbors(pid)) + 1 for pid in candidates]
        for _ in range(min(k, len(candidates))):
            cumulative = list(accumulate(weights))
            pick = bisect_right(cumulative, rng.random() * cumulative[-1])
            weights.pop(index := min(pick, len(weights) - 1))
            chosen.append(candidates.pop(index))
        return chosen
    return choose


def chain(sim, rng):
    """The newest present pid."""
    return sorted(sim.procs)[-1:]


class RefChurn:
    """Every churn model as one membership step.  Arrivals come at ``rate``
    (0: never), ``rng.expovariate(rate)`` apart; unless churn stopped or is
    calm, a replacing model has ``rng.choice(sorted(present - immortal))``
    leave (nobody joins if nobody could), a capped one at its cap refuses,
    and a newcomer joins, doomed when ``lifetimes`` is set.  ``phases`` is
    ``(storm, calm, start_calm)``; ``schedule`` lists ``(time, action)``."""

    def __init__(self, factory, attachment=uniform(2), *, rate=0.0, label="churn",
                 replaces=False, lifetimes=None, cap=None, remaining=None,
                 doom_initial=False, phases=None, schedule=()):
        self.factory, self.attachment = factory, attachment
        self.rate, self.label, self.replaces = rate, label, replaces
        self.lifetimes, self.cap, self.remaining = lifetimes, cap, remaining
        self.doom_initial, self.phases = doom_initial, phases
        self.schedule = sorted(schedule, key=lambda item: item[0])
        self.running = not (phases and phases[2])
        self.immortal, self.joins, self.leaves, self.rejected = set(), 0, 0, 0

    def install(self, sim, stop_at=None):
        self.sim, self.stop_at, self.rng = sim, stop_at, sim.rng_for("churn")
        for pid in sorted(set(sim.procs) - self.immortal) if self.doom_initial else ():
            self.push(self.lifetimes.sample(self.rng), partial(self.step, pid),
                      "churn:lifetime-leave")
        if self.phases:
            self.phase_ends = sim.now + self.phases[not self.running]
            self.push(max(0.0, self.phase_ends - sim.now), self.flip, "churn:phase-flip")
        for time, action in self.schedule:  # "join", or ("leave", pid)
            step = self.step if action == "join" else partial(self.step, action[1])
            sim.queue.push(time, step, priority=PRIORITY_MEMBERSHIP,
                           label="churn:scheduled-" + ("join" if action == "join" else "leave"))
        # A replacement needs somebody present; a finite process, arrivals.
        if (self.rate and self.running and self.remaining != 0
                and (sim.procs or self.phases or not self.replaces)):
            self.push(self.rng.expovariate(self.rate), self.step, self.label)

    def push(self, delay, action, label):
        self.sim.schedule(delay, action, priority=PRIORITY_MEMBERSHIP, label=label)

    def leave(self, pid):
        self.sim.kill(pid)
        self.leaves += 1
        self.sim.metrics.inc("churn.leaves")

    def step(self, leaver=None):
        sim, rng = self.sim, self.rng
        if leaver is not None:  # a lifetime ran out, or a scheduled leave
            if leaver in sim.procs:
                self.leave(leaver)
            return
        if not self.running or (self.stop_at is not None and sim.now >= self.stop_at):
            return
        arriving = True
        if self.replaces:
            candidates = sorted(set(sim.procs) - self.immortal)
            if candidates:
                self.leave(rng.choice(candidates))
            arriving = bool(candidates)
        elif self.cap is not None and len(sim.procs) >= self.cap:
            self.rejected += 1
            arriving = False
        if arriving:
            lifetime = None if self.lifetimes is None else self.lifetimes.sample(rng)
            proc = sim.spawn(self.factory(), self.attachment(sim, rng))
            self.joins += 1
            sim.metrics.inc("churn.joins")
            if lifetime is not None:
                self.push(lifetime, partial(self.step, proc.pid),
                          "churn:lifetime-leave")
            if self.remaining is not None:
                self.remaining -= 1
                if not self.remaining:
                    return
        if self.rate:
            self.push(rng.expovariate(self.rate), self.step, self.label)

    def flip(self):
        """Storm to calm or back, unless churn has stopped."""
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        self.running = not self.running
        self.phase_ends = self.sim.now + self.phases[not self.running]
        self.push(max(0.0, self.phase_ends - self.sim.now), self.flip, "churn:phase-flip")
        if self.running:
            self.push(self.rng.expovariate(self.rate), self.step, self.label)
