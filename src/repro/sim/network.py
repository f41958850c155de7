"""Membership and message transport.

The :class:`Network` owns the two facts the paper's two dimensions talk
about: *who is present* (the entity dimension) and *who can talk to whom*
(the geography dimension).  Processes interact with it only through
:class:`repro.sim.node.Process` actions, so protocol code cannot cheat and
peek at global state.

State is slot-backed for scale (see ``docs/SCALING.md``): each entity
occupies a recycled slot in parallel arrays (process object, adjacency
set, pid), with a dense slot list for O(1) uniform sampling.  On a complete
network an entity's adjacency set is ``None`` until an explicit link
touches it.  Pids remain globally unique and are never reused — slots are
storage, not identity.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.sim import trace as tr
from repro.sim.errors import MembershipError, SchedulingError, TopologyError
from repro.sim.latency import DelayModel, LossModel, NoLoss, UniformDelay
from repro.sim.messages import Message
from repro.sim.node import Process

# ``TraceEvent(time, kind, data)``, ``Message(...)`` and
# ``PendingDelivery(...)`` without a ``__new__`` frame: the join and leave
# events the membership path keeps itself, the messages of a fan-out and
# their queued deliveries.
_new_event = _new_message = _new_delivery = tuple.__new__

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import random

    from repro.obs.metrics import Counter, Histogram
    from repro.sim.scheduler import Simulator

#: Bucket bounds for the deliveries-by-hop-count histogram (wave depths,
#: flood frontiers); roughly Fibonacci so both shallow and deep networks
#: resolve.
HOP_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0)


class Network:
    """Tracks present processes, their links, and in-flight messages.

    Args:
        sim: owning simulator.
        delay_model: per-message transmission delay distribution.
        loss_model: per-message drop decision.
        complete: if ``True`` the communication graph is always complete
            (the ``G_complete`` knowledge class); explicit edges are ignored.
    """

    def __init__(
        self,
        sim: "Simulator",
        delay_model: DelayModel | None = None,
        loss_model: LossModel | None = None,
        complete: bool = False,
        fifo: bool = False,
        notify_leaves: bool = True,
        notify_joins: bool = True,
    ) -> None:
        self._sim = sim
        self.delay_model = delay_model or UniformDelay()
        #: ``None``: reliable channels, and no call per message to say so.
        self.loss_model = None if isinstance(loss_model, NoLoss) else loss_model
        self.complete = complete
        #: When False, departures are *silent*: neighbors get no
        #: ``on_neighbor_leave`` callback and must infer the crash from
        #: silence (failure detection).  This removes the perfect-detector
        #: assumption the default model makes.
        self.notify_leaves = notify_leaves
        #: When False, joins are silent too: no ``on_neighbor_join``
        #: callbacks fire when an entity arrives.  On complete graphs a
        #: join otherwise notifies the *entire* population (O(n)), which
        #: dominates at 10⁴⁺ entities; scale workloads whose protocols
        #: poll neighbors instead of reacting to arrivals turn this off.
        self.notify_joins = notify_joins
        #: FIFO channels: deliveries on each directed (sender, receiver)
        #: pair never overtake earlier ones, even when the sampled delays
        #: would reorder them.
        self.fifo = fifo
        self._last_delivery: dict[tuple[int, int], float] = {}
        #: The fault plane's single interposition point: when set (by
        #: :meth:`repro.faults.injector.FaultInjector.install`), every
        #: message accepted while one of its windows is open is offered to
        #: ``fault_injector.send_effect``, which may drop, delay or
        #: duplicate it.  ``None`` means faults are structurally absent —
        #: no extra branches, draws or events.
        self.fault_injector = None
        #: The resilience plane's interposition point: when set (by
        #: :meth:`repro.resilience.transport.ReliableTransport.install`),
        #: outbound messages may be wrapped with a session id and armed
        #: with retransmission timers, and inbound messages are
        #: acknowledged and deduplicated before the protocol sees them.
        #: ``None`` means the recovery layer is structurally absent.
        self.resilience = None
        # Slot-backed entity state.  ``_slot_of`` maps pid -> slot; the
        # parallel arrays are indexed by slot and holes are recycled
        # through the ``_free`` stack.  ``_dense`` lists occupied slots
        # contiguously (swap-remove) for O(1) uniform sampling; ``_sorted``
        # lists present pids in increasing order (see ``present_sorted``).
        self._slot_of: dict[int, int] = {}
        self._procs: list[Process | None] = []
        self._adj: list[set[int] | None] = []
        self._slot_pid: list[int] = []
        self._free: list[int] = []
        self._dense: list[int] = []
        self._dense_pos: list[int] = []
        self._sorted: list[int] = []
        self._edge_delays: dict[tuple[int, int], DelayModel] = {}
        # Simulation-local message ids keep traces reproducible regardless
        # of how many messages other simulations in this Python process
        # have created.
        self._msg_ids = itertools.count()
        # Per-event path state (see "Per-event budget" in docs/SCALING.md):
        # per message kind, the ``net.sent`` counters, the delivery label
        # and the trace sink's own send and deliver counters (``None``
        # unless the sink counts by message kind); the metric handles the
        # path bumps in place, each bound where the path first writes it
        # (a snapshot shows an instrument only once written); and the
        # transport stream, fetched on the first send — streams are
        # derived from their name, so when does not matter.
        self._kinds: dict[
            str, tuple[Counter, Counter, str, Counter | None, Counter | None]
        ] = {}
        self._delays: Histogram | None = None
        self._delivered: Counter | None = None
        self._joined: Counter | None = None
        self._left: Counter | None = None
        self._transport_rng: "random.Random | None" = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def present(self) -> frozenset[int]:
        """Ids of processes currently in the system (omniscient view —
        available to the analysis layer, never to protocol code).

        An O(n) snapshot: every call copies the whole membership.  Nothing
        that runs per event may call it; use :meth:`present_sorted`,
        :meth:`population`, :meth:`degree`, :meth:`is_present` or
        :meth:`sample_present` (see ``docs/SCALING.md``).
        """
        return frozenset(self._slot_of)

    def present_sorted(self) -> Sequence[int]:
        """Present pids in increasing order, O(1) to hand over.

        What a per-event step indexes or draws from where it used to build
        ``sorted(network.present())``: the same sequence, so
        ``rng.choice``/``rng.sample`` over it consume the same draws.  A
        read-only live view, valid only until the next join or leave —
        copy it (``list(...)``) to keep it, never mutate it.
        """
        return self._sorted

    def population(self) -> int:
        """Number of processes currently present (O(1))."""
        return len(self._slot_of)

    def process(self, pid: int) -> Process:
        """Return the live process object for ``pid``."""
        try:
            proc = self._procs[self._slot_of[pid]]
        except KeyError:
            raise MembershipError(f"process {pid} is not present") from None
        assert proc is not None
        return proc

    def is_present(self, pid: int) -> bool:
        return pid in self._slot_of

    def add_process(self, proc: Process, neighbors: Iterable[int] = ()) -> None:
        """Insert ``proc`` and connect it to ``neighbors``.

        The caller (simulator/churn model) must have assigned ``proc.pid``.
        """
        pid = proc.pid
        slot_of = self._slot_of
        if pid in slot_of:
            raise MembershipError(f"process {pid} is already present")
        neighbor_ids = sorted(neighbors)
        if neighbor_ids:
            adjacent: set[int] | None = set(neighbor_ids)
            # Probe per attachment point, O(|neighbors|): the keys view's
            # ``>=`` looks each point up, where a set difference with
            # ``slot_of.keys()`` walks the whole membership (O(n²) to spawn
            # n).  ``pid`` itself is absent here, so a self-loop fails.
            if not slot_of.keys() >= adjacent:
                missing = sorted(p for p in adjacent if p not in slot_of)
                raise MembershipError(
                    f"cannot attach {pid} to absent processes {missing}"
                )
            if len(adjacent) < len(neighbor_ids):  # a point given twice
                neighbor_ids = sorted(adjacent)
        else:
            # A complete network answers neighbors from completeness: an
            # entity holds an adjacency set only once an explicit link
            # touches it (``None`` reads as empty).
            adjacent = None if self.complete else set()
        # Take a slot (a recycled hole if there is one) and enter the indexes.
        dense = self._dense
        if self._free:
            slot = self._free.pop()
            self._procs[slot] = proc
            self._adj[slot] = adjacent
            self._slot_pid[slot] = pid
            self._dense_pos[slot] = len(dense)
        else:
            slot = len(self._procs)
            self._procs.append(proc)
            self._adj.append(adjacent)
            self._slot_pid.append(pid)
            self._dense_pos.append(len(dense))
        dense.append(slot)
        slot_of[pid] = slot
        # Pids are allocated monotonically, so a join is an append; only
        # an explicit out-of-order ``spawn(pid=...)`` pays the insort.
        ordered = self._sorted
        if not ordered or pid > ordered[-1]:
            ordered.append(pid)
        else:
            insort(ordered, pid)
        if neighbor_ids:
            # ``_link`` inlined: the endpoints are known present and distinct.
            adj = self._adj
            for other in neighbor_ids:
                other_slot = slot_of[other]
                other_adj = adj[other_slot]
                if other_adj is None:  # complete: its first explicit link
                    adj[other_slot] = {pid}
                else:
                    other_adj.add(pid)
        sim = self._sim
        joined = self._joined
        if joined is None:
            joined = self._joined = sim.metrics.counter("membership.joins")
        joined.value += 1
        trace = sim.trace
        value, neighbors = getattr(proc, "value", None), tuple(neighbor_ids)
        # ``(retained, observed, counted, contact)``, once the log has asked
        # its sink about joins (its first join goes through ``record``).
        policy = trace._policy.get(tr.JOIN)
        if policy is None or policy[0] or policy[1]:  # the event is kept or read
            data = {
                "entity": pid, "degree": len(neighbor_ids),
                "value": value, "neighbors": neighbors,
            }
            if self.complete:  # the join attaches to everyone present
                data["complete"] = True
                data["degree"] = len(slot_of) - 1
        if policy is None or policy[1]:
            trace.record(sim._now, tr.JOIN, **data)
        else:
            # What ``TraceLog.record`` does with a kind the sink does not
            # observe, inline (a join names no message kind, so nothing is
            # counted): the tally, the fold and, if the sink retains joins,
            # the event — no frame.
            trace.tallies[tr.JOIN] += 1
            membership = trace.membership
            if neighbors:
                membership.links[len(membership.kinds)] = neighbors
            membership.times.append(sim._now)
            membership.kinds.append(tr.JOINED_ALL if self.complete else tr.JOINED)
            membership.entities.append(pid)
            membership.values.append(value)
            if policy[0]:
                trace._events.append(
                    _new_event(tr.TraceEvent, (sim._now, tr.JOIN, data))
                )
        proc._alive = True
        if proc._starts:
            proc.on_start()
        if not self.notify_joins:
            return
        # In complete mode every present process is a neighbor of the
        # newcomer, so everyone learns of the join.
        to_notify = neighbor_ids
        if self.complete:
            to_notify = [other for other in self._sorted if other != pid]
        procs = self._procs
        for other in to_notify:
            other_slot = slot_of.get(other)
            if other_slot is not None:  # may have left during callbacks
                neighbor = procs[other_slot]
                if neighbor._hears_joins:
                    neighbor.on_neighbor_join(pid)

    def remove_process(self, pid: int) -> Process:
        """Remove ``pid`` from the system; in-flight messages to it drop.

        On complete graphs with silent departures (``notify_leaves=False``)
        this is O(explicit links): no neighbor list is materialised because
        nobody gets notified.  Otherwise it is O(degree) plus the
        notification fan-out.  The leaver's explicit links (attachment
        points, :meth:`add_edge`) are unlinked on every network.
        """
        slot_of = self._slot_of
        slot = slot_of.get(pid)
        if slot is None:
            raise MembershipError(f"process {pid} is not present")
        procs = self._procs
        proc = procs[slot]
        proc._alive = False
        if proc._stops:
            proc.on_stop()
        sim = self._sim
        # A departed pid never draws again (a rejoin is a new pid).
        sim._process_streams.pop(pid, None)
        former_neighbors: list[int] = []
        all_adj = self._adj
        adj = all_adj[slot]
        if self.notify_leaves:
            if self.complete:
                former_neighbors = list(self._sorted)
                del former_neighbors[bisect_left(former_neighbors, pid)]
            else:
                former_neighbors = sorted(adj)
        for other in adj or ():
            all_adj[slot_of[other]].discard(pid)
        # Free the slot: out of the indexes, swap-removed from the dense list.
        del slot_of[pid]
        ordered = self._sorted
        del ordered[bisect_left(ordered, pid)]
        procs[slot] = None
        all_adj[slot] = None
        dense = self._dense
        pos = self._dense_pos[slot]
        last = dense.pop()
        if last != slot:
            dense[pos] = last
            self._dense_pos[last] = pos
        self._free.append(slot)
        left = self._left
        if left is None:
            left = self._left = sim.metrics.counter("membership.leaves")
        left.value += 1
        trace = sim.trace
        policy = trace._policy.get(tr.LEAVE)
        if policy is None or policy[1]:
            trace.record(sim._now, tr.LEAVE, entity=pid)
        else:
            # ``TraceLog.record``, inline, as for a join.
            trace.tallies[tr.LEAVE] += 1
            membership = trace.membership
            membership.times.append(sim._now)
            membership.kinds.append(tr.LEFT)
            membership.entities.append(pid)
            membership.values.append(None)
            if policy[0]:
                trace._events.append(
                    _new_event(tr.TraceEvent, (sim._now, tr.LEAVE, {"entity": pid}))
                )
        if self.notify_leaves:
            for other in former_neighbors:
                other_slot = slot_of.get(other)
                if other_slot is not None:
                    neighbor = procs[other_slot]
                    if neighbor._hears_leaves:
                        neighbor.on_neighbor_leave(pid)
        return proc

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def neighbors(self, pid: int) -> frozenset[int]:
        """Current neighbor set of ``pid``."""
        slot = self._slot_of.get(pid)
        if slot is None:
            raise MembershipError(f"process {pid} is not present")
        if self.complete:
            return frozenset(p for p in self._slot_of if p != pid)
        return frozenset(self._adj[slot])

    def degree(self, pid: int) -> int:
        """Current degree of ``pid`` (O(1); no neighbor set is built)."""
        slot = self._slot_of.get(pid)
        if slot is None:
            raise MembershipError(f"process {pid} is not present")
        if self.complete:
            return len(self._slot_of) - 1
        return len(self._adj[slot])

    def has_edge(self, a: int, b: int) -> bool:
        """True iff ``a`` and ``b`` are currently linked (``False`` when
        either endpoint is absent).  On complete graphs every present
        pair is linked."""
        if self.complete:
            return a != b and a in self._slot_of and b in self._slot_of
        slot = self._slot_of.get(a)
        if slot is None:
            return False
        return b in self._adj[slot]

    def _link(self, a: int, b: int) -> None:
        if a == b:
            raise TopologyError(f"self-loop on process {a}")
        adj = self._adj
        for slot, other in ((self._slot_of[a], b), (self._slot_of[b], a)):
            if adj[slot] is None:  # complete: its first explicit link
                adj[slot] = {other}
            else:
                adj[slot].add(other)

    def add_edge(self, a: int, b: int) -> None:
        """Create a link between two present processes (dynamic topology)."""
        slot_a = self._slot_of.get(a)
        slot_b = self._slot_of.get(b)
        if slot_a is None or slot_b is None:
            raise MembershipError(f"both endpoints of ({a}, {b}) must be present")
        if b in (self._adj[slot_a] or ()):
            return
        self._link(a, b)
        self._sim.trace.record(self._sim.now, tr.EDGE_UP, a=min(a, b), b=max(a, b))
        self._procs[slot_a].on_neighbor_join(b)
        self._procs[slot_b].on_neighbor_join(a)

    def remove_edge(self, a: int, b: int) -> None:
        """Drop the link between ``a`` and ``b`` (dynamic topology)."""
        slot_a = self._slot_of.get(a)
        slot_b = self._slot_of.get(b)
        if slot_a is None or slot_b is None:
            raise MembershipError(f"both endpoints of ({a}, {b}) must be present")
        adj_a = self._adj[slot_a]
        if adj_a is None or b not in adj_a:
            return
        adj_a.discard(b)
        self._adj[slot_b].discard(a)
        self._sim.trace.record(self._sim.now, tr.EDGE_DOWN, a=min(a, b), b=max(a, b))
        self._procs[slot_a].on_neighbor_leave(b)
        self._procs[slot_b].on_neighbor_leave(a)

    def edges(self) -> set[tuple[int, int]]:
        """All current links as sorted pairs (analysis-layer view)."""
        result: set[tuple[int, int]] = set()
        for slot in self._dense:
            adj = self._adj[slot]
            if adj:
                a = self._slot_pid[slot]
                for b in adj:
                    result.add((a, b) if a < b else (b, a))
        return result

    # ------------------------------------------------------------------
    # Sampling (scale workloads)
    # ------------------------------------------------------------------

    def sample_present(
        self, rng: "random.Random", exclude: int | None = None
    ) -> int | None:
        """Uniformly sample a present pid in O(1); ``None`` if none qualify.

        Deterministic for a fixed seed and schedule: the underlying dense
        slot order depends only on the join/leave history.
        """
        count = len(self._dense)
        if exclude is not None and exclude in self._slot_of:
            if count <= 1:
                return None
            slot = self._dense[rng.randrange(count - 1)]
            pid = self._slot_pid[slot]
            if pid == exclude:
                pid = self._slot_pid[self._dense[count - 1]]
            return pid
        if count == 0:
            return None
        return self._slot_pid[self._dense[rng.randrange(count)]]

    def sample_neighbor(self, pid: int, rng: "random.Random") -> int | None:
        """Uniformly sample a current neighbor of ``pid`` (``None`` if it
        has none).  O(1) on complete graphs; O(d log d) on sparse ones
        (the neighbor set is sorted so draws are seed-deterministic)."""
        slot = self._slot_of.get(pid)
        if slot is None:
            raise MembershipError(f"process {pid} is not present")
        if self.complete:
            return self.sample_present(rng, exclude=pid)
        adj = self._adj[slot]
        if not adj:
            return None
        return rng.choice(sorted(adj))

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def set_edge_delay(self, a: int, b: int, model: DelayModel) -> None:
        """Override the delay model on one link (adversary constructions)."""
        self._edge_delays[(min(a, b), max(a, b))] = model

    def send(
        self, message: Message, receivers: Iterable[int] | None = None
    ) -> None:
        """Accept a message, or a fan-out of one, for delivery.

        With ``receivers`` the message is a template (its ``receiver`` is
        ignored): each receiver, in order, gets its own ``Message(sender,
        receiver, kind, dict(payload))``, sent exactly as one ``send`` per
        receiver would send it — the same checks, ids, counters, trace
        records, draws and queued deliveries in the same order.  What the
        messages of one call share (the kind's counter handles, the
        resilience test, the transport stream, the default delay model) is
        looked up once per call.

        Enforces the geography constraint: each receiver must be a current
        neighbor of the sender (unless the graph is complete).  The sender
        is checked once per call; a receiver that fails the check raises
        after the messages before it were sent.
        """
        sender = message.sender
        sender_slot = self._slot_of.get(sender)
        if sender_slot is None:
            raise MembershipError(f"sender {sender} is not present")
        if receivers is None:
            receivers = (message.receiver,)
            payload = None
        else:
            payload = message.payload
        kind = message.kind
        sim = self._sim
        now = sim._now
        trace = sim.trace
        counted = tr.SEND in trace.count_only
        adjacent = None if self.complete else self._adj[sender_slot]
        resilience = self.resilience
        # The recovery layer may wrap a message (session id payload key)
        # and register it for acknowledgement tracking; control traffic
        # and retransmissions pass through unchanged.  A kind it passes
        # through both ways without a session id (heartbeats) skips the
        # call.
        wraps = resilience is not None and (
            kind not in resilience.passthrough or "res_rid" in message.payload
        )
        rng = self._transport_rng
        if rng is None:
            rng = self._transport_rng = sim.rng_for("transport")
        injector = self.fault_injector
        send_effect = (
            injector.send_effect
            if injector is not None and injector.windows else None
        )
        # ``UniformDelay.sample`` (``rng.uniform``'s own expression) is
        # drawn inline for the default model; any other model draws in
        # its ``sample``.
        uniform = self.delay_model
        if type(uniform) is UniformDelay:
            low = uniform.low
            span = uniform.high - low
        else:
            uniform = None
        sent = None
        for receiver in receivers:
            if payload is not None:
                message = _new_message(
                    Message, (sender, receiver, kind, dict(payload))
                )
            if adjacent is None:
                if receiver == sender or receiver not in self._slot_of:
                    raise TopologyError(
                        f"process {sender} cannot reach {receiver}"
                    )
            elif receiver not in adjacent:
                raise TopologyError(
                    f"process {sender} cannot reach {receiver}: not a neighbor"
                )
            if wraps:
                message = resilience.outbound(message)
            if sent is None:
                # Bound at the first accepted message: an instrument shows
                # in a snapshot only once written.
                (sent, sent_kind, deliver_label, sink_sent,
                 sink_delivered) = self._kinds.get(kind) or self._bind_kind(kind)
            msg_id = next(self._msg_ids)
            sent.value += 1
            sent_kind.value += 1
            if counted:
                trace.tallies[tr.SEND] += 1
                if sink_sent is not None:
                    sink_sent.value += 1
            else:
                trace.record(
                    now, tr.SEND, msg_id=msg_id, msg_kind=kind,
                    sender=sender, receiver=receiver,
                )
            if self.loss_model is not None and self.loss_model.is_lost(rng):
                self._lose(message, msg_id, "loss", counter="net.dropped.loss")
                continue
            effect = send_effect(message) if send_effect is not None else None
            if effect is not None and effect.drop:
                self._lose(
                    message, msg_id, effect.reason or "fault",
                    counter="net.dropped.fault",
                )
                continue
            delay_model = (
                self._edge_delays.get(
                    (sender, receiver) if sender < receiver
                    else (receiver, sender),
                    self.delay_model,
                )
                if self._edge_delays else self.delay_model
            )
            if delay_model is uniform:
                delay = low + span * rng.random()
            else:
                delay = delay_model.sample(rng)
            histogram = self._delays
            if histogram is None:
                histogram = self._delays = sim.metrics.histogram(
                    "net.delivery_delay"
                )
            # Histogram.observe, inline (it defines the update; keep the
            # two in step).
            histogram.count += 1
            histogram.sum += delay
            histogram.counts[bisect_left(histogram.buckets, delay)] += 1
            delays = [delay]
            if effect is not None:
                if effect.extra_delay > 0.0:
                    delays[0] += effect.extra_delay
                    sim.metrics.observe("faults.extra_delay", effect.extra_delay)
                if effect.copies > 0:
                    # Duplicates reuse the original msg_id (they *are* the
                    # same message, redelivered) and draw their delays from
                    # the fault stream so transport randomness is untouched.
                    fault_rng = sim.rng_for("faults")
                    sim.metrics.inc("faults.duplicates", effect.copies)
                    for _ in range(effect.copies):
                        delays.append(
                            low + span * fault_rng.random()
                            if delay_model is uniform
                            else delay_model.sample(fault_rng)
                        )
            # Straight onto the queue, with the check ``Simulator.at``
            # makes.  ``sim.queue.push`` is looked up per delivery: a push
            # may migrate the queue to another backend, which rebinds it.
            action = _new_delivery(
                PendingDelivery, (self, message, msg_id, sink_delivered)
            )
            for delay in delays:
                deliver_at = now + delay
                if self.fifo:
                    channel = (sender, receiver)
                    deliver_at = max(
                        deliver_at, self._last_delivery.get(channel, 0.0)
                    )
                    self._last_delivery[channel] = deliver_at
                if deliver_at < now:
                    raise SchedulingError(
                        f"cannot schedule at {deliver_at} < now ({now})"
                    )
                sim.queue.push(deliver_at, action, label=deliver_label)

    def _bind_kind(
        self, kind: str
    ) -> tuple[Counter, Counter, str, Counter | None, Counter | None]:
        """Bind the per-kind handles ``send`` writes (once per kind)."""
        metrics = self._sim.metrics
        sink = self._sim.trace.sink
        handles = self._kinds[kind] = (
            metrics.counter("net.sent"), metrics.counter(f"net.sent.{kind}"),
            f"deliver:{kind}", sink.counter(tr.SEND, kind),
            sink.counter(tr.DELIVER, kind),
        )
        return handles

    def _lose(
        self, message: Message, msg_id: int, reason: str, counter: str
    ) -> None:
        """Record a message lost in transit: the classic ``drop`` plus a
        ``msg_lost`` event owned by the sender, so causal analysis can tell
        "sent and lost" apart from "never sent"."""
        sim = self._sim
        now = sim._now
        trace = sim.trace
        sim.metrics.inc(counter)
        trace.record(
            now, tr.DROP, msg_id=msg_id, msg_kind=message.kind,
            sender=message.sender, receiver=message.receiver, reason=reason,
        )
        trace.record(
            now, tr.MSG_LOST, msg_id=msg_id, msg_kind=message.kind,
            entity=message.sender, sender=message.sender,
            receiver=message.receiver, reason=reason,
        )


class PendingDelivery(tuple):
    """A message in flight: the action its delivery event runs.

    A ``(network, message, msg_id, sink_delivered)`` tuple built in one
    ``tuple.__new__``, like :class:`~repro.sim.messages.Message`: one
    object per queued delivery, where a ``partial`` of a bound method
    costs three.  Calling it delivers the message, or drops it if its
    receiver has left.
    """

    __slots__ = ()

    def __call__(self) -> None:
        network, message, msg_id, sink_delivered = self
        sim = network._sim
        slot = network._slot_of.get(message.receiver)
        receiver = network._procs[slot] if slot is not None else None
        if receiver is None or not receiver._alive:
            sim.metrics.inc("net.dropped.receiver_absent")
            sim.trace.record(
                sim._now, tr.DROP, msg_id=msg_id, msg_kind=message.kind,
                sender=message.sender, receiver=message.receiver,
                reason="receiver_absent",
            )
            return
        delivered = network._delivered
        if delivered is None:
            delivered = network._delivered = sim.metrics.counter("net.delivered")
        delivered.value += 1
        hops = message.payload.get("hops")
        if hops is not None and isinstance(hops, int):
            sim.metrics.observe("net.delivery_hops", hops, buckets=HOP_BUCKETS)
        trace = sim.trace
        if tr.DELIVER in trace.count_only:
            trace.tallies[tr.DELIVER] += 1
            if sink_delivered is not None:
                sink_delivered.value += 1
        else:
            trace.record(
                sim._now, tr.DELIVER, msg_id=msg_id, msg_kind=message.kind,
                sender=message.sender, receiver=message.receiver,
            )
        resilience = network.resilience
        if resilience is not None and (
            message.kind not in resilience.passthrough
            or "res_rid" in message.payload
        ):
            # Acks are consumed and data is acknowledged + deduplicated
            # here, after the delivery is traced (the network did deliver
            # it) but before the protocol sees it.  The check above is the
            # one ``Network.send`` makes.
            message = resilience.inbound(message)
            if message is None:
                return
        if receiver._hears_messages:
            receiver.on_message(message)
