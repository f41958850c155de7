"""Membership and message transport.

The :class:`Network` owns the two facts the paper's two dimensions talk
about: *who is present* (the entity dimension) and *who can talk to whom*
(the geography dimension).  Processes interact with it only through
:class:`repro.sim.node.Process` actions, so protocol code cannot cheat and
peek at global state.

State is slot-backed for scale (see ``docs/SCALING.md``): each entity
occupies a recycled slot in parallel arrays (process object, adjacency
set, pid), with a dense slot list for O(1) uniform sampling.  Pids remain
globally unique and are never reused — slots are storage, not identity.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from functools import partial
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.sim import trace as tr
from repro.sim.errors import MembershipError, SchedulingError, TopologyError
from repro.sim.latency import DelayModel, LossModel, NoLoss, UniformDelay
from repro.sim.messages import Message
from repro.sim.node import Process

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
        # Topology journals: incremental consumers (PartitionFault's
        # watchdog) subscribe to joins and new links instead of rescanning
        # the whole graph every tick.  Empty dict = zero hot-path cost.
        self._journals: dict[int, list[tuple[str, int, int]]] = {}
        self._journal_tokens = itertools.count()
        # Simulation-local message ids keep traces reproducible regardless
        # of how many messages other simulations in this Python process
        # have created.
        self._msg_ids = itertools.count()
        # Per-event path state (see "Per-event budget" in docs/SCALING.md):
        # per message kind, the ``net.sent`` counters and the delivery
        # label; the metric handles the path bumps in place, each bound
        # where the path first writes it (a snapshot shows an instrument
        # only once written); and the transport stream, fetched on the
        # first send — streams are derived from their name, so when does
        # not matter.
        self._kinds: dict[str, tuple[Counter, Counter, str]] = {}
        self._delays: Histogram | None = None
        self._delivered: Counter | None = None
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
        neighbor_ids = sorted(set(neighbors))
        # Probe per attachment point, O(|neighbors|): a set difference with
        # ``slot_of.keys()`` walks the whole membership (O(n²) to spawn n).
        # ``pid`` itself is absent here, so a self-loop fails this check.
        for other in neighbor_ids:
            if other not in slot_of:
                missing = [p for p in neighbor_ids if p not in slot_of]
                raise MembershipError(
                    f"cannot attach {pid} to absent processes {missing}"
                )
        # Take a slot (a recycled hole if there is one) and enter the indexes.
        dense = self._dense
        if self._free:
            slot = self._free.pop()
            self._procs[slot] = proc
            self._adj[slot] = set()
            self._slot_pid[slot] = pid
            self._dense_pos[slot] = len(dense)
        else:
            slot = len(self._procs)
            self._procs.append(proc)
            self._adj.append(set())
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
        journals = self._journals
        if neighbor_ids:
            # ``_link`` inlined: the endpoints are known present and distinct.
            adj = self._adj
            adj[slot].update(neighbor_ids)
            for other in neighbor_ids:
                adj[slot_of[other]].add(pid)
                if journals:
                    lo, hi = (pid, other) if pid < other else (other, pid)
                    for journal in journals.values():
                        journal.append(("edge", lo, hi))
        if journals:
            for journal in journals.values():
                journal.append(("join", pid, pid))
        sim = self._sim
        sim.metrics.inc("membership.joins")
        sim.trace.record(
            sim._now, tr.JOIN, entity=pid, degree=len(neighbor_ids),
            value=getattr(proc, "value", None),
            neighbors=tuple(neighbor_ids),
        )
        proc._alive = True
        proc.on_start()
        if not self.notify_joins:
            return
        # In complete mode every present process is a neighbor of the
        # newcomer, so everyone learns of the join.
        to_notify = neighbor_ids
        if self.complete:
            to_notify = [other for other in self._sorted if other != pid]
        for other in to_notify:
            other_slot = slot_of.get(other)
            if other_slot is not None:  # may have left during callbacks
                self._procs[other_slot].on_neighbor_join(pid)

    def remove_process(self, pid: int) -> Process:
        """Remove ``pid`` from the system; in-flight messages to it drop.

        On complete graphs with silent departures (``notify_leaves=False``)
        this is O(1): no neighbor list is materialised because nobody gets
        notified and no adjacency needs patching.  Otherwise it is
        O(degree) plus the notification fan-out.
        """
        slot_of = self._slot_of
        slot = slot_of.get(pid)
        if slot is None:
            raise MembershipError(f"process {pid} is not present")
        proc = self._procs[slot]
        proc._alive = False
        proc.on_stop()
        former_neighbors: list[int] = []
        all_adj = self._adj
        if self.complete:
            if self.notify_leaves:
                former_neighbors = list(self._sorted)
                del former_neighbors[bisect_left(former_neighbors, pid)]
        else:
            adj = all_adj[slot]
            if self.notify_leaves:
                former_neighbors = sorted(adj)
            for other in adj:
                all_adj[slot_of[other]].discard(pid)
        # Free the slot: out of the indexes, swap-removed from the dense list.
        del slot_of[pid]
        ordered = self._sorted
        del ordered[bisect_left(ordered, pid)]
        self._procs[slot] = None
        all_adj[slot] = None
        dense = self._dense
        pos = self._dense_pos[slot]
        last = dense.pop()
        if last != slot:
            dense[pos] = last
            self._dense_pos[last] = pos
        self._free.append(slot)
        sim = self._sim
        sim.metrics.inc("membership.leaves")
        sim.trace.record(sim._now, tr.LEAVE, entity=pid)
        if self.notify_leaves:
            for other in former_neighbors:
                other_slot = slot_of.get(other)
                if other_slot is not None:
                    self._procs[other_slot].on_neighbor_leave(pid)
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
        self._adj[self._slot_of[a]].add(b)
        self._adj[self._slot_of[b]].add(a)
        if self._journals:
            lo, hi = (a, b) if a < b else (b, a)
            for journal in self._journals.values():
                journal.append(("edge", lo, hi))

    def add_edge(self, a: int, b: int) -> None:
        """Create a link between two present processes (dynamic topology)."""
        slot_a = self._slot_of.get(a)
        slot_b = self._slot_of.get(b)
        if slot_a is None or slot_b is None:
            raise MembershipError(f"both endpoints of ({a}, {b}) must be present")
        if b in self._adj[slot_a]:
            return
        self._link(a, b)
        self._sim.trace.record(self._sim.now, "edge_up", a=min(a, b), b=max(a, b))
        self._procs[slot_a].on_neighbor_join(b)
        self._procs[slot_b].on_neighbor_join(a)

    def remove_edge(self, a: int, b: int) -> None:
        """Drop the link between ``a`` and ``b`` (dynamic topology)."""
        slot_a = self._slot_of.get(a)
        slot_b = self._slot_of.get(b)
        if slot_a is None or slot_b is None:
            raise MembershipError(f"both endpoints of ({a}, {b}) must be present")
        if b not in self._adj[slot_a]:
            return
        self._adj[slot_a].discard(b)
        self._adj[slot_b].discard(a)
        self._sim.trace.record(self._sim.now, "edge_down", a=min(a, b), b=max(a, b))
        self._procs[slot_a].on_neighbor_leave(b)
        self._procs[slot_b].on_neighbor_leave(a)

    def edges(self) -> set[tuple[int, int]]:
        """All current links as sorted pairs (analysis-layer view)."""
        result: set[tuple[int, int]] = set()
        for slot in self._dense:
            a = self._slot_pid[slot]
            for b in self._adj[slot]:
                result.add((a, b) if a < b else (b, a))
        return result

    def open_topology_journal(self) -> int:
        """Start recording joins and new links; returns a drain token.

        Incremental consumers (e.g. the partition watchdog) use this to
        observe topology growth in O(changes) instead of rescanning the
        whole graph.  Entries are ``("join", pid, pid)`` and
        ``("edge", lo, hi)`` tuples.
        """
        token = next(self._journal_tokens)
        self._journals[token] = []
        return token

    def drain_topology_journal(self, token: int) -> list[tuple[str, int, int]]:
        """Return and reset the entries recorded since the last drain."""
        entries = self._journals[token]
        self._journals[token] = []
        return entries

    def close_topology_journal(self, token: int) -> None:
        """Stop recording for ``token`` (idempotent)."""
        self._journals.pop(token, None)

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

    def _delay_for(self, a: int, b: int) -> DelayModel:
        return self._edge_delays.get((min(a, b), max(a, b)), self.delay_model)

    def send(self, message: Message) -> None:
        """Accept a message for delivery.

        Enforces the geography constraint: the receiver must be a current
        neighbor of the sender (unless the graph is complete).
        """
        sender, receiver = message.sender, message.receiver
        sender_slot = self._slot_of.get(sender)
        if sender_slot is None:
            raise MembershipError(f"sender {sender} is not present")
        if self.complete:
            if receiver == sender or receiver not in self._slot_of:
                raise TopologyError(f"process {sender} cannot reach {receiver}")
        elif receiver not in self._adj[sender_slot]:
            raise TopologyError(
                f"process {sender} cannot reach {receiver}: not a neighbor"
            )
        if self.resilience is not None:
            # The recovery layer may wrap the message (session id payload
            # key) and register it for acknowledgement tracking; control
            # traffic and retransmissions pass through unchanged.
            message = self.resilience.outbound(message)
        sim = self._sim
        kind = message.kind
        per_kind = self._kinds.get(kind)
        if per_kind is None:
            metrics = sim.metrics
            per_kind = self._kinds[kind] = (
                metrics.counter("net.sent"), metrics.counter(f"net.sent.{kind}"),
                f"deliver:{kind}",
            )
        sent, sent_kind, deliver_label = per_kind
        msg_id = next(self._msg_ids)
        sent.value += 1
        sent_kind.value += 1
        trace = sim.trace
        if tr.SEND in trace.count_only:
            trace.tallies[tr.SEND] += 1
        else:
            trace.record(
                sim._now, tr.SEND, msg_id=msg_id, msg_kind=kind,
                sender=sender, receiver=receiver,
            )
        rng = self._transport_rng
        if rng is None:
            rng = self._transport_rng = sim.rng_for("transport")
        if self.loss_model is not None and self.loss_model.is_lost(rng):
            self._lose(message, msg_id, "loss", counter="net.dropped.loss")
            return
        injector = self.fault_injector
        effect = (
            injector.send_effect(message)
            if injector is not None and injector.windows
            else None
        )
        if effect is not None and effect.drop:
            self._lose(
                message, msg_id, effect.reason or "fault",
                counter="net.dropped.fault",
            )
            return
        delay_model = (
            self._delay_for(sender, receiver) if self._edge_delays
            else self.delay_model
        )
        delay = delay_model.sample(rng)
        histogram = self._delays
        if histogram is None:
            histogram = self._delays = sim.metrics.histogram("net.delivery_delay")
        # Histogram.observe, inline (it defines the update; keep the two
        # in step).
        histogram.count += 1
        histogram.sum += delay
        histogram.counts[bisect_left(histogram.buckets, delay)] += 1
        delays = [delay]
        if effect is not None:
            if effect.extra_delay > 0.0:
                delays[0] += effect.extra_delay
                sim.metrics.observe("faults.extra_delay", effect.extra_delay)
            if effect.copies > 0:
                # Duplicates reuse the original msg_id (they *are* the same
                # message, redelivered) and draw their delays from the
                # fault stream so transport randomness is untouched.
                fault_rng = sim.rng_for("faults")
                sim.metrics.inc("faults.duplicates", effect.copies)
                delays += [delay_model.sample(fault_rng) for _ in range(effect.copies)]
        # Straight onto the queue, with the check ``Simulator.at`` makes.
        now = sim._now
        deliver = partial(self._deliver, message, msg_id)
        for delay in delays:
            deliver_at = now + delay
            if self.fifo:
                channel = (sender, receiver)
                deliver_at = max(deliver_at, self._last_delivery.get(channel, 0.0))
                self._last_delivery[channel] = deliver_at
            if deliver_at < now:
                raise SchedulingError(
                    f"cannot schedule at {deliver_at} < now ({now})"
                )
            sim.queue.push(deliver_at, deliver, label=deliver_label)

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

    def _deliver(self, message: Message, msg_id: int) -> None:
        sim = self._sim
        slot = self._slot_of.get(message.receiver)
        receiver = self._procs[slot] if slot is not None else None
        if receiver is None or not receiver._alive:
            sim.metrics.inc("net.dropped.receiver_absent")
            sim.trace.record(
                sim._now, tr.DROP, msg_id=msg_id, msg_kind=message.kind,
                sender=message.sender, receiver=message.receiver,
                reason="receiver_absent",
            )
            return
        delivered = self._delivered
        if delivered is None:
            delivered = self._delivered = sim.metrics.counter("net.delivered")
        delivered.value += 1
        hops = message.payload.get("hops")
        if isinstance(hops, int):
            sim.metrics.observe("net.delivery_hops", hops, buckets=HOP_BUCKETS)
        trace = sim.trace
        if tr.DELIVER in trace.count_only:
            trace.tallies[tr.DELIVER] += 1
        else:
            trace.record(
                sim._now, tr.DELIVER, msg_id=msg_id, msg_kind=message.kind,
                sender=message.sender, receiver=message.receiver,
            )
        if self.resilience is not None:
            # Acks are consumed and data is acknowledged + deduplicated
            # here, after the delivery is traced (the network did deliver
            # it) but before the protocol sees it.
            message = self.resilience.inbound(message)
            if message is None:
                return
        receiver.on_message(message)
