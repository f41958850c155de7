"""The reliable-delivery session layer.

:class:`ReliableTransport` interposes on the two ends of
:class:`repro.sim.network.Network` transport — ``send`` (outbound) and
each queued ``PendingDelivery`` (inbound) — and turns the fire-and-forget
channel every protocol uses into an acknowledged, deduplicated,
retransmitting session:

* **outbound** — each tracked message is wrapped with a session id
  (``res_rid`` in the payload), registered as pending, and armed with a
  retransmission timer (exponential backoff + deterministic jitter from
  the dedicated ``"resilience"`` RNG stream).
* **inbound** — data messages are acknowledged (``RES_ACK``) and
  deduplicated by session id before the protocol sees them; acks cancel
  the pending timer and feed the per-link Jacobson RTT estimator (Karn's
  rule: only unretransmitted deliveries produce samples).
* **give-up** — after ``max_retries + 1`` unacknowledged transmissions the
  message is abandoned: a ``delivery_abandoned`` trace event is recorded
  and the *sender's* process gets an
  :meth:`~repro.sim.node.Process.on_delivery_abandoned` callback so
  protocols can degrade gracefully instead of hanging.  The waiting peer
  on the other side of the dead link is unblocked by failure detection,
  not by the transport — abandonment is strictly sender-side knowledge.
* **circuit breaker** — with ``breaker_threshold > 0``, repeated delivery
  timeouts on a link trip a breaker that holds further *retransmissions*
  (never first sends, which would re-enter ``Network.send``) until a
  cooldown elapses, then probes half-open with a single retransmission.

Everything the layer does is visible: ``resilience.*`` metrics obey the
ledger ``resilience.timer_fired == resilience.retransmits +
resilience.abandoned + resilience.unreachable + resilience.breaker_blocked``
(every timer fire ends in exactly one of those outcomes), and
``resilience.acks_received <= resilience.sends`` (first acks only).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from repro.resilience.spec import ResilienceSpec, retry_delay
from repro.sim import trace as tr
from repro.sim.errors import ConfigurationError
from repro.sim.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import random

    from repro.obs.metrics import Metrics
    from repro.sim.scheduler import Simulator

#: Payload key carrying the session id on wrapped messages.
RID_KEY = "res_rid"

#: The acknowledgement message kind (never shown to protocols).
ACK = "RES_ACK"

#: Breaker trace event kinds (low-volume: retained under every sink).
BREAKER_OPEN = "breaker_open"
BREAKER_HALF_OPEN = "breaker_half_open"
BREAKER_CLOSE = "breaker_close"


class LinkRtt:
    """Jacobson/Karels RTT estimation for one (undirected) link."""

    ALPHA = 0.125
    BETA = 0.25

    __slots__ = ("srtt", "rttvar", "samples")

    def __init__(self) -> None:
        self.srtt: float | None = None
        self.rttvar = 0.0
        self.samples = 0

    def sample(self, rtt: float) -> None:
        """Fold one round-trip measurement into the estimate."""
        self.samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
            return
        self.rttvar = (1.0 - self.BETA) * self.rttvar + self.BETA * abs(
            self.srtt - rtt
        )
        self.srtt = (1.0 - self.ALPHA) * self.srtt + self.ALPHA * rtt

    def rto(self) -> float | None:
        """The classic ``SRTT + 4 * RTTVAR`` timeout (caller clamps)."""
        if self.srtt is None:
            return None
        return self.srtt + 4.0 * self.rttvar


class CircuitBreaker:
    """Per-link breaker: closed → open on repeated timeouts → half-open
    probe after a cooldown → closed again on the first acknowledgement."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    __slots__ = ("threshold", "cooldown", "state", "failures", "opened_at",
                 "trips")

    def __init__(self, threshold: int, cooldown: float) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.trips = 0

    def record_failure(self, now: float) -> bool:
        """Count one delivery timeout; return ``True`` if this trip opened
        the breaker (including a failed half-open probe re-opening it)."""
        if self.state == self.HALF_OPEN:
            self.state = self.OPEN
            self.opened_at = now
            self.trips += 1
            return True
        if self.state == self.CLOSED:
            self.failures += 1
            if self.failures >= self.threshold:
                self.state = self.OPEN
                self.opened_at = now
                self.trips += 1
                return True
        return False

    def record_success(self) -> bool:
        """An ack arrived over this link; return ``True`` if the breaker
        transitioned back to closed from open/half-open."""
        transitioned = self.state != self.CLOSED
        self.state = self.CLOSED
        self.failures = 0
        return transitioned

    def blocked_for(self, now: float) -> float:
        """Remaining cooldown (``<= 0`` means a probe may go out)."""
        return self.opened_at + self.cooldown - now


class _Pending:
    """Book-keeping for one in-flight tracked message."""

    __slots__ = ("rid", "original", "wrapped", "attempts", "timer",
                 "last_sent", "retransmitted")

    def __init__(self, rid: int, original: Message, wrapped: Message,
                 sent_at: float) -> None:
        self.rid = rid
        self.original = original
        self.wrapped = wrapped
        self.attempts = 1
        self.timer: Any = None
        self.last_sent = sent_at
        self.retransmitted = False


def _link_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class ReliableTransport:
    """The deterministic recovery layer between protocols and the network.

    Construct with a :class:`ResilienceSpec` and :meth:`install` on a live
    simulator; the trial runners do both through
    :func:`install_resilience`.
    """

    def __init__(self, spec: ResilienceSpec) -> None:
        if not spec.enabled:
            raise ConfigurationError(
                "cannot install a disabled ResilienceSpec; "
                "ResilienceSpec.resolve() returns None for it"
            )
        self.spec = spec
        #: The kinds :meth:`outbound` and :meth:`inbound` both return
        #: unchanged when the payload carries no ``RID_KEY``: the excluded
        #: kinds, never acks.  ``Network.send``/``PendingDelivery`` skip both
        #: calls for such a message.
        self.passthrough = frozenset(spec.exclude_kinds) - {ACK}
        # Bound by :meth:`install`: the simulator, its metrics and the
        # ``"resilience"`` stream, read on every message and timer.
        self._sim: "Simulator | None" = None
        self._metrics: "Metrics | None" = None
        self._rng: "random.Random | None" = None
        self._next_rid = 0
        self._pending: dict[int, _Pending] = {}
        self._seen: set[int] = set()
        self._rtt: dict[tuple[int, int], LinkRtt] = {}
        self._breakers: dict[tuple[int, int], CircuitBreaker] = {}
        self.abandoned = 0

    # ------------------------------------------------------------------
    # Installation & environment
    # ------------------------------------------------------------------

    def install(self, sim: "Simulator") -> "ReliableTransport":
        """Attach to ``sim.network`` (exactly one layer per simulator)."""
        if sim.network.resilience is not None:
            raise ConfigurationError(
                "a resilience layer is already installed on this simulator"
            )
        self._sim = sim
        self._metrics = sim.metrics
        self._rng = sim.rng_for("resilience")
        sim.network.resilience = self
        return self

    @property
    def pending_count(self) -> int:
        """Messages currently awaiting acknowledgement."""
        return len(self._pending)

    def link_rtt(self, a: int, b: int) -> LinkRtt | None:
        """The RTT estimator for link ``{a, b}`` (``None`` if no samples)."""
        return self._rtt.get(_link_key(a, b))

    def breaker(self, a: int, b: int) -> CircuitBreaker | None:
        """The circuit breaker for link ``{a, b}`` (``None`` until used)."""
        return self._breakers.get(_link_key(a, b))

    def _breaker_for(self, link: tuple[int, int]) -> CircuitBreaker | None:
        if self.spec.breaker_threshold <= 0:
            return None
        breaker = self._breakers.get(link)
        if breaker is None:
            breaker = CircuitBreaker(
                self.spec.breaker_threshold, self.spec.breaker_cooldown
            )
            self._breakers[link] = breaker
        return breaker

    # ------------------------------------------------------------------
    # Outbound interposition (Network.send)
    # ------------------------------------------------------------------

    def outbound(self, message: Message) -> Message:
        """Wrap and register a tracked message; pass the rest through.

        Acks, excluded kinds and already-wrapped retransmissions flow
        untouched, so the layer never tracks its own control traffic and a
        retransmitted wrapper is never double-registered.
        """
        if (
            message.kind == ACK
            or message.kind in self.spec.exclude_kinds
            or RID_KEY in message.payload
        ):
            return message
        rid = self._next_rid
        self._next_rid += 1
        wrapped = Message(
            sender=message.sender,
            receiver=message.receiver,
            kind=message.kind,
            payload={**message.payload, RID_KEY: rid},
        )
        state = _Pending(rid, message, wrapped, self._sim._now)
        self._pending[rid] = state
        self._metrics.inc("resilience.sends")
        self._arm_timer(state)
        return wrapped

    # ------------------------------------------------------------------
    # Inbound interposition (PendingDelivery, a queued delivery)
    # ------------------------------------------------------------------

    def inbound(self, message: Message) -> Message | None:
        """Consume acks, acknowledge + dedup data; ``None`` = swallow."""
        if message.kind == ACK:
            self._handle_ack(message)
            return None
        rid = message.payload.get(RID_KEY)
        if rid is None:
            return message
        self._send_ack(message.receiver, message.sender, rid)
        if rid in self._seen:
            self._metrics.inc("resilience.duplicates_suppressed")
            return None
        self._seen.add(rid)
        self._metrics.inc("resilience.delivered")
        payload = {k: v for k, v in message.payload.items() if k != RID_KEY}
        return Message(
            sender=message.sender,
            receiver=message.receiver,
            kind=message.kind,
            payload=payload,
        )

    def _send_ack(self, acker: int, target: int, rid: int) -> None:
        network = self._sim.network
        reachable = network.has_edge(acker, target)
        if not network.is_present(acker) or not reachable:
            # The sender vanished (or the link did) between send and
            # delivery; its retransmission path will sort itself out.
            self._metrics.inc("resilience.acks_unsendable")
            return
        self._metrics.inc("resilience.acks_sent")
        network.send(Message(
            sender=acker, receiver=target, kind=ACK, payload={RID_KEY: rid},
        ))

    def _handle_ack(self, message: Message) -> None:
        rid = message.payload.get(RID_KEY)
        state = self._pending.get(rid)
        sim = self._sim
        metrics = self._metrics
        if state is None:
            # A duplicate ack (retransmission raced the first ack).
            metrics.inc("resilience.acks_duplicate")
            return
        metrics.inc("resilience.acks_received")
        if state.timer is not None:
            sim.cancel(state.timer)
        link = _link_key(state.original.sender, state.original.receiver)
        if not state.retransmitted:
            # Karn's rule: only unambiguous (never-retransmitted) exchanges
            # produce RTT samples.
            rtt = sim._now - state.last_sent
            estimator = self._rtt.get(link)
            if estimator is None:
                estimator = self._rtt[link] = LinkRtt()
            estimator.sample(rtt)
            metrics.observe("resilience.rtt", rtt)
        breaker = self._breakers.get(link)
        if breaker is not None and breaker.record_success():
            metrics.inc("resilience.breaker_closed")
            sim.trace.record(sim._now, BREAKER_CLOSE, a=link[0], b=link[1])
        del self._pending[rid]

    # ------------------------------------------------------------------
    # Retransmission machinery
    # ------------------------------------------------------------------

    def _rto_for(self, state: _Pending) -> float:
        if self.spec.adaptive_rto:
            link = _link_key(state.original.sender, state.original.receiver)
            estimator = self._rtt.get(link)
            if estimator is not None:
                rto = estimator.rto()
                if rto is not None:
                    return rto
        return self.spec.base_rto

    def _arm_timer(self, state: _Pending) -> None:
        delay = retry_delay(
            self.spec, self._rng, state.attempts, self._rto_for(state)
        )
        state.timer = self._sim.schedule(
            delay, partial(self._on_timer, state.rid), label="resilience:rto",
        )

    def _hold_timer(self, state: _Pending, delay: float) -> None:
        """Re-arm without consuming retry budget (breaker cooldown)."""
        state.timer = self._sim.schedule(
            max(delay, self.spec.min_rto),
            partial(self._on_timer, state.rid),
            label="resilience:hold",
        )

    def _on_timer(self, rid: int) -> None:
        state = self._pending.get(rid)
        if state is None:  # pragma: no cover - acked timers are cancelled
            return
        sim = self._sim
        now = sim._now
        metrics = self._metrics
        metrics.inc("resilience.timer_fired")
        link = _link_key(state.original.sender, state.original.receiver)
        breaker = self._breaker_for(link)
        probing = False
        if breaker is not None and breaker.state == CircuitBreaker.OPEN:
            remaining = breaker.blocked_for(now)
            if remaining > 0:
                # The link is quarantined: wait out the cooldown without
                # burning the retry budget.
                metrics.inc("resilience.breaker_blocked")
                self._hold_timer(state, remaining)
                return
            breaker.state = CircuitBreaker.HALF_OPEN
            probing = True
            metrics.inc("resilience.breaker_half_open")
            sim.trace.record(
                now, BREAKER_HALF_OPEN, a=link[0], b=link[1],
            )
        elif breaker is not None:
            # A genuine timeout: the previous transmission went unanswered.
            if breaker.record_failure(now):
                metrics.inc("resilience.breaker_opened")
                sim.trace.record(
                    now, BREAKER_OPEN, a=link[0], b=link[1],
                    failures=breaker.failures,
                )
        if state.attempts >= self.spec.max_retries + 1:
            self._abandon(state, "max_retries")
            return
        network = sim.network
        if not network.is_present(state.original.sender):
            self._abandon(state, "sender_departed")
            return
        if breaker is not None and not probing and breaker.state == CircuitBreaker.OPEN:
            # This very timeout tripped the breaker: hold retransmissions.
            metrics.inc("resilience.breaker_blocked")
            self._hold_timer(state, breaker.blocked_for(now))
            return
        receiver = state.original.receiver
        reachable = network.has_edge(state.original.sender, receiver)
        if not reachable:
            # The link (or the receiver) is gone right now; it may come
            # back (link_flap, partition heal), so this consumes retry
            # budget rather than looping forever.
            metrics.inc("resilience.unreachable")
            state.attempts += 1
            self._arm_timer(state)
            return
        state.attempts += 1
        state.retransmitted = True
        state.last_sent = now
        metrics.inc("resilience.retransmits")
        sim.trace.record(
            now, tr.RETRANSMIT, rid=rid, msg_kind=state.original.kind,
            sender=state.original.sender, receiver=receiver,
            attempt=state.attempts,
        )
        network.send(state.wrapped)
        self._arm_timer(state)

    def _abandon(self, state: _Pending, reason: str) -> None:
        del self._pending[state.rid]
        self.abandoned += 1
        sim = self._sim
        self._metrics.inc("resilience.abandoned")
        original = state.original
        data: dict[str, Any] = {
            "rid": state.rid,
            "msg_kind": original.kind,
            "sender": original.sender,
            "receiver": original.receiver,
            "attempts": state.attempts,
            "reason": reason,
        }
        qid = original.payload.get("qid")
        if qid is not None:
            data["qid"] = qid
        sim.trace.record(sim._now, tr.DELIVERY_ABANDONED, **data)
        network = sim.network
        if network.is_present(original.sender):
            network.process(original.sender).on_delivery_abandoned(original)

    # ------------------------------------------------------------------
    # Adaptive failure-detector timeouts
    # ------------------------------------------------------------------

    def detector_timeout(
        self, monitor: int, target: int, fallback: float, period: float
    ) -> float:
        """A silence threshold derived from the link's RTT estimate.

        One heartbeat period plus half an SRTT (the one-way trip) plus
        ``detector_beta`` RTTVARs of slack, floored at ``period + min_rto``
        so the detector can never out-race its own heartbeat cadence.
        Falls back to the static ``fallback`` until samples exist.
        """
        estimator = self._rtt.get(_link_key(monitor, target))
        if estimator is None or estimator.srtt is None:
            return fallback
        adaptive = (
            period
            + estimator.srtt / 2.0
            + self.spec.detector_beta * estimator.rttvar
        )
        return max(adaptive, period + self.spec.min_rto)


def install_resilience(
    resilience: "ResilienceSpec | str | None", sim: "Simulator"
) -> ReliableTransport | None:
    """Resolve and install a recovery layer on ``sim`` (``None`` = none).

    The one-call form the trial runners use: ``None``, a disabled spec, or
    an unset config field all install nothing and leave the simulation
    byte-identical to a run without the resilience plane.
    """
    spec = ResilienceSpec.resolve(resilience)
    if spec is None:
        return None
    return ReliableTransport(spec).install(sim)
