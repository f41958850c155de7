"""Declarative resilience specifications.

The fault plane (:mod:`repro.faults`) makes the adversary declarative;
:class:`ResilienceSpec` does the same for the *defence*.  It is plain,
frozen, picklable data — in the same mould as
:class:`repro.faults.spec.FaultSpec` and :class:`repro.churn.spec.ChurnSpec`
— describing how the recovery layer (:mod:`repro.resilience.transport`)
behaves: how often to retransmit, how to back off, when to give up, when a
link circuit breaker trips, and whether query protocols degrade to partial
answers with coverage reports.

Determinism contract: a ``None`` field value or a spec with
``enabled=False`` resolves to ``None`` and installs nothing — a trial
configured that way is byte-identical to a trial with no resilience at all
(no extra RNG draws, no extra trace events, no extra metrics keys).  All
retransmission jitter draws from the dedicated ``"resilience"`` seed
stream, never from the transport or fault streams, so enabling recovery
never perturbs the delays or drops of the underlying network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.errors import ConfigurationError
from repro.wire import WireSpec

#: JSON schema identifier for serialised specs.
SPEC_SCHEMA = "repro-resilience-spec"
SPEC_VERSION = 1


@dataclass(frozen=True)
class ResilienceSpec(WireSpec):
    """One complete recovery policy for the reliable-delivery layer.

    Attributes:
        name: optional label (presets set it; it never affects behavior).
        enabled: master switch; a disabled spec resolves to ``None`` and
            installs nothing (byte-identical to no spec).
        max_retries: retransmissions per message after the first send; the
            message is abandoned (``delivery_abandoned``) once
            ``max_retries + 1`` transmissions have all gone unacknowledged.
        base_rto: initial retransmission timeout, used until the link has
            RTT samples (or always, with ``adaptive_rto=False``).
        min_rto: lower clamp on every retransmission timeout.
        max_rto: upper clamp on every retransmission timeout.
        backoff: exponential backoff factor between attempts (>= 1).
        jitter: deterministic jitter fraction: each delay is stretched by
            ``uniform(0, jitter * delay)`` drawn from the ``"resilience"``
            RNG stream.
        adaptive_rto: feed Jacobson-style RTT/RTTVAR estimates (per link)
            into the retransmission timer instead of ``base_rto``.
        adaptive_detector: let the heartbeat failure detector derive its
            silence threshold from the link RTT estimate instead of the
            static ``timeout`` (see
            :meth:`repro.failure.detector.HeartbeatNode._check_silences`).
        detector_beta: RTTVAR multiplier for the adaptive detector timeout.
        breaker_threshold: consecutive delivery timeouts on a link before
            its circuit breaker trips open (``0`` disables the breaker).
        breaker_cooldown: how long an open breaker holds retransmissions
            on the link before probing half-open.
        partial_results: let query trials build a
            :class:`~repro.resilience.degradation.CoverageReport` so the
            initiator returns an explicit partial answer instead of an
            unexplained miss.
        exclude_kinds: message kinds the session layer passes through
            untracked (heartbeats by default: they are their own
            retransmission scheme).

    The wire format is ``repro-resilience-spec`` v1 (:mod:`repro.wire`).
    """

    SCHEMA = SPEC_SCHEMA
    LABEL = "resilience spec"

    name: str = ""
    enabled: bool = True
    max_retries: int = 4
    base_rto: float = 3.0
    min_rto: float = 0.5
    max_rto: float = 20.0
    backoff: float = 2.0
    jitter: float = 0.1
    adaptive_rto: bool = True
    adaptive_detector: bool = False
    detector_beta: float = 4.0
    breaker_threshold: int = 0
    breaker_cooldown: float = 8.0
    partial_results: bool = True
    exclude_kinds: tuple[str, ...] = ("FD_HEARTBEAT",)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0.0 < self.min_rto <= self.base_rto <= self.max_rto:
            raise ConfigurationError(
                "need 0 < min_rto <= base_rto <= max_rto, got "
                f"min_rto={self.min_rto}, base_rto={self.base_rto}, "
                f"max_rto={self.max_rto}"
            )
        if self.backoff < 1.0:
            raise ConfigurationError(
                f"backoff factor must be >= 1, got {self.backoff}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter fraction must be in [0, 1], got {self.jitter}"
            )
        if self.detector_beta <= 0.0:
            raise ConfigurationError(
                f"detector_beta must be > 0, got {self.detector_beta}"
            )
        if self.breaker_threshold < 0:
            raise ConfigurationError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown <= 0.0:
            raise ConfigurationError(
                f"breaker_cooldown must be > 0, got {self.breaker_cooldown}"
            )
        normalized = tuple(sorted(str(kind) for kind in self.exclude_kinds))
        object.__setattr__(self, "exclude_kinds", normalized)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def disabled(cls) -> "ResilienceSpec":
        """The off switch: resolves to ``None`` and installs nothing."""
        return cls(name="disabled", enabled=False)

    @classmethod
    def _active(cls, spec: "ResilienceSpec | None") -> "ResilienceSpec | None":
        return spec if spec is not None and spec.enabled else None


#: The builtin policies, by name: the vocabulary of ``--resilience NAME``
#: and of the string form of the ``resilience`` config field.  Each is one
#: point on the recovery spectrum, sized for the stock trials (UniformDelay
#: RTTs around 2 time units): the default ``base_rto`` of 3.0 sits just above
#: the round-trip ceiling, so loss-free runs never retransmit spuriously.
#: The E22 recovery audit (``benchmarks/test_e22_recovery_audit.py``)
#: measures what each buys back under every fault preset.
RESILIENCE_PRESETS = ResilienceSpec.PRESETS = {
    # Reliable delivery with adaptive (Jacobson) retransmission timers.
    "arq": ResilienceSpec(name="arq"),
    # The same ARQ with a fixed base_rto timer — the ablation arm that
    # shows what RTT estimation buys under jitter.
    "arq-static": ResilienceSpec(name="arq-static", adaptive_rto=False),
    # ARQ plus a per-link circuit breaker (pairs with link_flap faults).
    "breaker": ResilienceSpec(name="breaker", breaker_threshold=3),
    # Everything on: breaker + RTT-adaptive failure-detector timeouts.
    "full": ResilienceSpec(
        name="full", breaker_threshold=3, adaptive_detector=True
    ),
}

# The blessed functional spellings (repro.api) of the kernel methods.
resilience_preset = ResilienceSpec.preset
resolve_resilience = ResilienceSpec.resolve


# ----------------------------------------------------------------------
# The backoff schedule (shared by the transport and the property tests)
# ----------------------------------------------------------------------


def retry_delay(
    spec: ResilienceSpec, rng: random.Random, attempt: int, rto: float
) -> float:
    """The timer delay armed after transmission number ``attempt``.

    Exponential backoff on ``rto`` clamped to ``[min_rto, max_rto]``, plus
    deterministic jitter of up to ``jitter * delay`` drawn from ``rng``
    (the ``"resilience"`` stream inside a live transport).  When
    ``jitter == 0`` no draw is made at all, keeping the stream untouched.
    """
    delay = rto * spec.backoff ** (attempt - 1)
    delay = min(max(delay, spec.min_rto), spec.max_rto)
    if spec.jitter > 0.0:
        delay += rng.uniform(0.0, spec.jitter * delay)
    return delay


def backoff_schedule(
    spec: ResilienceSpec,
    seed: int = 0,
    rto: float | None = None,
) -> tuple[float, ...]:
    """The full deterministic retransmit-delay schedule for one message.

    One delay per transmission (``max_retries + 1`` entries), computed with
    a private ``random.Random(seed)`` so the same ``(spec, seed)`` always
    yields the same schedule — the determinism the property suite pins.
    """
    rng = random.Random(seed)
    base = spec.base_rto if rto is None else rto
    return tuple(
        retry_delay(spec, rng, attempt, base)
        for attempt in range(1, spec.max_retries + 2)
    )
