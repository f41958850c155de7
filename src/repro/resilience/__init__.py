"""Deterministic resilience: reliable delivery, adaptive retry, degradation.

The recovery counterpart to the fault plane (:mod:`repro.faults`).  A
frozen, picklable :class:`ResilienceSpec` configures a
:class:`ReliableTransport` that interposes between protocols and
:class:`~repro.sim.network.Network` transport: per-message acknowledgements
and receive-path dedup, retransmission with exponential backoff and
deterministic jitter (the dedicated ``"resilience"`` RNG stream),
Jacobson-style per-link RTT estimation feeding retransmit timers and —
optionally — the heartbeat failure detector, a per-link circuit breaker,
and bounded give-up that lets query protocols degrade to partial answers
with explicit :class:`CoverageReport` witnesses instead of hanging.

Determinism contract: ``None`` or a disabled spec installs nothing and is
byte-identical to no resilience at all; enabling it never perturbs the
transport or fault RNG streams.  See ``docs/RESILIENCE.md``.
"""
