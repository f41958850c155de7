"""Fault-tolerant wave: the one-time query without a perfect detector.

The plain :class:`~repro.protocols.one_time_query.WaveNode` relies on
neighbor-leave notifications — a perfect failure detector — to stop waiting
for departed children.  When departures are *silent*
(``Simulator(notify_leaves=False)``), an echo-mode wave deadlocks the first
time a pending child crashes.

:class:`FaultTolerantWaveNode` composes the wave with the heartbeat
detector: a suspected child is treated exactly like a departed one (its
echo is given up on).  The price of losing the perfect detector is visible
in two ways:

* **latency** — the query stalls for roughly the detection timeout whenever
  a child crashes mid-wave (E19 measures the inflation);
* **accuracy risk** — a *falsely* suspected child's subtree is abandoned
  even though it may still deliver; with unbounded delays this re-opens the
  completeness hole that timeouts always do (the E6b phenomenon one layer
  down).

This is the paper's knowledge dimension applied to *time*: the perfect
detector is a piece of global knowledge, and heartbeats are the purchase
price of doing without it.
"""

from __future__ import annotations

from typing import Any

from repro.failure.detector import HEARTBEAT, HeartbeatNode
from repro.protocols.one_time_query import WaveNode
from repro.sim.messages import Message


class FaultTolerantWaveNode(WaveNode, HeartbeatNode):
    """A wave node that unblocks on heartbeat suspicion instead of (or in
    addition to) leave notifications.

    Args:
        value: the local value.
        period: heartbeat period.
        timeout: silence threshold for suspicion (must exceed the period).
    """

    def __init__(self, value: Any = None, period: float = 1.0,
                 timeout: float = 3.0) -> None:
        # The MRO runs WaveNode.__init__ -> HeartbeatNode.__init__ with the
        # detector's defaults; fix the timing parameters afterwards (the
        # validation in HeartbeatNode.__init__ already ran on defaults, so
        # re-validate here).
        super().__init__(value)
        if period <= 0 or timeout <= period:
            from repro.sim.errors import ConfigurationError

            raise ConfigurationError(
                f"need 0 < period < timeout, got period={period}, "
                f"timeout={timeout}"
            )
        self.period = period
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Cooperative event dispatch (both parents are event consumers)
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        HeartbeatNode.on_start(self)

    def on_message(self, message: Message) -> None:
        # Each layer reads only its own kinds: a heartbeat goes straight
        # to the detector, everything else to the wave.
        if message.kind == HEARTBEAT:
            HeartbeatNode.on_message(self, message)
        else:
            WaveNode.on_message(self, message)

    def on_timer(self, name: str, payload: Any) -> None:
        WaveNode.on_timer(self, name, payload)
        HeartbeatNode.on_timer(self, name, payload)

    def on_neighbor_join(self, pid: int) -> None:
        HeartbeatNode.on_neighbor_join(self, pid)

    def on_neighbor_leave(self, pid: int) -> None:
        # With notifications enabled both layers react; silent mode never
        # calls this.
        WaveNode.on_neighbor_leave(self, pid)
        HeartbeatNode.on_neighbor_leave(self, pid)

    # ------------------------------------------------------------------
    # Detector output drives the wave
    # ------------------------------------------------------------------

    def on_suspect(self, pid: int) -> None:
        """A suspected child is treated as departed: stop waiting for it."""
        for state in list(self._states.values()):
            if state.closed:
                continue
            if pid in state.pending:
                state.pending.discard(pid)
                self._check_complete(state)
