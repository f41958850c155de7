"""Heartbeat failure detection.

The simulator's neighbor-leave notifications model a *perfect* failure
detector — departures are announced instantly.  Real dynamic systems must
infer departures from silence, and the quality of that inference depends on
timing knowledge: with a known bound on message delay a heartbeat detector
is eventually perfect; with unbounded delay every timeout choice either
reacts slowly or suspects live processes.  This module provides the
heartbeat machinery and the metrics to quantify that trade-off (the
synchrony analogue of the paper's knowledge dimension, explored by the
failure-detection ablation bench).

Trace events written:

* ``suspect``  — ``entity`` began suspecting ``target``;
* ``restore``  — ``entity`` unsuspected ``target`` (a late heartbeat).
"""

from __future__ import annotations

from typing import Any

from repro.protocols.base import AggregatingProcess
from repro.sim.errors import ConfigurationError
from repro.sim.messages import Message
from repro.sim.trace import LEAVE, TraceLog

HEARTBEAT = "FD_HEARTBEAT"
SUSPECT = "suspect"
RESTORE = "restore"


class HeartbeatNode(AggregatingProcess):
    """A process that monitors its neighbors with heartbeats.

    Args:
        value: local value (the class composes with aggregation protocols).
        period: time between heartbeat broadcasts.
        timeout: silence threshold after which a neighbor is suspected.

    Subclasses may override :meth:`on_suspect` / :meth:`on_restore` to react
    to detector output; the detector itself never removes anyone.
    """

    def __init__(self, value: Any = None, period: float = 1.0, timeout: float = 3.0) -> None:
        super().__init__(value)
        if period <= 0:
            raise ConfigurationError(f"heartbeat period must be > 0, got {period}")
        if timeout <= period:
            raise ConfigurationError(
                f"timeout ({timeout}) must exceed the period ({period})"
            )
        self.period = period
        self.timeout = timeout
        self._last_heard: dict[int, float] = {}
        self._suspected: set[int] = set()
        self.suspicions_raised = 0
        self.suspicions_retracted = 0

    # ------------------------------------------------------------------
    # Detector output
    # ------------------------------------------------------------------

    def suspects(self) -> frozenset[int]:
        """The neighbors this process currently suspects."""
        return frozenset(self._suspected)

    def trusts(self) -> frozenset[int]:
        """Current neighbors not under suspicion."""
        return self.neighbors() - self._suspected

    def on_suspect(self, pid: int) -> None:
        """Hook: called when ``pid`` becomes suspected."""

    def on_restore(self, pid: int) -> None:
        """Hook: called when a suspicion on ``pid`` is retracted."""

    # ------------------------------------------------------------------
    # Machinery
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        now = self.now
        for neighbor in self.neighbors():
            self._last_heard[neighbor] = now
        # Random initial phase desynchronises heartbeats across processes.
        self.set_timer(self.rng.uniform(0, self.period), "fd-beat", None)
        self.set_timer(self.timeout, "fd-check", None)

    def on_timer(self, name: str, payload: Any) -> None:
        if name == "fd-beat":
            self.broadcast(HEARTBEAT)
            self.set_timer(self.period, "fd-beat", None)
        elif name == "fd-check":
            self._check_silences()
            self.set_timer(self.period, "fd-check", None)

    def _check_silences(self) -> None:
        """Suspect every unsuspected target silent for longer than its
        threshold.

        With a resilience layer in adaptive-detector mode the threshold is
        derived from the link's RTT estimate (see
        :meth:`repro.resilience.transport.ReliableTransport.detector_timeout`);
        otherwise the static ``timeout`` applies.
        """
        sim = self._sim
        now = sim._now
        timeout = self.timeout
        transport = sim.network.resilience
        if transport is not None and transport.spec.adaptive_detector:
            # The adaptive threshold never drops below ``period + min_rto``
            # (nor is the fallback below ``timeout``): a target heard
            # within both cannot be suspected, so only the targets silent
            # for longer ask the transport.
            floor = min(timeout, self.period + transport.spec.min_rto)
        else:
            transport = None
            floor = timeout
        # Monitor everyone we hold heartbeat state for, not just the
        # current neighbor set: under *silent* departures
        # (``notify_leaves=False``) a crashed neighbor vanishes from the
        # adjacency without a callback, and its lingering ``_last_heard``
        # entry is precisely how its silence is noticed.
        for target in sorted(self._last_heard):
            silence = now - self._last_heard[target]
            if silence <= floor or target in self._suspected:
                continue
            if transport is not None and silence <= transport.detector_timeout(
                self.pid, target, fallback=timeout, period=self.period
            ):
                continue
            self._suspected.add(target)
            self.suspicions_raised += 1
            sim.metrics.inc("detector.suspicions")
            self.record(SUSPECT, target=target)
            self.on_suspect(target)

    def _restore(self, pid: int) -> None:
        """Retract the standing suspicion on ``pid`` (callers check that
        there is one)."""
        self._suspected.discard(pid)
        self.suspicions_retracted += 1
        self.sim.metrics.inc("detector.restorals")
        self.record(RESTORE, target=pid)
        self.on_restore(pid)

    def on_message(self, message: Message) -> None:
        if message.kind == HEARTBEAT:
            sender = message.sender
            self._last_heard[sender] = self._sim._now
            if sender in self._suspected:
                self._restore(sender)

    def on_neighbor_join(self, pid: int) -> None:
        self._last_heard[pid] = self.now
        # A rejoining entity (crash_rejoin under the same pid) is live by
        # definition: clear any standing suspicion immediately rather than
        # waiting for its first heartbeat, so coverage reports never
        # permanently exclude entities that came back.
        if pid in self._suspected:
            self._restore(pid)

    def on_neighbor_leave(self, pid: int) -> None:
        # The perfect notification clears detector state; heartbeat-only
        # deployments would instead rely on the timeout path that already
        # suspected (or will suspect) the silent neighbor.
        self._last_heard.pop(pid, None)
        self._suspected.discard(pid)


# ----------------------------------------------------------------------
# Detector-quality metrics
# ----------------------------------------------------------------------


def detection_latency(log: TraceLog, departed: int) -> float | None:
    """Time from ``departed``'s leave to the first suspicion naming it.

    Returns ``None`` if it was never suspected after leaving (a miss —
    possible when its monitors also left).
    """
    leave_time = None
    for event in log:
        if event.kind == LEAVE and event["entity"] == departed:
            leave_time = event.time
        elif (
            leave_time is not None
            and event.kind == SUSPECT
            and event["target"] == departed
            and event.time >= leave_time
        ):
            return event.time - leave_time
    return None


def false_suspicions(log: TraceLog) -> int:
    """Count suspicions raised against processes that had not left.

    A suspicion is false if the target had no earlier ``leave`` event.
    """
    departed: set[int] = set()
    count = 0
    for event in log:
        if event.kind == LEAVE:
            departed.add(event["entity"])
        elif event.kind == SUSPECT and event["target"] not in departed:
            count += 1
    return count


def mistake_recovery_count(log: TraceLog) -> int:
    """Number of retracted suspicions (restores) — the 'eventually' in
    eventually-perfect."""
    return log.count(RESTORE)
