"""Temporal-connectivity classes: refining the geography dimension.

The paper's geography dimension says what an entity *knows*; orthogonally,
the communication graph's behaviour *over time* determines what information
flow is possible at all.  This module classifies observed runs along the
standard temporal-connectivity hierarchy:

    always connected  ⊂  T-interval connected  ⊂  recurrently connected
                                               ⊂  eventually connected

* **always connected** — every snapshot is connected;
* **T-interval connected** — every window of ``T`` consecutive snapshots
  shares a connected spanning subgraph (Kuhn–Lynch–Oshman); ``T = 1`` is
  "always connected" with per-snapshot freedom;
* **recurrently connected** — disconnections occur but every one heals:
  between any two times there is a connected snapshot;
* **eventually connected** — connected from some point on.

Classification is *observational*, over a finite list of snapshots sampled
from a simulation; like the arrival classes, the verdicts state consistency
with the class over the observation window.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.core.journeys import DynamicGraph
from repro.sim.errors import ConfigurationError
from repro.topology.dynamic import interval_connectivity
from repro.topology.graph import Topology


class ConnectivityClass(Enum):
    """The temporal-connectivity hierarchy, strongest first."""

    ALWAYS = "always connected"
    T_INTERVAL = "T-interval connected"
    RECURRENT = "recurrently connected"
    EVENTUAL = "eventually connected"
    DISCONNECTED = "not eventually connected"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ConnectivityVerdict:
    """Result of classifying a snapshot sequence."""

    klass: ConnectivityClass
    #: Largest T for which the sequence is T-interval connected (0 if none).
    max_interval: int
    connected_fraction: float
    first_connected_suffix: int | None

    def __str__(self) -> str:
        return (
            f"{self.klass} (max T={self.max_interval}, "
            f"{self.connected_fraction:.0%} of snapshots connected)"
        )


def classify_snapshots(snapshots: Sequence[Topology]) -> ConnectivityVerdict:
    """Classify a snapshot sequence along the temporal hierarchy."""
    if not snapshots:
        raise ConfigurationError("cannot classify an empty snapshot sequence")
    connected = [snap.is_connected() and len(snap) > 0 for snap in snapshots]
    fraction = sum(connected) / len(connected)

    # Largest T-interval connectivity (0 when even T=1 fails).
    max_interval = 0
    for window in range(1, len(snapshots) + 1):
        if interval_connectivity(list(snapshots), window):
            max_interval = window
        else:
            break

    # First index from which every snapshot is connected.
    suffix_start: int | None = None
    for i in range(len(connected), 0, -1):
        if connected[i - 1]:
            suffix_start = i - 1
        else:
            break
    if suffix_start is None and all(connected):
        suffix_start = 0

    if all(connected):
        # ALWAYS implies the weaker classes; the stronger structural fact
        # (shared subgraphs across windows) is reported via max_interval.
        return ConnectivityVerdict(
            ConnectivityClass.ALWAYS, max_interval, fraction, 0
        )

    if suffix_start is not None and suffix_start < len(connected):
        # Disconnections happened but the run ends connected.
        healed_everywhere = _every_gap_heals(connected)
        if healed_everywhere:
            klass = ConnectivityClass.RECURRENT
        else:
            klass = ConnectivityClass.EVENTUAL
        return ConnectivityVerdict(klass, max_interval, fraction, suffix_start)

    if any(connected):
        if _every_gap_heals(connected):
            return ConnectivityVerdict(
                ConnectivityClass.RECURRENT, max_interval, fraction, None
            )
    return ConnectivityVerdict(
        ConnectivityClass.DISCONNECTED, max_interval, fraction, None
    )


def _every_gap_heals(connected: Sequence[bool]) -> bool:
    """Every disconnected stretch is followed by a connected snapshot."""
    for i, ok in enumerate(connected):
        if not ok and not any(connected[i + 1:]):
            return False
    return True


def snapshots_from_trace(
    log, times: Sequence[float]
) -> list[Topology]:
    """Sample communication-graph snapshots from a trace at given times.

    Isolated (edge-less) present entities are included as isolated nodes so
    the connectivity verdicts account for them.
    """
    if not times:
        raise ConfigurationError("need at least one sample time")
    graph = DynamicGraph.from_trace(log)
    from repro.core.runs import Run

    run = Run.from_trace(log, horizon=max(times))
    result = []
    for t in sorted(times):
        snap = graph.snapshot(t)
        for entity in run.present_at(t):
            snap.add_node(entity)
        result.append(snap)
    return result


def classify_trace(log, times: Sequence[float]) -> ConnectivityVerdict:
    """Convenience: sample snapshots from a trace and classify them."""
    return classify_snapshots(snapshots_from_trace(log, times))
