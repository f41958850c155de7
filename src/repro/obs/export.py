"""Trace exporters: Chrome Trace Format and ASCII timelines.

Two human-facing views of the same event stream:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format consumed by Perfetto (https://ui.perfetto.dev) and Chrome's
  ``about:tracing``.  Each simulated entity becomes one named track; every
  trace event becomes a short slice on its owner's track, and each
  ``send`` → ``deliver`` pair becomes a flow arrow, so message causality is
  visible at a glance.  Simulation time (abstract units) is scaled into
  microseconds by ``time_scale`` (default: 1 time unit = 1 ms).
* :func:`ascii_timeline` — a per-node lane chart for the terminal, one
  character per time bucket, highest-significance event wins the cell.

Both consume any event iterable — a live :class:`~repro.sim.trace.TraceLog`
that retained everything (``trace_sink="memory"``; a log that dropped
events is refused) or a loaded JSONL stream — and are wired into the CLI as
``repro trace export``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.codec import encode_value
from repro.sim import trace as tr
from repro.sim.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace -> obs)
    from repro.sim.trace import TraceEvent

#: Track id used for events that belong to no entity (network drops).
NETWORK_LANE = -1

#: Lane symbols in decreasing display priority: when several events share
#: an ASCII time bucket, the earliest entry in this table wins the cell.
SYMBOLS: tuple[tuple[str, str], ...] = (
    ("query_returned", "R"),
    ("query_issued", "Q"),
    ("bcast_delivered", "b"),
    ("bcast_issued", "B"),
    (tr.JOIN, "J"),
    (tr.LEAVE, "L"),
    (tr.FAULT_INJECTED, "F"),
    (tr.FAULT_CLEARED, "f"),
    (tr.MSG_LOST, "!"),
    (tr.DROP, "x"),
    (tr.DELIVER, "d"),
    (tr.SEND, "s"),
    (tr.TIMER, "t"),
)

_SYMBOL_FOR = dict(SYMBOLS)
_PRIORITY = {kind: i for i, (kind, _) in enumerate(SYMBOLS)}
#: Symbol for event kinds not in the table (protocol-specific milestones).
OTHER_SYMBOL = "o"
_OTHER_PRIORITY = len(SYMBOLS)


def _slice_name(event: TraceEvent) -> str:
    msg_kind = event.get("msg_kind")
    if msg_kind is not None:
        return f"{event.kind}:{msg_kind}"
    timer_name = event.get("name") if event.kind == tr.TIMER else None
    if timer_name is not None:
        return f"timer:{timer_name}"
    return event.kind


def _args(event: TraceEvent) -> dict[str, Any]:
    return {key: encode_value(value) for key, value in event.data.items()}


def to_chrome_trace(
    events: Iterable[TraceEvent],
    time_scale: float = 1000.0,
    slice_duration: float = 1.0,
) -> dict[str, Any]:
    """Render events as a Chrome Trace Format (Perfetto-viewable) object.

    Args:
        events: the trace stream, in record order.
        time_scale: microseconds per simulation time unit (default 1000,
            i.e. one simulation time unit displays as one millisecond).
        slice_duration: displayed slice length in microseconds (purely
            cosmetic; instant events are hard to see at 0 width).
    """
    tr.require_complete(events, "to_chrome_trace")
    trace_events: list[dict[str, Any]] = []
    lanes: set[int] = set()
    for event in events:
        owners = tr.owners_of(event) or (NETWORK_LANE,)
        ts = event.time * time_scale
        for lane in owners:
            lanes.add(lane)
            trace_events.append({
                "name": _slice_name(event),
                "cat": event.kind,
                "ph": "X",
                "ts": ts,
                "dur": slice_duration,
                "pid": 0,
                "tid": lane,
                "args": _args(event),
            })
        msg_id = event.get("msg_id")
        if msg_id is None:
            continue
        if event.kind == tr.SEND:
            trace_events.append({
                "name": f"msg:{event.get('msg_kind')}",
                "cat": "message",
                "ph": "s",
                "id": msg_id,
                "ts": ts,
                "pid": 0,
                "tid": event["sender"],
            })
        elif event.kind == tr.DELIVER:
            trace_events.append({
                "name": f"msg:{event.get('msg_kind')}",
                "cat": "message",
                "ph": "f",
                "bp": "e",
                "id": msg_id,
                "ts": ts,
                "pid": 0,
                "tid": event["receiver"],
            })
    metadata: list[dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "args": {"name": "repro simulation"},
    }]
    for lane in sorted(lanes):
        label = "network" if lane == NETWORK_LANE else f"node {lane}"
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": lane,
            "args": {"name": label},
        })
        metadata.append({
            "name": "thread_sort_index",
            "ph": "M",
            "pid": 0,
            "tid": lane,
            "args": {"sort_index": lane},
        })
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(
    events: Iterable[TraceEvent],
    path: str | Path,
    time_scale: float = 1000.0,
) -> int:
    """Write :func:`to_chrome_trace` output as JSON; returns the event
    count written (metadata records excluded)."""
    document = to_chrome_trace(events, time_scale=time_scale)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return sum(1 for e in document["traceEvents"] if e.get("ph") != "M")


#: Chrome-trace process id for engine telemetry tracks (the simulation's
#: tracks live on pid 0, see :func:`to_chrome_trace`).
ENGINE_PID = 1

#: Track id for parent-process engine spans (run / dispatch / warm_pool).
COORDINATOR_LANE = 0


def merge_engine_trace(
    manifest: Any,
    spans: Iterable[Any],
    sim_events: "Iterable[TraceEvent] | None" = None,
    sim_seed: int | None = None,
    time_scale: float = 1000.0,
) -> dict[str, Any]:
    """Merge engine telemetry spans into a Chrome Trace Format object.

    Engine spans (run → dispatch → chunk → trial, wall-clock epoch
    seconds) become slices on process ``repro engine`` (pid
    :data:`ENGINE_PID`), one track per worker pid plus a ``coordinator``
    track for parent-side spans.  When ``sim_events`` is given (one
    trial's saved trace), its simulation-time tracks are laid alongside on
    pid 0, shifted so the trial starts under its engine ``trial`` span —
    the span whose ``seed`` attr equals ``sim_seed`` when given, else the
    first trial span — and a flow arrow connects the engine span down to
    the simulation's first event.
    """
    spans = list(spans)
    if not spans:
        raise ConfigurationError("telemetry stream holds no spans to export")
    base = getattr(manifest, "started", None)
    if base is None:
        base = min(span.t0 for span in spans)

    def lane_of(span: Any) -> int:
        worker = span.attrs.get("worker")
        if worker is not None and span.name in ("chunk", "trial"):
            return int(worker)
        return COORDINATOR_LANE

    trace_events: list[dict[str, Any]] = []
    lanes: set[int] = set()
    anchor: Any = None
    for span in spans:
        lane = lane_of(span)
        lanes.add(lane)
        args = {key: encode_value(value) for key, value in span.attrs.items()}
        args["span_id"] = span.span_id
        label = span.name
        if span.name == "trial" and "index" in span.attrs:
            label = f"trial {span.attrs['index']}"
        elif span.name == "chunk" and "trials" in span.attrs:
            label = f"chunk x{span.attrs['trials']}"
        trace_events.append({
            "name": label,
            "cat": f"engine:{span.name}",
            "ph": "X",
            "ts": (span.t0 - base) * 1e6,
            "dur": max(span.duration * 1e6, 1.0),
            "pid": ENGINE_PID,
            "tid": lane,
            "args": args,
        })
        if span.name == "trial":
            if anchor is None or (
                sim_seed is not None and span.attrs.get("seed") == sim_seed
                and anchor.attrs.get("seed") != sim_seed
            ):
                anchor = span

    metadata: list[dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": ENGINE_PID,
        "args": {"name": "repro engine"},
    }]
    for lane in sorted(lanes):
        label = "coordinator" if lane == COORDINATOR_LANE else f"worker {lane}"
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "pid": ENGINE_PID,
            "tid": lane,
            "args": {"name": label},
        })

    if sim_events is not None:
        sim_doc = to_chrome_trace(sim_events, time_scale=time_scale)
        offset = 0.0
        if anchor is not None:
            offset = (anchor.t0 - base) * 1e6
        first_sim: dict[str, Any] | None = None
        for event in sim_doc["traceEvents"]:
            if event.get("ph") == "M":
                metadata.append(event)
                continue
            event = dict(event)
            event["ts"] = event["ts"] + offset
            trace_events.append(event)
            if first_sim is None and event["ph"] == "X":
                first_sim = event
        if anchor is not None and first_sim is not None:
            # Flow arrow: the engine trial span caused this sim trace.
            flow_id = f"engine-trial-{anchor.attrs.get('index', '?')}"
            trace_events.append({
                "name": "trial trace",
                "cat": "engine-flow",
                "ph": "s",
                "id": flow_id,
                "ts": (anchor.t0 - base) * 1e6,
                "pid": ENGINE_PID,
                "tid": lane_of(anchor),
            })
            trace_events.append({
                "name": "trial trace",
                "cat": "engine-flow",
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "ts": first_sim["ts"],
                "pid": first_sim["pid"],
                "tid": first_sim["tid"],
            })

    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
    }


def write_engine_trace(
    telemetry_path: str | Path,
    path: str | Path,
    sim_events: "Iterable[TraceEvent] | None" = None,
    sim_seed: int | None = None,
    time_scale: float = 1000.0,
) -> int:
    """Load a telemetry stream, merge (optionally with one trial's sim
    trace) via :func:`merge_engine_trace`, write the JSON; returns the
    event count written (metadata records excluded)."""
    from repro.obs.ledger import load_telemetry

    manifest, spans, _ = load_telemetry(str(telemetry_path))
    document = merge_engine_trace(
        manifest, spans, sim_events=sim_events, sim_seed=sim_seed,
        time_scale=time_scale,
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return sum(1 for e in document["traceEvents"] if e.get("ph") != "M")


def ascii_timeline(
    events: Iterable[TraceEvent],
    width: int = 72,
    max_lanes: int = 40,
) -> str:
    """Per-node event lanes for the terminal.

    One row per entity (events with no owner land on the ``net`` lane),
    one column per time bucket; when a bucket holds several events the
    highest-priority symbol wins (see :data:`SYMBOLS`).
    """
    if width < 8:
        raise ConfigurationError(f"timeline width must be >= 8, got {width}")
    tr.require_complete(events, "ascii_timeline")
    stream = list(events)
    if not stream:
        return "(empty trace)"
    t0 = min(e.time for e in stream)
    t1 = max(e.time for e in stream)
    span = max(t1 - t0, 1e-12)
    cells: dict[int, list[tuple[int, str]]] = {}
    for event in stream:
        col = min(width - 1, int((event.time - t0) / span * (width - 1)))
        priority = _PRIORITY.get(event.kind, _OTHER_PRIORITY)
        symbol = _SYMBOL_FOR.get(event.kind, OTHER_SYMBOL)
        for lane in tr.owners_of(event) or (NETWORK_LANE,):
            row = cells.setdefault(lane, [(-1, "") for _ in range(width)])
            current = row[col]
            if not current[1] or priority < current[0]:
                row[col] = (priority, symbol)
    lanes = sorted(cells)
    clipped = 0
    if len(lanes) > max_lanes:
        clipped = len(lanes) - max_lanes
        lanes = lanes[:max_lanes]
    lines = [
        f"trace timeline: t={t0:.2f}..{t1:.2f}, {len(stream)} events, "
        f"{len(cells)} lanes"
    ]
    for lane in lanes:
        label = " net" if lane == NETWORK_LANE else f"{lane:>4}"
        body = "".join(symbol or "." for _, symbol in cells[lane])
        lines.append(f"{label} |{body}|")
    if clipped:
        lines.append(f"... {clipped} more lanes (raise max_lanes to see them)")
    legend = "  ".join(f"{symbol}={kind}" for kind, symbol in SYMBOLS)
    lines.append(f"legend: {legend}  {OTHER_SYMBOL}=other  .=idle")
    return "\n".join(lines)
