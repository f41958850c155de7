"""The membership fold builds the run the events describe.

``Run.from_trace`` reads a log's :class:`~repro.sim.trace.MembershipFold`:
the network appends to it in place when the sink only counts the
membership kinds, and ``TraceLog.record`` feeds it otherwise (memory and
JSONL sinks, loaded and hand-built logs, a plain event iterable).  Each
test below holds the run it builds equal to the run read naively off the
full event stream — presence intervals, join values, horizon, every edge
and its presence intervals, and the three malformed-sequence errors — on
every reference-model scenario under each of its sinks, and on random
hand-built membership traces.
"""

from __future__ import annotations

import re
import tempfile
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from repro.core.runs import FOREVER, Interval, Run
from repro.obs.sinks import CountingSink, NullSink
from repro.sim import trace as tr
from repro.sim.trace import TraceEvent, TraceLog
from tests.property.test_temporal_properties import random_membership_trace
from tests.reference.test_core_matches_reference import EXAMPLES, SCENARIOS, SINKS, run


def naive_run(events, horizon=None) -> dict:
    """The executable spec: presence from one scan of the join and leave
    events, edges from a replay of every event's contact effect."""
    joins, values, intervals, last = {}, {}, {}, 0.0
    for time, kind, data in events:
        if kind == tr.JOIN:
            if data["entity"] in values:
                raise ValueError(f"entity {data['entity']} joined twice")
            joins[data["entity"]] = time
            values[data["entity"]] = data.get("value")
        elif kind == tr.LEAVE:
            joined = joins.pop(data["entity"], None)
            if joined is None:
                raise ValueError(f"entity {data['entity']} left without joining")
            if time < joined:
                raise ValueError(f"leave {time} before join {joined}")
            intervals[data["entity"]] = Interval(joined, time)
        else:
            continue
        last = max(last, time)
    intervals.update((entity, Interval(at)) for entity, at in joins.items())
    edges, opened, present = {}, {}, set()

    def close(pair, when):
        if pair in opened:
            edges.setdefault(pair, []).append(Interval(opened.pop(pair), when))

    for event in (TraceEvent(*fields) for fields in events):
        contact = tr.CONTACT.get(event.kind)
        if contact == tr.ATTACH:
            for other in tr.attached(event, present):
                opened.setdefault(tuple(sorted((event["entity"], other))), event.time)
        elif contact == tr.DETACH:
            for pair in [p for p in opened if event["entity"] in p]:
                close(pair, event.time)
        elif contact == tr.OPEN:
            opened.setdefault(tuple(sorted(tr.owners_of(event))), event.time)
        elif contact == tr.CLOSE:
            close(tuple(sorted(tr.owners_of(event))), event.time)
        tr.track(present, event)
    for pair in list(opened):
        close(pair, FOREVER)
    return dict(intervals=intervals, values=values,
                horizon=float(last if horizon is None else horizon),
                edges=edges)


def observed(run: Run) -> dict:
    return dict(intervals={e: run.interval(e) for e in run.entities()},
                values=run.values, horizon=run.horizon,
                edges={pair: run.presence(*pair) for pair in run.edges()})


def refold(events, sink) -> TraceLog:
    """``events`` recorded afresh into a log with ``sink``."""
    log = TraceLog(sink)
    for time, kind, data in events:
        log.record(time, kind, **data)
    return log


@settings(max_examples=25)
@given(s=SCENARIOS)
@lambda test: reduce(lambda test, s: example(s=s)(test), EXAMPLES, test)
def test_the_fold_is_the_run_of_every_reference_scenario(s):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        lean, _, _ = run(s, True, SINKS[s["sink"]](path))
        full, _, _ = run(s, True, None)  # the memory trace
        lean.trace.close()
        loaded = TraceLog.load_jsonl(path) if s["sink"] == "jsonl" else full.trace
        events, horizon = list(full.trace), full.now
        expected = naive_run(events, horizon)
        for source in (lean.trace, full.trace, loaded, iter(events)):
            assert observed(Run.from_trace(source, horizon)) == expected
    assert lean.trace.membership.kinds == full.trace.membership.kinds


@pytest.mark.parametrize("seed", range(30))
def test_the_fold_is_the_run_of_a_random_trace(seed):
    log = random_membership_trace(seed, n=4 + seed % 12)
    events = list(log)
    expected = naive_run(events)
    for source in (log, iter(events), refold(events, NullSink()),
                   refold(events, CountingSink())):
        assert observed(Run.from_trace(source)) == expected
    assert refold(events, NullSink()).retained == 0


MALFORMED = {
    "joined twice": [(0.5, "join", {"entity": 100}), (1.5, "join", {"entity": 100})],
    "left without joining": [(0.5, "leave", {"entity": 100})],
    "leave before join": [(2.5, "join", {"entity": 100}), (1.5, "leave", {"entity": 100})],
    "rejoined": [(0.5, "join", {"entity": 100}), (1.5, "leave", {"entity": 100}),
                 (2.5, "join", {"entity": 100, "neighbors": (0,)})],
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_sequence_raises_what_the_spec_raises(seed, case):
    events = [*random_membership_trace(seed, n=6), *MALFORMED[case]]
    with pytest.raises(ValueError) as spec:
        naive_run(events)
    for source in (iter(events), refold(events, None), refold(events, NullSink())):
        with pytest.raises(ValueError, match=f"^{re.escape(str(spec.value))}$"):
            Run.from_trace(source)
