"""Spans and self-time folding for the traced pass.

A *span* is one timed call into a layer: name, start, end and the span
that caused it.  A layer's **self time** is its span's duration minus the
part of that interval its child spans cover, so the self times of every
span under one root add up to the root's duration exactly — that is what
lets the traced pass account for its whole wall time layer by layer.

Two granularities share the arithmetic:

* **folded** probes (:meth:`Tracer.fold`, :meth:`Tracer.timed`) wrap
  per-event entry points (queue push/pop, ``Network.send``, handlers …).
  They keep no span object: each call adds to a per-key
  ``[calls, self_s, total_s]`` ledger slot the moment it closes, so a
  150 k-event storm does not hold a million spans.
* **coarse** probes (:meth:`Tracer.coarse`, :meth:`Tracer.span`) wrap the
  run → pass → trial → phase skeleton.  They fold into the ledger too,
  and additionally keep a span record that :meth:`Tracer.write_jsonl`
  writes out at the end.

A key is ``"<layer>:<op>"`` with the layer named after the ``repro``
module it measures (``sim.events:push``).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """The ledger, the open-span stack and the retained coarse spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.epoch = clock()
        #: key -> [calls, self_s, total_s]
        self.ledger: dict[str, list[float]] = {}
        #: Closed coarse spans, in closing order.
        self.spans: list[dict[str, Any]] = []
        #: Identifier shared by the coarse spans of one unit of work (the
        #: trial index inside a trial, the pass number outside one).
        self.ident: Any = None
        # One frame per open span, innermost last: [child_s, slot].  The
        # bottom frame never closes; it absorbs the top-level durations.
        self._frames: list[list[Any]] = [[0.0, None]]
        self._open_ids: list[int | None] = [None]
        self._next_id = 0

    def slot(self, key: str) -> list[float]:
        return self.ledger.setdefault(key, [0, 0.0, 0.0])

    # ------------------------------------------------------------------
    # Folded probes (hot path: everything is a closure local)
    # ------------------------------------------------------------------

    def fold(
        self, fn: Callable[..., Any], key: str, outermost: bool = False
    ) -> Callable[..., Any]:
        """Wrap ``fn`` so each call folds into ``ledger[key]``.

        With ``outermost`` a call made while the innermost open span
        already has this key passes straight through: a handler that
        delegates to its base class's handler is one handler call.
        """
        return functools.update_wrapper(
            self.timed(fn, self.slot(key), outermost), fn
        )

    def timed(
        self, fn: Callable[..., Any], slot: list[float], outermost: bool = False
    ) -> Callable[..., Any]:
        """The bare folded probe around ``fn``, adding to ``slot``.  The
        push probe calls this once per scheduled event action, so it does
        nothing but build the closure."""
        frames = self._frames
        clock = self.clock

        def probe(*args: Any, **kwargs: Any) -> Any:
            if outermost and frames[-1][1] is slot:
                return fn(*args, **kwargs)
            frame = [0.0, slot]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                frames.pop()
                slot[0] += 1
                slot[1] += took - frame[0]
                slot[2] += took
                frames[-1][0] += took

        return probe

    # ------------------------------------------------------------------
    # Coarse spans
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, key: str, ident: Any = None) -> Iterator[None]:
        """Time the ``with`` body as one coarse span.

        ``ident`` (when given) becomes the shared identifier for this span
        and everything recorded inside it.
        """
        slot = self.slot(key)
        frame = [0.0, slot]
        self._frames.append(frame)
        outer_ident = self.ident
        if ident is not None:
            self.ident = ident
        span_id = self._next_id
        self._next_id += 1
        parent = self._open_ids[-1]
        self._open_ids.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            took = end - start
            self._open_ids.pop()
            self._frames.pop()
            slot[0] += 1
            slot[1] += took - frame[0]
            slot[2] += took
            self._frames[-1][0] += took
            self.spans.append({
                "id": span_id,
                "name": key,
                "start": start - self.epoch,
                "end": end - self.epoch,
                "parent": parent,
                "ident": self.ident,
            })
            self.ident = outer_ident

    def coarse(
        self,
        fn: Callable[..., Any],
        key: str,
        ident_of: Callable[..., Any] | None = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` so each call is a retained coarse span.

        ``ident_of`` maps the call's arguments to the shared identifier
        (the trial wrapper passes the spec's plan index).
        """

        @functools.wraps(fn)
        def probe(*args: Any, **kwargs: Any) -> Any:
            ident = ident_of(*args, **kwargs) if ident_of is not None else None
            with self.span(key, ident=ident):
                return fn(*args, **kwargs)

        return probe

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def calls(self, *keys: str) -> int:
        return int(sum(self.ledger.get(key, (0, 0.0, 0.0))[0] for key in keys))

    def self_s(self, *prefixes: str) -> float:
        """Self time summed over every key that starts with a prefix."""
        return sum(
            slot[1] for key, slot in self.ledger.items()
            if key.startswith(prefixes)
        )

    def total_s(self, *keys: str) -> float:
        return sum(self.ledger.get(key, (0, 0.0, 0.0))[2] for key in keys)

    def write_jsonl(self, path: str, header: dict[str, Any]) -> None:
        """One header line, one line per coarse span (closing order), then
        one ``fold`` line per ledger key."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "header", **header}) + "\n")
            for span in self.spans:
                handle.write(json.dumps({"type": "span", **span}) + "\n")
            for key in sorted(self.ledger):
                calls, self_s, total_s = self.ledger[key]
                handle.write(json.dumps({
                    "type": "fold", "key": key, "calls": int(calls),
                    "self_s": self_s, "total_s": total_s,
                }) + "\n")
