"""Observability: metrics, trace sinks and profiling support.

``repro.obs`` is the layer that makes a run *inspectable*:

* :mod:`repro.obs.metrics` — a per-simulator registry of counters, gauges
  and fixed-bucket histograms, written by the scheduler, the network,
  churn models, the failure detector and the protocol base class, and
  embedded per trial in schema-v2 result documents;
* :mod:`repro.obs.sinks` — pluggable destinations for the trace-event
  stream (in-memory, JSONL streaming, counting, null), selected per trial
  with ``trace_sink=...`` or ``--trace-sink``;
* :mod:`repro.obs.codec` — the tuple/frozenset-preserving JSON codec
  shared by trace persistence and the streaming sink;
* :mod:`repro.obs.causal` — the happens-before relation over a trace,
  computed by one pass and never stored, and the per-query causal
  influence report;
* :mod:`repro.obs.check` — streaming trace invariant checkers and the
  :class:`~repro.obs.check.CheckingSink` decorator;
* :mod:`repro.obs.export` — Chrome Trace Format (Perfetto) and ASCII
  timeline exporters, including the engine-span merge behind
  ``repro trace export --engine``;
* :mod:`repro.obs.spans` — hierarchical wall-clock spans of the harness
  itself and the ``repro-run-telemetry`` v1 wire format (the substrate of
  :mod:`repro.engine.telemetry`).

Import the blessed names from :mod:`repro.api`.
"""
