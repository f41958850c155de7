"""Aggregation protocols for the one-time query problem and beyond.

Four families, four trade-offs:

* **wave** (:mod:`~repro.protocols.one_time_query`) — deterministic,
  contributor-tracked, exact while the system holds still; brittle under
  churn.
* **request/collect** (:mod:`~repro.protocols.request_collect`) — the
  complete-knowledge baseline.
* **epidemic** (:mod:`~repro.protocols.gossip`,
  :mod:`~repro.protocols.extrema`) — approximate, no contributor tracking;
  push-sum *loses* departed mass (undercounts under churn), extrema
  propagation *never forgets* (overcounts under churn).
* **continuous** (:mod:`~repro.protocols.tree_aggregation`) — a maintained
  spanning tree convergecasts the aggregate continuously; repair by
  periodic rebuild.
"""
