"""The paper's contribution, executable.

Two orthogonal dimensions define the space of dynamic distributed systems:

* the **entity dimension** (:mod:`repro.core.arrival`) — how the population
  evolves, from static through finite arrival to infinite arrival with
  unbounded concurrency;
* the **geography dimension** (:mod:`repro.core.geography`) — what each
  entity can know, from complete membership down to pure neighbor knowledge.

A :class:`~repro.core.classes.SystemClass` is a point of the product space.
:mod:`repro.core.runs` gives the run formalism the classes quantify over,
:mod:`repro.core.spec` makes the canonical one-time query problem checkable
against simulation traces, and :mod:`repro.core.solvability` encodes the
paper's solvability landscape as an executable decision table.
"""
