"""repro: an executable model of dynamic distributed systems.

Reproduction of Baldoni, Bertier, Raynal & Tucci-Piergiovanni,
*Looking for a Definition of Dynamic Distributed Systems* (PaCT 2007).

The package turns the paper's two-dimensional definition space into
runnable code:

* :mod:`repro.core` — arrival classes, knowledge classes, the system-class
  lattice, the run formalism, the one-time-query specification and the
  solvability decision table;
* :mod:`repro.sim` — a deterministic discrete-event simulator;
* :mod:`repro.topology` — communication graphs and attachment rules;
* :mod:`repro.churn` — generative churn models, synthetic session traces
  and adversary constructions;
* :mod:`repro.protocols` — the wave (flooding/echo) one-time-query
  protocol, the request/collect baseline and push-sum gossip;
* :mod:`repro.analysis` — metrics, statistics and tables;
* :mod:`repro.engine` — the layered experiment engine: plan expansion,
  serial/parallel trial executors, and the schema-versioned result store;
* :mod:`repro.obs` — the observability layer: metrics registry and
  pluggable trace sinks;
* :mod:`repro.bench` — preset scenarios and the callable-based sweep
  harness;
* :mod:`repro.api` — the stable public facade re-exporting the blessed
  surface of all of the above.

Quickstart (the stable facade — :mod:`repro.api`)::

    from repro.api import QueryConfig, run_query

    outcome = run_query(QueryConfig(n=32, topology="er", aggregate="SUM",
                                    ttl=None, seed=7))
    print(outcome.verdict, outcome.latency, outcome.messages)

Many trials at once (the engine)::

    from repro.api import ExecutorSpec, build_plan, run_plan

    plan = build_plan("churn-sweep", grid={"churn_rate": [0.0, 2.0, 8.0]},
                      base={"n": 32, "aggregate": "COUNT"}, trials=8)
    store = run_plan(plan, executor=ExecutorSpec.parallel(jobs=4))
    print(store.summary())   # results independent of the executor
"""

from repro.engine.trials import GossipConfig, QueryConfig, run_gossip, run_query
from repro.engine import (
    ExperimentPlan,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    build_plan,
    run_plan,
)
from repro.core import (
    FiniteArrival,
    InfiniteArrivalBounded,
    InfiniteArrivalFinite,
    InfiniteArrivalUnbounded,
    OneTimeQuerySpec,
    Run,
    StaticArrival,
    SystemClass,
    complete,
    known_diameter,
    known_size,
    local,
    one_time_query_solvability,
    standard_lattice,
)
from repro.sim import Simulator
from repro.synchronous import KnowledgeFlood, SynchronousSystem
from repro.version import package_version

#: Resolved from installed package metadata when available, so installed
#: copies report their true version; result documents embed it as
#: ``repro_version`` for provenance.
__version__ = package_version()

__all__ = [
    "ExperimentPlan",
    "FiniteArrival",
    "GossipConfig",
    "ParallelExecutor",
    "ResultStore",
    "SerialExecutor",
    "build_plan",
    "run_plan",
    "InfiniteArrivalBounded",
    "InfiniteArrivalFinite",
    "InfiniteArrivalUnbounded",
    "OneTimeQuerySpec",
    "QueryConfig",
    "Run",
    "Simulator",
    "SynchronousSystem",
    "KnowledgeFlood",
    "StaticArrival",
    "SystemClass",
    "__version__",
    "complete",
    "known_diameter",
    "known_size",
    "local",
    "one_time_query_solvability",
    "run_gossip",
    "run_query",
    "standard_lattice",
]
