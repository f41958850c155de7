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
* :mod:`repro.api` — the stable public facade: the one module that
  re-exports the blessed surface of all of the above.  The packages
  themselves export nothing; import from :mod:`repro.api` or from the
  module that defines the name.

Quickstart (the stable facade — :mod:`repro.api`)::

    >>> from repro.api import QueryConfig, run_query
    >>> outcome = run_query(QueryConfig(n=32, topology="er", aggregate="SUM",
    ...                                 ttl=None, seed=7))
    >>> print(outcome.verdict, outcome.latency, outcome.messages)

Many trials at once (the engine)::

    >>> from repro.api import ExecutorSpec, build_plan, run_plan
    >>> plan = build_plan("churn-sweep", grid={"churn_rate": [0.0, 2.0, 8.0]},
    ...                   base={"n": 32, "aggregate": "COUNT"}, trials=8)
    >>> store = run_plan(plan, executor=ExecutorSpec.parallel(jobs=4))
    >>> print(store.summary())   # results independent of the executor
"""


def __getattr__(name: str) -> str:
    # PEP 562: ``repro.__version__`` resolves (and reads the installed
    # distribution metadata) when asked, not on every ``import repro.x``.
    if name == "__version__":
        import repro.version

        return repro.version.package_version()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
