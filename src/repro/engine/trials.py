"""Trial execution: one config in, one fully checked outcome out.

This is the lowest layer of the experiment engine.  A config object —
:class:`QueryConfig`, :class:`GossipConfig` or :class:`DisseminationConfig`
— describes a complete scenario (population, topology, protocol, churn,
delays) and the matching ``run_*`` function executes it on a fresh
:class:`~repro.sim.scheduler.Simulator` and returns an outcome carrying the
specification verdict, the ground truth and the cost metrics.  The three
kinds share one kernel (:func:`_install`, :func:`_simulate`,
:func:`_measured`): only the protocol, the trial's one scheduled action and
the check differ.  :data:`KINDS` registers each kind's config and runner.

Import the configs and runners from :mod:`repro.api`; orchestrate many
trials through :mod:`repro.engine.plan` and :mod:`repro.engine.executor`
instead of calling these functions in a loop.
"""

from __future__ import annotations

import itertools
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator

from repro.analysis.metrics import message_cost, relative_error
from repro.churn.spec import ChurnBuilder, ChurnSpec, resolve_churn
from repro.core.aggregates import Aggregate, by_name
from repro.core.dissemination_spec import (
    BroadcastRecord,
    DisseminationSpec,
    DisseminationVerdict,
    extract_broadcasts,
)
from repro.core.runs import Run
from repro.core.spec import OneTimeQuerySpec, QueryRecord, Verdict, extract_queries
from repro.faults.injector import install_plan
from repro.faults.spec import FaultPlan
from repro.obs.check import CheckingSink
from repro.obs.sinks import MemorySink, TraceSink, make_sink
from repro.protocols.base import QueryResult
from repro.protocols.dissemination import AntiEntropyNode, FloodNode
from repro.protocols.ft_wave import FaultTolerantWaveNode
from repro.protocols.gossip import PushSumNode
from repro.protocols.one_time_query import WaveNode
from repro.protocols.request_collect import RequestCollectNode
from repro.resilience.degradation import CoverageReport
from repro.resilience.spec import ResilienceSpec
from repro.resilience.transport import ReliableTransport, install_resilience
from repro.sim import trace as tr
from repro.sim.errors import ConfigurationError
from repro.sim.latency import BernoulliLoss, DelayModel, UniformDelay
from repro.sim.network import Network
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.topology import generators
from repro.topology.graph import Topology

#: Population size at which an in-memory trace sink becomes a memory
#: hazard: a 10⁴-entity trial records millions of TraceEvents, and the
#: MemorySink keeps every one.  Above this, a trial that asks for
#: ``trace_sink="memory"`` warns (once per process).
LARGE_TRIAL_THRESHOLD = 10_000

_warned_memory_sink_scale = False


def _make_simulator(config: Any, **kwargs: Any) -> Simulator:
    """Construct the trial simulator with the configured trace sink.

    ``config.trace_sink`` is a sink name (see
    :data:`repro.obs.sinks.SINK_NAMES`) or a prebuilt
    :class:`~repro.obs.sinks.TraceSink`; ``config.trace_path`` supplies the
    output file for the ``"jsonl"`` sink.  With ``config.check_invariants``
    the sink is wrapped in a :class:`~repro.obs.check.CheckingSink`, so the
    four trace invariants are verified online and any violations are
    counted under ``check.violations`` in the trial's metrics block.

    Large populations (``n >=`` :data:`LARGE_TRIAL_THRESHOLD`) with an
    explicit in-memory sink trigger a one-time :class:`ResourceWarning` —
    the run still proceeds, but peak memory will be dominated by retained
    trace events.
    """
    global _warned_memory_sink_scale
    sink = make_sink(config.trace_sink, path=config.trace_path)
    n = getattr(config, "n", 0)
    if (isinstance(sink, MemorySink) and isinstance(n, int)
            and n >= LARGE_TRIAL_THRESHOLD and not _warned_memory_sink_scale):
        _warned_memory_sink_scale = True
        import warnings

        warnings.warn(
            f"in-memory trace sink with n={n} >= {LARGE_TRIAL_THRESHOLD}: "
            "every trace event is retained, which dominates memory at this "
            "scale. Leave trace_sink at its default ('null') or use "
            "'counts' / 'jsonl' for large runs.",
            ResourceWarning,
            stacklevel=2,
        )
    if getattr(config, "check_invariants", False):
        sink = CheckingSink(sink)
    return Simulator(seed=config.seed, trace_sink=sink, **kwargs)


@dataclass
class QueryConfig:
    """A complete one-time-query scenario.

    Attributes:
        n: initial population size.
        topology: a family name from :data:`repro.topology.generators.FAMILIES`
            or a prebuilt :class:`Topology` over nodes ``0..n-1``.
        protocol: ``"wave"`` (flooding echo), ``"ft_wave"`` (wave with a
            heartbeat detector; use with ``notify_leaves=False``) or
            ``"request_collect"`` (complete-knowledge baseline; forces a
            complete network).
        aggregate: aggregate name (``COUNT``/``SUM``/``AVG``/``MIN``/``MAX``/``SET``).
        ttl: wave hop budget; ``None`` selects echo mode.
        deadline: querier time budget for a partial return.
        query_at: simulation time at which the query is issued.
        horizon: run the simulation until this time.
        seed: root seed for all randomness.
        delay: message delay model (default uniform [0.5, 1.5]).
        loss_rate: Bernoulli message loss probability.
        churn: optional churn — a declarative (picklable)
            :class:`~repro.churn.spec.ChurnSpec`, or the legacy builder
            callable receiving the process factory.
        churn_stop: freeze churn at this time (finite-arrival phases).
        faults: optional fault plan — a declarative (picklable)
            :class:`~repro.faults.spec.FaultPlan` or a builtin preset name
            (see :data:`repro.faults.spec.FAULT_PRESETS`).  ``None`` and
            ``FaultPlan.none()`` install nothing and are byte-identical.
        resilience: optional recovery layer — a declarative (picklable)
            :class:`~repro.resilience.spec.ResilienceSpec` or a builtin
            preset name (see
            :data:`repro.resilience.spec.RESILIENCE_PRESETS`).  ``None``
            and a disabled spec install nothing and are byte-identical.
        trace_sink: transport-event sink — a name from
            :data:`repro.obs.sinks.SINK_NAMES` (``"memory"``/``"jsonl"``/
            ``"null"``/``"counts"``) or a prebuilt sink instance.  A trial
            retains what its checker reads: the default ``"null"`` keeps
            the protocol-milestone events, folds the membership and contact
            events (:data:`repro.obs.sinks.FOLDED_KINDS`) into the log's
            membership fold (so verdicts and documents are identical under
            every sink) and drops the rest; ask for ``"memory"`` (or
            ``"jsonl"``) when you will read ``send``/``deliver``/``join``/…
            events off the outcome — reading a dropped kind raises
            ``ConfigurationError``.
        trace_path: output file for the ``"jsonl"`` sink.
        check_invariants: verify the four trace invariants online (see
            :mod:`repro.obs.check`); violations are counted under
            ``check.violations`` in the trial's metrics block.
        value_of: maps an arrival index (0-based, initial population first)
            to the entity's local value.  Default: ``float(index)``.
        protect_querier: exempt the querier from random victim selection.
        notify_leaves: if ``False`` departures are silent (no perfect
            failure detection; pair with ``protocol="ft_wave"``).
        detector_timeout: heartbeat suspicion threshold for ``ft_wave``.
    """

    n: int = 32
    topology: str | Topology = "er"
    protocol: str = "wave"
    aggregate: str = "SUM"
    ttl: int | None = None
    deadline: float | None = None
    query_at: float = 5.0
    horizon: float = 500.0
    seed: int = 0
    delay: DelayModel | None = None
    loss_rate: float = 0.0
    churn: ChurnSpec | ChurnBuilder | None = None
    churn_stop: float | None = None
    faults: FaultPlan | str | None = None
    resilience: ResilienceSpec | str | None = None
    value_of: Callable[[int], Any] = field(default=float)
    protect_querier: bool = True
    notify_leaves: bool = True
    detector_timeout: float = 3.0
    trace_sink: str | TraceSink = "null"
    trace_path: str | None = None
    check_invariants: bool = False

    def aggregate_obj(self) -> Aggregate:
        return by_name(self.aggregate)


@dataclass
class QueryOutcome:
    """Everything measured about one scenario execution."""

    config: QueryConfig
    verdict: Verdict
    record: QueryRecord
    local_result: QueryResult | None
    truth: Any
    error: float
    messages: int
    run: Run
    trace: tr.TraceLog
    querier: int
    reachable_at_issue: frozenset[int]
    events_executed: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Set when a resilience layer with ``partial_results`` ran: the
    #: explicit statement of what the (possibly partial) answer covers.
    coverage_report: CoverageReport | None = None

    @property
    def terminated(self) -> bool:
        return self.verdict.terminated

    @property
    def completeness(self) -> float:
        return self.verdict.completeness_ratio

    @property
    def latency(self) -> float:
        if self.record.return_time is None:
            return float("inf")
        return self.record.return_time - self.record.issue_time

    @property
    def ok(self) -> bool:
        return self.verdict.ok


def reachable_now(network: Network, start: int) -> frozenset[int]:
    """BFS over the *current* communication graph from ``start``."""
    if not network.is_present(start):
        return frozenset()
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nbr in network.neighbors(node):
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return frozenset(seen)


def build_population(
    sim: Simulator,
    config: QueryConfig | GossipConfig | DisseminationConfig,
    factory: Callable[[], Process],
) -> list[int]:
    """Spawn the initial population wired per the configured topology."""
    if isinstance(config.topology, Topology):
        topo = config.topology
        if sorted(topo.nodes()) != list(range(config.n)):
            raise ConfigurationError(
                "prebuilt topology must cover nodes 0..n-1 exactly"
            )
    else:
        topo = generators.make(config.topology, config.n, sim.rng_for("topology"))
    pids: list[int] = []
    for node in range(config.n):
        neighbors = [p for p in topo.neighbors(node) if p < node]
        if sim.network.complete:
            neighbors = []
        proc = sim.spawn(factory(), neighbors)
        pids.append(proc.pid)
    return pids


def _install(
    sim: Simulator,
    config: QueryConfig | GossipConfig | DisseminationConfig,
    factory: Callable[[], Process],
    protect: bool,
    stop_at: float | None = None,
) -> tuple[int, ReliableTransport | None]:
    """Build the population, then install churn, the fault plan and the
    resilience layer around its first entity, the anchor.

    With ``protect`` the anchor is immortal under churn and exempt from
    fault victims.  Returns the anchor's pid and the resilience transport
    (``None`` when none is configured).
    """
    anchor = build_population(sim, config, factory)[0]
    protected = (anchor,) if protect else ()
    churn_builder = resolve_churn(config.churn)
    if churn_builder is not None:
        model = churn_builder(factory)
        model.immortal.update(protected)
        model.install(sim, stop_at=stop_at)
    install_plan(config.faults, sim, factory=factory, protected=protected)
    return anchor, install_resilience(config.resilience, sim)


def _simulate(
    sim: Simulator, at: float, action: Callable[[], None], label: str,
    until: float,
) -> tr.TraceLog:
    """Schedule the trial's one action, run to ``until`` under the
    ``simulate`` timer and close the trace, which is returned."""
    sim.at(at, action, label=label)
    with sim.metrics.timer("simulate"):
        sim.run(until=until)
    sim.trace.close()
    return sim.trace


def _measured(sim: Simulator) -> dict[str, Any]:
    """The cost fields every outcome carries.  Called last, so the metrics
    snapshot includes the ``check`` timer."""
    return {
        "messages": message_cost(sim.trace),
        "trace": sim.trace,
        "events_executed": sim.events_executed,
        "metrics": sim.metrics_snapshot(include_timing=True),
    }


def run_query(config: QueryConfig) -> QueryOutcome:
    """Execute a scenario end to end and check it against the spec."""
    if config.protocol not in ("wave", "ft_wave", "request_collect"):
        raise ConfigurationError(
            f"unknown protocol {config.protocol!r}; use 'wave', 'ft_wave' "
            "or 'request_collect'"
        )
    complete = config.protocol == "request_collect"
    # The process constructor and the arrival values, bound once: each
    # call makes the next arrival's process, in a C-level ``partial`` that
    # adds no frame to the per-arrival path.
    make: Callable[[Any], Process] = WaveNode
    if complete:
        make = RequestCollectNode
    elif config.protocol == "ft_wave":
        make = partial(
            FaultTolerantWaveNode, period=1.0, timeout=config.detector_timeout
        )
    factory = partial(next, map(make, map(config.value_of, itertools.count())))
    # ``closing`` runs after the outcome and its metrics snapshot are
    # built: the trial frees itself without waiting for a cyclic collection.
    with closing(_make_simulator(
        config,
        delay_model=config.delay or UniformDelay(),
        loss_model=BernoulliLoss(config.loss_rate) if config.loss_rate else None,
        complete=complete,
        notify_leaves=config.notify_leaves,
    )) as sim:
        querier_pid, transport = _install(
            sim, config, factory, config.protect_querier, config.churn_stop
        )
        issue_state: dict[str, Any] = {"reachable": frozenset(), "issued": False}

        def issue() -> None:
            if not sim.network.is_present(querier_pid):
                return  # the querier died before the query; outcome: no query
            issue_state["reachable"] = reachable_now(sim.network, querier_pid)
            issue_state["issued"] = True
            querier = sim.network.process(querier_pid)
            if complete:
                assert isinstance(querier, RequestCollectNode)
                querier.issue_query(config.aggregate_obj(), deadline=config.deadline)
            else:
                assert isinstance(querier, WaveNode)
                querier.issue_query(
                    config.aggregate_obj(), ttl=config.ttl, deadline=config.deadline
                )

        trace = _simulate(
            sim, config.query_at, issue, "experiment:issue-query", config.horizon
        )
        with sim.metrics.timer("check"):
            run = Run.from_trace(trace, horizon=max(sim.now, config.horizon))
            # If the querier never got to ask (it left first), a vacuous
            # non-terminating record lets callers count the failure.
            records = extract_queries(trace)
            record = records[0] if records else QueryRecord(
                qid=-1, querier=querier_pid, aggregate=config.aggregate,
                issue_time=config.query_at, return_time=None,
            )

            spec = OneTimeQuerySpec(restrict_core_to=issue_state["reachable"] or None)
            verdict = spec.check_query(trace, record, run)

            truth, error = _ground_truth(
                config, run, record, issue_state["reachable"]
            )

        coverage_report = None
        if (
            transport is not None
            and transport.spec.partial_results
            and issue_state["issued"]
        ):
            coverage_report = CoverageReport.from_query(
                trace, record, issue_state["reachable"]
            )

        local_result = None
        if sim.network.is_present(querier_pid):
            results = getattr(sim.network.process(querier_pid), "results", None)
            if results:
                local_result = results[0]

        return QueryOutcome(
            config=config,
            verdict=verdict,
            record=record,
            local_result=local_result,
            truth=truth,
            error=error,
            run=run,
            querier=querier_pid,
            reachable_at_issue=issue_state["reachable"],
            coverage_report=coverage_report,
            **_measured(sim),
        )


def _ground_truth(
    config: QueryConfig,
    run: Run,
    record: QueryRecord,
    reachable: frozenset[int],
) -> tuple[Any, float]:
    """The aggregate over the obligation set, and the relative error.

    The obligation set is the stable core of the query window intersected
    with the entities reachable from the querier at issue time — exactly
    what the specification's validity clause requires of any protocol.
    """
    window_end = record.return_time if record.return_time is not None else run.horizon
    obligation = run.stable_core(record.issue_time, window_end)
    if reachable:
        obligation &= reachable
    if not obligation:
        return None, float("inf")
    aggregate = config.aggregate_obj()
    truth = aggregate.of(run.values[pid] for pid in sorted(obligation))
    if record.result is None:
        return truth, float("inf")
    if isinstance(truth, (int, float)) and isinstance(record.result, (int, float)):
        return truth, relative_error(float(record.result), float(truth))
    # Set-valued aggregates: Jaccard distance as the error measure.
    if isinstance(truth, frozenset) and isinstance(record.result, frozenset):
        union = truth | record.result
        if not union:
            return truth, 0.0
        return truth, 1.0 - len(truth & record.result) / len(union)
    return truth, 0.0 if truth == record.result else 1.0


# ----------------------------------------------------------------------
# Gossip scenarios
# ----------------------------------------------------------------------


@dataclass
class GossipConfig:
    """A push-sum estimation scenario.

    ``mode`` is ``"avg"`` (every node weight 1; estimate of the mean value)
    or ``"count"`` (one seeded weight; estimate of the population size).
    """

    n: int = 32
    topology: str | Topology = "er"
    mode: str = "avg"
    rounds: int = 40
    period: float = 1.0
    seed: int = 0
    delay: DelayModel | None = None
    churn: ChurnSpec | ChurnBuilder | None = None
    faults: FaultPlan | str | None = None
    resilience: ResilienceSpec | str | None = None
    value_of: Callable[[int], float] = field(default=float)
    protect_reader: bool = True
    trace_sink: str | TraceSink = "null"
    trace_path: str | None = None
    check_invariants: bool = False


@dataclass
class GossipOutcome:
    """Result of a gossip scenario."""

    config: GossipConfig
    estimate: float
    truth: float
    error: float
    messages: int
    run: Run
    trace: tr.TraceLog
    read_time: float
    events_executed: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)


def run_gossip(config: GossipConfig) -> GossipOutcome:
    """Execute a push-sum scenario and measure estimate accuracy."""
    if config.mode not in ("avg", "count"):
        raise ConfigurationError(f"unknown gossip mode {config.mode!r}")
    # Arrival ``i`` gets the ``i``-th value and weight (see run_query).
    values: Iterator[float] = map(config.value_of, itertools.count())
    weights: Iterator[float] = itertools.repeat(1.0)
    if config.mode == "count":  # the seed node (index 0) carries the unit weight
        values = itertools.repeat(1.0)
        weights = itertools.chain((1.0,), itertools.repeat(0.0))
    make = partial(PushSumNode, period=config.period)
    factory = partial(next, map(make, values, weights))

    with closing(
        _make_simulator(config, delay_model=config.delay or UniformDelay())
    ) as sim:
        reader_pid, _ = _install(sim, config, factory, config.protect_reader)
        read_time = config.rounds * config.period
        state: dict[str, float] = {"estimate": float("nan"), "truth": float("nan")}

        def read() -> None:
            if not sim.network.is_present(reader_pid):
                return
            node = sim.network.process(reader_pid)
            assert isinstance(node, PushSumNode)
            state["estimate"] = node.read_estimate()
            present = sim.network.present_sorted()
            if config.mode == "count":
                state["truth"] = float(len(present))
            else:
                values = [float(sim.network.process(pid).value) for pid in present]
                state["truth"] = sum(values) / len(values) if values else float("nan")

        trace = _simulate(
            sim, read_time, read, "experiment:read-estimate",
            read_time + 2 * config.period,
        )
        with sim.metrics.timer("check"):
            run = Run.from_trace(trace, horizon=sim.now)
        return GossipOutcome(
            config=config,
            estimate=state["estimate"],
            truth=state["truth"],
            error=relative_error(state["estimate"], state["truth"]),
            run=run,
            read_time=read_time,
            **_measured(sim),
        )


# ----------------------------------------------------------------------
# Dissemination scenarios
# ----------------------------------------------------------------------


@dataclass
class DisseminationConfig:
    """A complete dissemination scenario.

    Attributes:
        n: initial population size.
        topology: a generator family name or a prebuilt topology.
        protocol: ``"flood"`` (one-shot) or ``"anti_entropy"`` (repairing).
        broadcast_at: when the origin publishes its value.
        audit_at: when coverage is measured.
        ae_period: reconciliation period for anti-entropy.
        seed, delay, churn: as in :class:`QueryConfig`.
        protect_origin: exempt the origin from random victim selection.
    """

    n: int = 24
    topology: str | Topology = "er"
    protocol: str = "anti_entropy"
    broadcast_at: float = 10.0
    audit_at: float = 80.0
    ae_period: float = 2.0
    seed: int = 0
    delay: DelayModel | None = None
    churn: ChurnSpec | ChurnBuilder | None = None
    faults: FaultPlan | str | None = None
    resilience: ResilienceSpec | str | None = None
    protect_origin: bool = True
    value: object = "payload"
    trace_sink: str | TraceSink = "null"
    trace_path: str | None = None
    check_invariants: bool = False


@dataclass
class DisseminationOutcome:
    """Everything measured about one dissemination scenario."""

    config: DisseminationConfig
    verdict: DisseminationVerdict
    record: BroadcastRecord
    messages: int
    run: Run
    trace: tr.TraceLog
    origin: int
    events_executed: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        return self.verdict.coverage

    @property
    def population_coverage(self) -> float:
        return self.verdict.population_coverage

    @property
    def ok(self) -> bool:
        return self.verdict.ok


def run_dissemination(config: DisseminationConfig) -> DisseminationOutcome:
    """Execute a dissemination scenario end to end and audit it."""
    if config.protocol not in ("flood", "anti_entropy"):
        raise ConfigurationError(
            f"unknown protocol {config.protocol!r}; use 'flood' or "
            "'anti_entropy'"
        )
    if config.audit_at <= config.broadcast_at:
        raise ConfigurationError(
            f"audit time {config.audit_at} must follow broadcast time "
            f"{config.broadcast_at}"
        )

    factory: Callable[[], Process] = partial(FloodNode, 1.0)
    if config.protocol == "anti_entropy":
        factory = partial(AntiEntropyNode, 1.0, period=config.ae_period)

    with closing(
        _make_simulator(config, delay_model=config.delay or UniformDelay())
    ) as sim:
        origin_pid, _ = _install(sim, config, factory, config.protect_origin)

        def publish() -> None:
            if sim.network.is_present(origin_pid):
                sim.network.process(origin_pid).broadcast_value(config.value)

        trace = _simulate(
            sim, config.broadcast_at, publish, "experiment:broadcast",
            config.audit_at,
        )
        # An origin that left before it could publish recorded nothing: a
        # vacuous record (bid -1) audits as a failed broadcast.
        record = (extract_broadcasts(trace)
                  or [BroadcastRecord(-1, origin_pid, config.broadcast_at)])[0]
        with sim.metrics.timer("check"):
            run = Run.from_trace(trace, horizon=config.audit_at)
            verdict = DisseminationSpec().check_broadcast(
                trace, record, at=config.audit_at, run=run
            )
        return DisseminationOutcome(
            config=config,
            verdict=verdict,
            record=record,
            run=run,
            origin=origin_pid,
            **_measured(sim),
        )


#: The trial kinds: each kind's config type and runner.  Plans, the
#: executor and the experiment schema read the kind set from here alone.
KINDS: dict[str, tuple[type, Callable[[Any], Any]]] = {
    "query": (QueryConfig, run_query),
    "gossip": (GossipConfig, run_gossip),
    "dissemination": (DisseminationConfig, run_dissemination),
}
