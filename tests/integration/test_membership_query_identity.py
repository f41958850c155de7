"""Byte-identity sweep: same code, different membership query.

The differential suites compare backends and sinks.  This one pins the
paths that *ask the network about its membership* — every attachment rule
crossed with every churn kind that reads the population size — to literal
digests, so swapping ``len(present())`` for ``population()``, a neighbor
set for ``degree()``, or the per-join snapshot for a live view can never
move a draw, an event or a trace line unnoticed.

Configs cannot name an attachment rule, so the runs are driven through
the raw ``Simulator`` + churn-model API.
"""

from __future__ import annotations

import pytest

from repro.churn.lifetimes import ExponentialLifetime
from repro.churn.models import ArrivalDepartureChurn, NoChurn, ReplacementChurn
from repro.engine.recovery.checkpoint import record_digest
from repro.obs.codec import encode_event
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.topology.attachment import (
    ChainAttachment,
    DegreeProportionalAttachment,
    UniformAttachment,
)

SEED = 2007
N = 12
HORIZON = 30.0

RULES = {
    "uniform": lambda: UniformAttachment(2),
    "degree": lambda: DegreeProportionalAttachment(2),
    "chain": ChainAttachment,
}

CHURN = {
    "arrival-departure": lambda factory, rule: ArrivalDepartureChurn(
        factory, arrival_rate=0.8, lifetimes=ExponentialLifetime(6.0),
        attachment=rule, doom_initial=True,
    ),
    "arrival-departure-cap": lambda factory, rule: ArrivalDepartureChurn(
        factory, arrival_rate=0.8, lifetimes=ExponentialLifetime(6.0),
        attachment=rule, concurrency_cap=N - 4, doom_initial=True,
    ),
    "replacement": lambda factory, rule: ReplacementChurn(
        factory, rate=0.6, attachment=rule,
    ),
    "none": lambda factory, rule: NoChurn(),
}

#: ``record_digest`` (canonical JSON, sha256/16) of the trial record, taken
#: at the parent of the linear-time population build (commit c15db79).  The
#: six ``arrival-departure*`` cells were re-pinned when the departures of
#: doomed initial members started counting in ``churn.leaves``; nothing
#: else in those records moved.
EXPECTED = {
    ("chain", "arrival-departure"): "95dfe0ff11599e6e",
    ("chain", "arrival-departure-cap"): "2b83b6a4d0dc9824",
    ("chain", "none"): "cac981a6778dcd92",
    ("chain", "replacement"): "4a0745a0660f7c1d",
    ("degree", "arrival-departure"): "cfbf076227f94138",
    ("degree", "arrival-departure-cap"): "643d89e3e08667bd",
    ("degree", "none"): "c3d46708a5e4cb44",
    ("degree", "replacement"): "96a34da4695c7874",
    ("uniform", "arrival-departure"): "36f69c6a85680efd",
    ("uniform", "arrival-departure-cap"): "37ab8f3732b7e408",
    ("uniform", "none"): "783859be15deae53",
    ("uniform", "replacement"): "625e51d53dc34c8a",
}


class Pinger(Process):
    """Pings one random neighbor per period and greets every newcomer, so
    the overlay the attachment rule grows shows up in the message trace."""

    def on_start(self) -> None:
        self.set_timer(self.rng.uniform(0.0, 1.0), "ping")

    def on_timer(self, name: str, payload: object) -> None:
        target = self.random_neighbor()
        if target is not None:
            self.send(target, "PING")
        self.set_timer(1.0, "ping")

    def on_neighbor_join(self, pid: int) -> None:
        self.send(pid, "HELLO")


def trial_record(rule_name: str, churn_name: str) -> dict:
    """Run one trial and return its record (JSON-ready)."""
    sim = Simulator(seed=SEED)
    rule = RULES[rule_name]()
    pids: list[int] = []
    for _ in range(N):  # a ring, so degrees differ once churn starts
        pids.append(sim.spawn(Pinger(1.0), pids[-1:]).pid)
    sim.network.add_edge(pids[0], pids[-1])
    model = CHURN[churn_name](lambda: Pinger(1.0), rule)
    model.immortal.add(pids[0])
    model.install(sim, stop_at=HORIZON - 5.0)
    # Scheduled joins go through ``schedule_join``'s chooser: the rule is
    # consulted there too (so the no-churn cells still depend on it), and
    # what the chooser saw of the membership goes into the record.
    join_rng = sim.rng_for("identity-joins")
    join_views: list[list[int]] = []

    def choose(present):
        join_views.append(sorted(present - model.immortal))
        return rule.choose(sim.network, join_rng)

    for at in (3.0, 11.0, 19.0):
        sim.schedule_join(at, lambda: Pinger(1.0), choose)
    sim.run(until=HORIZON)
    return {
        "arrival_class": repr(model.arrival_class()),
        "churn": {
            "joins": model.joins, "leaves": model.leaves,
            "rejected": getattr(model, "rejected", 0),
        },
        "events_executed": sim.events_executed,
        "join_views": join_views,
        "metrics": sim.metrics_snapshot(),
        "present": sorted(sim.network.present()),
        "edges": sorted(sim.network.edges()),
        "trace": [encode_event(e.time, e.kind, e.data) for e in sim.trace],
    }


@pytest.mark.parametrize("rule_name,churn_name", sorted(EXPECTED))
def test_membership_queries_leave_the_record_byte_identical(rule_name, churn_name):
    digest = record_digest(trial_record(rule_name, churn_name))
    assert digest == EXPECTED[(rule_name, churn_name)]


def test_cells_are_distinct_where_the_rule_matters():
    # Guard against a vacuous sweep: under churn the three rules must grow
    # three different overlays (with no churn only the scheduled joins
    # consult the rule, and they still differ).
    for churn_name in CHURN:
        digests = {EXPECTED[(rule, churn_name)] for rule in RULES}
        assert len(digests) == len(RULES), churn_name


if __name__ == "__main__":  # pragma: no cover - regenerate the table
    for key in sorted(EXPECTED):
        print(f"    {key!r}: \"{record_digest(trial_record(*key))}\",")
