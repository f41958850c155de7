"""E9 — Message/time complexity scaling of the wave protocol.

Claim: the wave's message cost is Theta(edges) and its latency tracks the
topology diameter — O(1) on expanders, Theta(n) on the line.  The harness
builds one engine trial spec per (family, n) point — prebuilt topologies
ride along as overrides, the family name as a reporting label — runs the
plan, and checks the asymptotic shape by ratio tests.
"""

from __future__ import annotations

import random

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.engine.executor import SerialExecutor, execute_trial
from repro.engine.plan import ExperimentPlan, TrialSpec
from repro.sim.latency import ConstantDelay
from repro.topology import generators as gen

FAMILIES = ("line", "ring", "er", "star")
SIZES = [16, 32, 64, 128]


def build_scaling_plan():
    """One trial per (family, n), topology drawn with the family's own RNG."""
    specs = []
    topologies = {}
    for family in FAMILIES:
        for n in SIZES:
            topo = gen.make(family, n, random.Random(0))
            topologies[(family, n)] = topo
            specs.append(TrialSpec(
                kind="query",
                index=len(specs),
                trial=0,
                seed=0,
                point=(("n", n),),
                labels=(("family", family),),
                overrides=(
                    ("aggregate", "COUNT"),
                    ("delay", ConstantDelay(1.0)),
                    ("horizon", 5000.0),
                    ("topology", topo),
                    ("ttl", None),
                ),
            ))
    plan = ExperimentPlan(name="e9-scaling", root_seed=0,
                          trials_per_point=1, specs=tuple(specs))
    return plan, topologies


def test_e9_scaling(benchmark):
    plan, topologies = build_scaling_plan()
    results = SerialExecutor().run_specs(plan.specs)
    rows = []
    data: dict[tuple[str, int], tuple[float, float, int]] = {}
    for result in results:
        point = result.point_dict()
        family, n = point["family"], point["n"]
        assert result.ok, (family, n)
        edges = topologies[(family, n)].edge_count()
        rows.append([family, n, result.latency, result.messages,
                     result.messages / edges])
        data[(family, n)] = (result.latency, float(result.messages), edges)
    emit(render_table(
        ["topology", "n", "latency", "messages", "msgs_per_edge"],
        rows,
        title="E9: wave cost scaling (echo mode, unit hop delay)",
    ))
    # Message cost is Theta(edges): between 2 and 4 messages per edge.
    for (family, n), (_, messages, edges) in data.items():
        assert 2.0 <= messages / edges <= 4.0, (family, n)
    # Latency on the line grows linearly: doubling n roughly doubles it.
    line_ratio = data[("line", 128)][0] / data[("line", 16)][0]
    assert 6.0 <= line_ratio <= 10.0  # ~8x for 8x the n
    # Latency on the star is flat.
    star_ratio = data[("star", 128)][0] / data[("star", 16)][0]
    assert star_ratio < 1.5

    representative = next(
        spec for spec in plan.specs
        if spec.point_dict() == {"family": "er", "n": 64}
    )
    benchmark.pedantic(lambda: execute_trial(representative),
                       rounds=3, iterations=1)
