"""E22 — Recovery audit: the resilience layer vs every fault preset.

Two arms per builtin fault preset, three seeds each, over the honest
configuration (fault-tolerant wave, silent departures): a **plain** arm
with no recovery layer, and a **resilient** arm running the ``full``
preset (ARQ + adaptive RTO + circuit breaker + adaptive detector +
coverage reports).

The audit pins the robustness contract from two sides:

* **liveness** — every resilient trial terminates, and returns either a
  complete answer or an explicit partial one whose
  :class:`~repro.resilience.degradation.CoverageReport` names a non-empty
  reached set; the layer never converts a lossy network into a hang.
* **delivery** — the resilient arm's message-level delivery ratio
  (distinct tracked messages delivered / tracked messages sent) is at
  least the plain arm's (distinct wave messages delivered / sent) on
  every preset: retransmission never does worse than fire-and-forget.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.engine.trials import QueryConfig, run_query
from repro.faults.presets import FAULT_PRESETS
from repro.sim import trace as tr

SEEDS = (2007, 2008, 2009)


def _config(seed: int, preset: str, resilience: str | None) -> QueryConfig:
    # The plain arm's delivery ratio is read off send/deliver events, so
    # it asks for full retention; the resilient arm reads only counters.
    return QueryConfig(
        n=16, topology="er", protocol="ft_wave", aggregate="COUNT",
        horizon=150.0, notify_leaves=False, seed=seed, faults=preset,
        resilience=resilience,
        trace_sink="memory" if resilience is None else "null",
    )


def _wave_delivery_ratio(trace: tr.TraceLog) -> float:
    """Distinct wave messages delivered over distinct wave messages sent.

    Distinct ``msg_id``s dedup fault-plane duplicates (which reuse the
    original id) while counting retransmissions (which get fresh ids), so
    the same metric reads both arms fairly.
    """
    def wave_ids(kind: str) -> set[int]:
        return {
            event["msg_id"] for event in trace.events(kind)
            if event["msg_kind"].startswith("WAVE")
        }

    sent, delivered = wave_ids(tr.SEND), wave_ids(tr.DELIVER)
    if not sent:
        return 1.0
    return len(delivered & sent) / len(sent)


def _session_delivery_ratio(counters: dict) -> float:
    sends = counters.get("resilience.sends", 0)
    if not sends:
        return 1.0
    return counters.get("resilience.delivered", 0) / sends


def test_e22_recovery_audit():
    rows = []
    for preset in sorted(FAULT_PRESETS):
        plain_ratios, resilient_ratios = [], []
        plain_terminated = resilient_terminated = 0
        abandoned = 0
        coverage_ratios = []
        for seed in SEEDS:
            plain = run_query(_config(seed, preset, resilience=None))
            plain_terminated += int(plain.terminated)
            plain_ratios.append(_wave_delivery_ratio(plain.trace))

            resilient = run_query(_config(seed, preset, resilience="full"))
            counters = resilient.metrics["counters"]
            resilient_terminated += int(resilient.terminated)
            resilient_ratios.append(_session_delivery_ratio(counters))
            abandoned += counters.get("resilience.abandoned", 0)

            # Liveness: terminate with a full answer, or a partial one
            # carrying an explicit non-empty coverage witness.
            assert resilient.record.return_time is not None, (
                f"{preset} seed {seed}: resilient query never returned"
            )
            report = resilient.coverage_report
            assert report is not None, (
                f"{preset} seed {seed}: no coverage report emitted"
            )
            assert report.complete or len(report.reached) > 0, (
                f"{preset} seed {seed}: partial answer with empty coverage"
            )
            coverage_ratios.append(report.coverage_ratio)

        plain_mean = sum(plain_ratios) / len(plain_ratios)
        resilient_mean = sum(resilient_ratios) / len(resilient_ratios)
        # Delivery: retransmission never does worse than fire-and-forget.
        assert resilient_mean >= plain_mean - 1e-9, (
            f"{preset}: resilient delivery {resilient_mean:.3f} fell below "
            f"plain {plain_mean:.3f}"
        )
        rows.append([
            preset,
            round(plain_mean, 3),
            round(resilient_mean, 3),
            f"{plain_terminated}/{len(SEEDS)}",
            f"{resilient_terminated}/{len(SEEDS)}",
            abandoned,
            round(sum(coverage_ratios) / len(coverage_ratios), 3),
        ])
    emit(render_table(
        ["preset", "plain dlv", "resil dlv", "plain term", "resil term",
         "abandoned", "coverage"],
        rows,
        title=("E22 recovery audit: ft wave (n=16, silent departures), "
               "plain vs 'full' resilience, 3 seeds per preset"),
    ))
