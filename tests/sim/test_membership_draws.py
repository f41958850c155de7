"""The membership path's inlined draws, each against the stdlib call it
stands for, on the same seeded stream.

One replacement draws three times from the churn stream: the victim
(``rng.randrange`` over the non-immortal members, in ``ChurnModel._step``),
the newcomer's attachment points (``random.sample``'s set branch, in
``UniformAttachment.choose``) and the gap to the next replacement
(``rng.expovariate``, in ``ChurnModel._step``).  All three are made inline,
so a change in how the stdlib draws — the 3.10–3.12 matrix runs this file
— or in the inlined copies shows here as a different value or a stream
left in a different state, not as a quietly different trace.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.churn.models import ReplacementChurn
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.topology.attachment import ChainAttachment, UniformAttachment


# ``n <= 21`` or ``k > 5`` is random.sample's pool branch (the sampler
# hands it to ``rng.sample``); ``n > 21`` with ``k <= 5`` its set branch
# (the sampler draws itself).  ``k >= n`` takes the whole population.
SAMPLE_GRID = [
    (n, k)
    for n in (0, 1, 2, 5, 21, 22, 23, 32, 64, 100, 1000)
    for k in (1, 2, 3, 5, 6, 8)
] + [(n, n) for n in (3, 21, 22, 32)]


@pytest.mark.parametrize("n, k", SAMPLE_GRID)
def test_the_sampler_draws_what_random_sample_draws(n, k):
    # Non-contiguous pids, as the live membership has after departures.
    network = SimpleNamespace(_sorted=[3 * pid + 1 for pid in range(n)])
    rule = UniformAttachment(k)
    for seed in range(25):
        mine, stdlib = random.Random(seed), random.Random(seed)
        for _ in range(8):
            expected = (
                stdlib.sample(network._sorted, min(k, n)) if n else []
            )
            assert rule.choose(network, mine) == expected
            assert mine.getstate() == stdlib.getstate()


class TestVictimDraw:
    """A replacement's victim: draw for draw
    ``candidates[rng.randrange(len(candidates))]`` over the sorted present,
    non-immortal pids, nothing drawn when there are none.  The twin
    simulator spells that out; ``ChainAttachment`` makes the newcomer's
    attachment draw nothing, so each step's only other draw is the gap."""

    N = 12

    @staticmethod
    def naive_replace(sim: Simulator, immortal: set[int]) -> None:
        candidates = sorted(sim.network.present() - immortal)
        rng = sim.rng_for("churn")
        if candidates:
            sim.kill(candidates[rng.randrange(len(candidates))])
            sim.spawn(Process(value=1.0), [sim.network.present_sorted()[-1]])
        rng.expovariate(1.0)

    def twins(self, seed: int, immortal: set[int]):
        sims = []
        for _ in range(2):
            sim = Simulator(seed=seed)
            for _ in range(self.N):
                sim.spawn(Process(value=1.0))
            sim.kill(3)  # a hole in the pid sequence, and a recycled slot
            sim.spawn(Process(value=1.0))
            sims.append(sim)
        model = ReplacementChurn(
            lambda: Process(value=1.0), rate=1.0, attachment=ChainAttachment()
        )
        model.immortal |= immortal
        model.install(sims[0])
        # Install drew the first gap from the model's stream.
        sims[1].rng_for("churn").expovariate(1.0)
        return model, sims[0], sims[1]

    @pytest.mark.parametrize("immortal_count", [0, 1, 4])
    def test_same_victims_and_same_subsequent_draws(self, immortal_count):
        for seed in range(60):
            picker = random.Random(seed)
            immortal = set(picker.sample(
                [pid for pid in range(self.N + 1) if pid != 3], immortal_count
            ))
            model, fast, naive = self.twins(seed, immortal)
            for _ in range(2 * self.N):
                model._step()
                self.naive_replace(naive, immortal)
                assert fast.network.present() == naive.network.present()
                assert (fast.rng_for("churn").getstate()
                        == naive.rng_for("churn").getstate())
            assert model.leaves == model.joins == 2 * self.N
            assert immortal <= fast.network.present()

    def test_an_absent_immortal_sits_nowhere(self):
        """Pid 3 left before install and 10 000 never existed: neither
        shifts the index."""
        for seed in range(60):
            model, fast, naive = self.twins(seed, {3, 10_000})
            for _ in range(self.N):
                model._step()
                self.naive_replace(naive, {3, 10_000})
                assert fast.network.present() == naive.network.present()
                assert (fast.rng_for("churn").getstate()
                        == naive.rng_for("churn").getstate())

    def test_nobody_leaves_or_joins_when_every_member_is_immortal(self):
        everyone = set(range(self.N + 1)) - {3}  # what ``twins`` leaves present
        for seed in range(10):
            model, fast, naive = self.twins(seed, everyone)
            for _ in range(5):
                model._step()
                self.naive_replace(naive, everyone)
                assert (fast.rng_for("churn").getstate()
                        == naive.rng_for("churn").getstate())
            assert fast.network.present() == everyone
            assert model.leaves == model.joins == 0


@pytest.mark.parametrize("rate", [0.25, 1.0, 4.0, 8.0, 1e-3, 1e3])
def test_the_gap_is_expovariate(rate):
    """With every member immortal a replacement draws only its gap, so the
    queued event times are the running sum of ``expovariate(rate)``."""
    for seed in range(20):
        sim = Simulator(seed=seed)
        for _ in range(4):
            sim.spawn(Process(value=1.0))
        model = ReplacementChurn(lambda: Process(value=1.0), rate=rate)
        model.immortal |= set(sim.network.present())
        model.install(sim)
        stdlib = Simulator(seed=seed).rng_for("churn")
        expected = 0.0
        for _ in range(50):
            expected += stdlib.expovariate(rate)
            assert sim.queue.peek_time() == expected
            assert sim.rng_for("churn").getstate() == stdlib.getstate()
            sim.step()
