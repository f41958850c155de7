"""Attachment rules: how a joining entity picks its first neighbors.

Under churn, the overlay is maintained by the join procedure.  A rule sees
only the information a real bootstrap service would have — the ids of the
currently present processes and, for degree-aware rules, their degrees — and
returns the attachment points for the newcomer.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING

from repro.sim.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network


class AttachmentRule(abc.ABC):
    """Chooses neighbors for a joining process."""

    @abc.abstractmethod
    def choose(self, network: "Network", rng: random.Random) -> list[int]:
        """Return the attachment points among the present processes."""


class UniformAttachment(AttachmentRule):
    """Attach to ``k`` present processes chosen uniformly at random.

    With ``k >= 2`` the overlay stays well connected under moderate churn;
    ``k = 1`` grows a tree (fragile: one departure can split it).
    """

    def __init__(self, k: int = 2) -> None:
        if k < 1:
            raise ConfigurationError(f"attachment degree must be >= 1, got {k}")
        self.k = k

    def choose(self, network: "Network", rng: random.Random) -> list[int]:
        """Draw for draw ``rng.sample(present_sorted, min(k, n))``.

        When ``random.sample`` would take its set branch (``n > 21`` and
        ``k <= 5``) its draws are made here: one ``randbelow(n)`` per
        point — a ``getrandbits`` loop over ``n``'s bit length — redrawn
        while it repeats an index already taken, points in draw order.
        Otherwise (the pool branch) ``rng.sample`` itself draws.
        """
        present = network._sorted
        n = len(present)
        k = self.k if self.k < n else n
        if n <= 21 or k > 5:
            return rng.sample(present, k) if n else []
        getrandbits = rng.getrandbits
        bits = n.bit_length()
        taken: list[int] = []
        chosen: list[int] = []
        for _ in range(k):
            index = getrandbits(bits)
            while index >= n or index in taken:
                index = getrandbits(bits)
            taken.append(index)
            chosen.append(present[index])
        return chosen

    def __repr__(self) -> str:
        return f"UniformAttachment(k={self.k})"


class DegreeProportionalAttachment(AttachmentRule):
    """Preferential attachment: pick ``k`` neighbors with probability
    proportional to (degree + 1); produces heavy-tailed overlays."""

    def __init__(self, k: int = 2) -> None:
        if k < 1:
            raise ConfigurationError(f"attachment degree must be >= 1, got {k}")
        self.k = k

    def choose(self, network: "Network", rng: random.Random) -> list[int]:
        candidates = list(network.present_sorted())
        if not candidates:
            return []
        cand_weights = [network.degree(pid) + 1 for pid in candidates]
        chosen: list[int] = []
        for _ in range(min(self.k, len(candidates))):
            total = sum(cand_weights)
            pick = rng.random() * total
            acc = 0.0
            index = 0
            for index, weight in enumerate(cand_weights):
                acc += weight
                if pick < acc:
                    break
            chosen.append(candidates.pop(index))
            cand_weights.pop(index)
        return chosen

    def __repr__(self) -> str:
        return f"DegreeProportionalAttachment(k={self.k})"


class ChainAttachment(AttachmentRule):
    """Attach to the most recently joined process only.

    This is the adversarially bad rule: it grows a path, stretching the
    network diameter by one per arrival — the engine behind the E6
    impossibility construction.
    """

    def choose(self, network: "Network", rng: random.Random) -> list[int]:
        present = network.present_sorted()
        if not present:
            return []
        # Ids are allocated monotonically, so the newest process has the
        # largest id.
        return [present[-1]]

    def __repr__(self) -> str:
        return "ChainAttachment()"
