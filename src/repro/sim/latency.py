"""Message delay and loss models.

The geography dimension of a dynamic system says *who* a process can talk
to; these models say *how long* the talking takes.  Asynchrony is modelled
by drawing per-message delays from a distribution; an asynchronous adversary
corresponds to a distribution with unbounded support.
"""

from __future__ import annotations

import abc
import random

from repro.sim.errors import ConfigurationError


class DelayModel(abc.ABC):
    """Draws a transmission delay for each message."""

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Return a non-negative delay."""

    def bound(self) -> float | None:
        """Return an upper bound on delays, or ``None`` if unbounded.

        Protocols in the *synchronous* or *partially synchronous* settings
        may consult this bound (it is part of the knowledge dimension).
        """
        return None


class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` time units (synchronous)."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay}")
        self.delay = delay

    def sample(self, rng: random.Random) -> float:
        return self.delay

    def bound(self) -> float | None:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantDelay({self.delay})"


class UniformDelay(DelayModel):
    """Delays uniform in ``[low, high]`` (bounded asynchrony)."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not 0 <= low <= high:
            raise ConfigurationError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        # ``rng.uniform``'s own expression, without its frame.
        return self.low + (self.high - self.low) * rng.random()

    def bound(self) -> float | None:
        return self.high

    def __repr__(self) -> str:
        return f"UniformDelay({self.low}, {self.high})"


class ExponentialDelay(DelayModel):
    """Exponential delays with the given mean (unbounded asynchrony).

    The exponential has unbounded support, so :meth:`bound` returns ``None``:
    a protocol running over this model is in the fully asynchronous setting.
    """

    def __init__(self, mean: float = 1.0) -> None:
        if mean <= 0:
            raise ConfigurationError(f"mean must be > 0, got {mean}")
        self.mean = mean

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)

    def __repr__(self) -> str:
        return f"ExponentialDelay({self.mean})"


class LossModel(abc.ABC):
    """Decides whether a message is dropped in transit."""

    @abc.abstractmethod
    def is_lost(self, rng: random.Random) -> bool:
        """Return ``True`` if the message should be dropped."""


class NoLoss(LossModel):
    """Reliable channels: nothing is ever dropped."""

    def is_lost(self, rng: random.Random) -> bool:
        return False

    def __repr__(self) -> str:
        return "NoLoss()"


class BernoulliLoss(LossModel):
    """Each message is independently dropped with probability ``p``."""

    def __init__(self, p: float) -> None:
        if not 0 <= p <= 1:
            raise ConfigurationError(f"loss probability must be in [0, 1], got {p}")
        self.p = p

    def is_lost(self, rng: random.Random) -> bool:
        return rng.random() < self.p

    def __repr__(self) -> str:
        return f"BernoulliLoss({self.p})"
