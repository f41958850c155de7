"""Declarative churn specifications.

:class:`ChurnSpec` is the picklable description of a churn process: plain
data that crosses process boundaries intact, materialised into a live
:class:`~repro.churn.models.ChurnModel` only inside the worker that runs
the trial.  Trial configs (:class:`~repro.engine.trials.QueryConfig` and
friends) accept a ``ChurnSpec`` directly, which is what lets a config
built in a script run unchanged under ``--jobs N``; the legacy callable
(``factory -> ChurnModel``) form remains accepted for one release.

This module used to live inside :mod:`repro.engine.plan`; it moved here so
the trial layer can resolve specs without importing the plan layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable

from repro.churn.lifetimes import ExponentialLifetime, ParetoLifetime
from repro.churn.models import (
    ArrivalDepartureChurn,
    ChurnModel,
    FiniteArrivalChurn,
    PhasedChurn,
    ProcessFactory,
    ReplacementChurn,
)
from repro.sim.errors import ConfigurationError

#: Builds a churn model from a process factory (the runner owns the factory
#: so arrivals get fresh values).
ChurnBuilder = Callable[[ProcessFactory], ChurnModel]

#: The generative models a spec may name.
CHURN_KINDS = ("replacement", "arrival-departure", "finite", "phased")

#: Field -> (accepted type, whether ``None`` is allowed).  Checked at
#: construction, so a bad spec fails where it is written, not inside a
#: pool worker.
_FIELD_TYPES = {
    "rate": (Real, False),
    "lifetime_mean": (Real, True),
    "pareto_alpha": (Real, True),
    "pareto_xm": (Real, True),
    "cap": (Integral, True),
    "total_arrivals": (Integral, True),
    "storm_length": (Real, False),
    "calm_length": (Real, False),
    "doom_initial": (bool, False),
}


@dataclass(frozen=True)
class ChurnSpec:
    """A declarative, picklable churn description.

    ``kind`` selects the generative model; the remaining fields parameterise
    it.  :meth:`builder` produces the ``ChurnBuilder`` the trial layer
    expects — the closure is created *after* unpickling, inside the worker,
    so the spec itself stays plain data.

    Kinds:
        ``"replacement"``: constant-population turnover at ``rate``.
        ``"arrival-departure"``: Poisson arrivals at ``rate`` with
            exponential (``lifetime_mean``) or Pareto
            (``pareto_alpha``/``pareto_xm``) lifetimes, optional ``cap``.
        ``"finite"``: ``total_arrivals`` arrivals at ``rate``, then quiet.
        ``"phased"``: storms at ``rate`` of length ``storm_length``
            alternating with ``calm_length`` calm.
    """

    kind: str = "replacement"
    rate: float = 1.0
    lifetime_mean: float | None = None
    pareto_alpha: float | None = None
    pareto_xm: float | None = None
    cap: int | None = None
    total_arrivals: int | None = None
    storm_length: float = 40.0
    calm_length: float = 60.0
    doom_initial: bool = False

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ConfigurationError(
                f"unknown churn kind {self.kind!r}; use "
                f"{', '.join(map(repr, CHURN_KINDS))}"
            )
        for name, (expected, optional) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not (isinstance(value, expected) or (optional and value is None)):
                raise ConfigurationError(
                    f"churn spec field {name!r} must be "
                    f"{expected.__name__}{' or None' if optional else ''}, "
                    f"got {value!r}"
                )
        self._lifetimes()  # the lifetime models check their parameters

    def _lifetimes(self):
        if self.pareto_alpha is not None:
            xm = 1.0 if self.pareto_xm is None else self.pareto_xm
            return ParetoLifetime(alpha=self.pareto_alpha, xm=xm)
        if self.lifetime_mean is not None:
            return ExponentialLifetime(self.lifetime_mean)
        return None

    def builder(self) -> ChurnBuilder:
        """Materialise the churn builder this spec describes."""
        if self.kind == "replacement":
            return lambda factory: ReplacementChurn(factory, rate=self.rate)
        if self.kind == "arrival-departure":
            lifetimes = self._lifetimes() or ExponentialLifetime(30.0)
            return lambda factory: ArrivalDepartureChurn(
                factory,
                arrival_rate=self.rate,
                lifetimes=lifetimes,
                concurrency_cap=self.cap,
                doom_initial=self.doom_initial,
            )
        if self.kind == "finite":
            return lambda factory: FiniteArrivalChurn(
                factory,
                total_arrivals=(
                    20 if self.total_arrivals is None else self.total_arrivals
                ),
                arrival_rate=self.rate,
                lifetimes=self._lifetimes(),
            )
        return lambda factory: PhasedChurn(
            factory,
            storm_rate=self.rate,
            storm_length=self.storm_length,
            calm_length=self.calm_length,
        )


def resolve_churn(
    churn: "ChurnSpec | ChurnBuilder | None",
) -> ChurnBuilder | None:
    """Normalise a config's ``churn`` field to a builder (or ``None``).

    Accepts the declarative :class:`ChurnSpec` (preferred — picklable) and
    the legacy callable form.
    """
    if churn is None:
        return None
    if isinstance(churn, ChurnSpec):
        return churn.builder()
    if callable(churn):
        return churn
    raise ConfigurationError(
        f"'churn' must be a ChurnSpec or a builder callable, "
        f"got {type(churn).__name__}"
    )
