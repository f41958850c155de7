"""Adversarial constructions.

The paper's negative results are of the form "for every protocol there is a
run of the class on which the protocol fails".  This module makes those
arguments executable as *diagonalisations*: given the protocol's parameter
(its TTL, or its quiescence timeout), construct a legal run of the target
class that defeats it.  The E6 benchmark sweeps the parameter and verifies
the constructed run wins every time.
"""

from __future__ import annotations

from typing import Callable

from repro.churn.models import ChurnModel, ProcessFactory
from repro.core.arrival import ArrivalClass, InfiniteArrivalUnbounded
from repro.sim.errors import ConfigurationError
from repro.sim.latency import ConstantDelay
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.topology.attachment import ChainAttachment


def build_chain(
    sim: Simulator, factory: ProcessFactory, length: int
) -> list[int]:
    """Spawn a line of ``length`` processes 0 - 1 - ... - (length-1).

    Returns the pids in chain order.  The line is the extremal topology for
    locality arguments: information needs ``length - 1`` hops end to end.
    """
    if length < 1:
        raise ConfigurationError(f"chain length must be >= 1, got {length}")
    pids: list[int] = []
    for i in range(length):
        neighbors = [pids[-1]] if pids else []
        proc = sim.spawn(factory(), neighbors)
        pids.append(proc.pid)
    return pids


def defeat_ttl(
    ttl: int,
    factory: ProcessFactory,
    seed: int = 0,
    hop_delay: float = 1.0,
) -> tuple[Simulator, list[int]]:
    """A static run on which any wave protocol with the given TTL is
    incomplete.

    The run is a line of ``ttl + 2`` permanently present processes; the far
    endpoint is ``ttl + 1`` hops from the querier (pid 0), one hop beyond
    the wave's reach, yet it belongs to the stable core.  This is a legal
    run of *every* arrival class (even ``M_static``), which is exactly the
    paper's point about ``G_local``: without a diameter bound, no TTL is
    safe even in a static world.
    """
    if ttl < 0:
        raise ConfigurationError(f"ttl must be >= 0, got {ttl}")
    sim = Simulator(seed=seed, delay_model=ConstantDelay(hop_delay))
    pids = build_chain(sim, factory, ttl + 2)
    return sim, pids


def defeat_quiescence(
    timeout: float,
    factory: ProcessFactory,
    seed: int = 0,
    hop_delay: float = 1.0,
) -> tuple[Simulator, list[int]]:
    """A run on which a quiescence rule with the given timeout fails.

    A three-process line whose far link is slower than the timeout: the
    querier hears nothing for ``timeout`` after its neighbor's echo and
    declares the wave finished, while the far (stable) process's response is
    still in flight.  Legal under unbounded message delay — the asynchrony
    half of the impossibility.
    """
    if timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0, got {timeout}")
    sim = Simulator(seed=seed, delay_model=ConstantDelay(hop_delay))
    pids = build_chain(sim, factory, 3)
    sim.network.set_edge_delay(pids[1], pids[2], ConstantDelay(timeout + 2 * hop_delay + 1.0))
    return sim, pids


class GrowthAdversary(ChurnModel):
    """Witnesses ``M_inf_unbounded``: the population grows without bound.

    Arrivals come ever faster (the inter-arrival gap shrinks geometrically)
    and nobody ever leaves; with :class:`ChainAttachment` each newcomer
    extends a path, so the network diameter also grows without bound while
    a query is in flight.  Used to defeat protocols that adapt their TTL to
    the population they have seen so far.
    """

    def __init__(
        self,
        factory: ProcessFactory,
        initial_gap: float = 1.0,
        acceleration: float = 0.9,
        min_gap: float = 1e-3,
        max_joins: int = 10_000,
    ) -> None:
        super().__init__(factory, attachment=ChainAttachment())
        if initial_gap <= 0:
            raise ConfigurationError(f"initial gap must be > 0, got {initial_gap}")
        if not 0 < acceleration <= 1:
            raise ConfigurationError(
                f"acceleration must be in (0, 1], got {acceleration}"
            )
        self.initial_gap = initial_gap
        self.acceleration = acceleration
        self.min_gap = min_gap
        self.max_joins = max_joins
        self._gap = initial_gap

    def _start(self) -> None:
        self._schedule(self._gap, self._grow, "churn:growth")

    def _grow(self) -> None:
        if self.joins >= self.max_joins or not self.active_at(self.sim.now):
            return
        self._step()
        self._gap = max(self.min_gap, self._gap * self.acceleration)
        self._schedule(self._gap, self._grow, "churn:growth")

    def arrival_class(self) -> ArrivalClass:
        return InfiniteArrivalUnbounded()

    def __repr__(self) -> str:
        return (
            f"GrowthAdversary(gap={self.initial_gap}, "
            f"acceleration={self.acceleration})"
        )


def diagonalise(
    parameters: list[float],
    construct: Callable[[float], tuple[Simulator, list[int]]],
    run_protocol: Callable[[Simulator, list[int]], bool],
) -> dict[float, bool]:
    """Run the diagonalisation: for each protocol parameter, construct the
    adversarial run and report whether the protocol failed on it.

    Returns ``{parameter: protocol_failed}``; the impossibility claim is
    validated when every value is ``True``.
    """
    outcomes = {}
    for parameter in parameters:
        sim, pids = construct(parameter)
        outcomes[parameter] = not run_protocol(sim, pids)
    return outcomes
