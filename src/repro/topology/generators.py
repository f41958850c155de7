"""Topology generators.

Each generator returns a :class:`~repro.topology.graph.Topology` over node
ids ``0 .. n-1`` and is deterministic given its ``rng``.  The families cover
the regimes the experiments sweep: constant-diameter (complete, star),
low-diameter expanders (random regular, Erdős–Rényi), lattice topologies
with large diameter (ring, torus, line) and heavy-tailed degree
(Barabási–Albert).  The three families that lean on :mod:`networkx`
(random regular, geometric, Barabási–Albert) import it when called, so a
trial on any other family never loads it.
"""

from __future__ import annotations

import random

from repro.sim.errors import ConfigurationError
from repro.topology.graph import Topology


def _require_positive(n: int) -> None:
    if n < 1:
        raise ConfigurationError(f"need n >= 1 node, got {n}")


def complete_graph(n: int) -> Topology:
    """Every pair of nodes connected."""
    _require_positive(n)
    return Topology(
        nodes=range(n),
        edges=((i, j) for i in range(n) for j in range(i + 1, n)),
    )


def line(n: int) -> Topology:
    """A path 0 - 1 - ... - (n-1); diameter n - 1 (worst case for waves)."""
    _require_positive(n)
    return Topology(nodes=range(n), edges=((i, i + 1) for i in range(n - 1)))


def ring(n: int) -> Topology:
    """A cycle; diameter ⌊n/2⌋."""
    _require_positive(n)
    if n == 1:
        return Topology(nodes=[0])
    if n == 2:
        return Topology(nodes=range(2), edges=[(0, 1)])
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Topology(nodes=range(n), edges=edges)


def star(n: int) -> Topology:
    """Node 0 connected to everyone; diameter 2."""
    _require_positive(n)
    return Topology(nodes=range(n), edges=((0, i) for i in range(1, n)))


def torus(rows: int, cols: int) -> Topology:
    """A 2-D grid with wraparound; diameter ⌊rows/2⌋ + ⌊cols/2⌋."""
    if rows < 1 or cols < 1:
        raise ConfigurationError(f"torus needs rows, cols >= 1, got {rows}x{cols}")
    topo = Topology(nodes=range(rows * cols))

    def node(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    for r in range(rows):
        for c in range(cols):
            if cols > 1:
                topo.add_edge(node(r, c), node(r, c + 1))
            if rows > 1:
                topo.add_edge(node(r, c), node(r + 1, c))
    return topo


def grid(rows: int, cols: int) -> Topology:
    """A 2-D grid without wraparound."""
    if rows < 1 or cols < 1:
        raise ConfigurationError(f"grid needs rows, cols >= 1, got {rows}x{cols}")
    topo = Topology(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                topo.add_edge(r * cols + c, r * cols + c + 1)
            if r + 1 < rows:
                topo.add_edge(r * cols + c, (r + 1) * cols + c)
    return topo


def binary_tree(n: int) -> Topology:
    """A complete binary tree shape over n nodes; diameter O(log n)."""
    _require_positive(n)
    return Topology(
        nodes=range(n),
        edges=((child, (child - 1) // 2) for child in range(1, n)),
    )


def erdos_renyi(n: int, p: float, rng: random.Random, connected: bool = True) -> Topology:
    """G(n, p) random graph.

    With ``connected=True`` (the default) isolated components are stitched
    to the giant component with one extra edge each, so the result is usable
    as a communication topology without changing its statistics much.
    """
    _require_positive(n)
    if not 0 <= p <= 1:
        raise ConfigurationError(f"edge probability must be in [0, 1], got {p}")
    topo = Topology(nodes=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                topo.add_edge(i, j)
    if connected and n > 1:
        comps = topo.components()
        anchor = min(comps[0])
        for comp in comps[1:]:
            topo.add_edge(anchor, rng.choice(sorted(comp)))
    return topo


def random_regular(n: int, d: int, rng: random.Random) -> Topology:
    """A random d-regular graph (low diameter, uniform degree)."""
    _require_positive(n)
    if d >= n or (n * d) % 2 != 0:
        raise ConfigurationError(
            f"random regular graph needs d < n and n*d even, got n={n}, d={d}"
        )
    import networkx as nx

    graph = nx.random_regular_graph(d, n, seed=rng.randint(0, 2**31 - 1))
    return Topology.from_networkx(graph)


def geometric(n: int, radius: float, rng: random.Random, connected: bool = True) -> Topology:
    """A random geometric graph on the unit square (sensor-network shape)."""
    _require_positive(n)
    if radius <= 0:
        raise ConfigurationError(f"radius must be > 0, got {radius}")
    import networkx as nx

    graph = nx.random_geometric_graph(n, radius, seed=rng.randint(0, 2**31 - 1))
    topo = Topology.from_networkx(graph)
    if connected and n > 1:
        comps = topo.components()
        anchor = min(comps[0])
        for comp in comps[1:]:
            topo.add_edge(anchor, min(comp))
    return topo


def barabasi_albert(n: int, m: int, rng: random.Random) -> Topology:
    """Preferential-attachment graph (heavy-tailed degrees, tiny diameter)."""
    _require_positive(n)
    if m < 1 or m >= n:
        raise ConfigurationError(f"barabasi_albert needs 1 <= m < n, got m={m}, n={n}")
    import networkx as nx

    graph = nx.barabasi_albert_graph(n, m, seed=rng.randint(0, 2**31 - 1))
    return Topology.from_networkx(graph)


#: Named topology families used by the benchmark sweeps; every callable
#: takes ``(n, rng)`` and returns a connected Topology.
FAMILIES = {
    "complete": lambda n, rng: complete_graph(n),
    "line": lambda n, rng: line(n),
    "ring": lambda n, rng: ring(n),
    "star": lambda n, rng: star(n),
    "torus": lambda n, rng: _square_torus(n),
    "tree": lambda n, rng: binary_tree(n),
    "er": lambda n, rng: erdos_renyi(n, min(1.0, 2.0 * _log2(n) / n), rng),
    "regular": lambda n, rng: random_regular(n, _regular_degree(n), rng),
    "ba": lambda n, rng: barabasi_albert(n, min(2, n - 1), rng),
}


def _log2(n: int) -> float:
    import math

    return max(1.0, math.log2(max(2, n)))


def _regular_degree(n: int) -> int:
    d = min(4, n - 1)
    if (n * d) % 2 != 0:
        d = max(1, d - 1)
    return d


def _square_torus(n: int) -> Topology:
    import math

    side = max(1, int(math.isqrt(n)))
    rows = side
    cols = (n + side - 1) // side
    topo = torus(rows, cols)
    # Trim to exactly n nodes while keeping connectivity: drop the highest
    # ids and stitch any dangling fragments back.
    for node in range(rows * cols - 1, n - 1, -1):
        topo.remove_node(node)
    if len(topo) > 1:
        comps = topo.components()
        anchor = min(comps[0])
        for comp in comps[1:]:
            topo.add_edge(anchor, min(comp))
    return topo


def make(family: str, n: int, rng: random.Random) -> Topology:
    """Build a named family member; raises with the known names on typos."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ConfigurationError(f"unknown topology family {family!r}; known: {known}") from None
    return builder(n, rng)
