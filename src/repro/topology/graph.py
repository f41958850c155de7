"""A small undirected-graph type for communication topologies.

The simulator only needs adjacency; this class keeps that explicit and adds
the handful of structural queries experiments use (connectivity, diameter,
components).  :mod:`networkx` interop is provided for the generators that
lean on it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.sim.errors import TopologyError

if TYPE_CHECKING:
    import networkx as nx


class Topology:
    """An undirected simple graph over integer node ids."""

    def __init__(self, nodes: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()) -> None:
        self._adj: dict[int, set[int]] = {node: set() for node in nodes}
        for a, b in edges:
            self.add_edge(a, b)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_node(self, node: int) -> None:
        self._adj.setdefault(node, set())

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            raise TopologyError(f"self-loop on node {a}")
        self._adj.setdefault(a, set()).add(b)
        self._adj.setdefault(b, set()).add(a)

    def remove_edge(self, a: int, b: int) -> None:
        self._adj.get(a, set()).discard(b)
        self._adj.get(b, set()).discard(a)

    def remove_node(self, node: int) -> None:
        for other in self._adj.pop(node, set()):
            self._adj[other].discard(node)

    def relabel(self, mapping: dict[int, int]) -> "Topology":
        """Return a copy with node ids replaced via ``mapping``."""
        missing = set(self._adj) - set(mapping)
        if missing:
            raise TopologyError(f"relabel mapping misses nodes {sorted(missing)}")
        return Topology(
            nodes=(mapping[n] for n in self._adj),
            edges=((mapping[a], mapping[b]) for a, b in self.edges()),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def nodes(self) -> list[int]:
        return sorted(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._adj))

    def neighbors(self, node: int) -> frozenset[int]:
        try:
            return frozenset(self._adj[node])
        except KeyError:
            raise TopologyError(f"node {node} not in topology") from None

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted pairs, deterministically ordered."""
        return sorted(
            {(min(a, b), max(a, b)) for a, nbrs in self._adj.items() for b in nbrs}
        )

    def edge_count(self) -> int:
        return len(self.edges())

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, set())

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def bfs_distances(self, source: int) -> dict[int, int]:
        """Hop distances from ``source`` to every reachable node."""
        if source not in self._adj:
            raise TopologyError(f"node {source} not in topology")
        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            node = frontier.popleft()
            for nbr in self._adj[node]:
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    frontier.append(nbr)
        return dist

    def reachable_from(self, source: int) -> frozenset[int]:
        """Connected component containing ``source``."""
        return frozenset(self.bfs_distances(source))

    def is_connected(self) -> bool:
        if not self._adj:
            return True
        first = next(iter(self._adj))
        return len(self.reachable_from(first)) == len(self._adj)

    def components(self) -> list[frozenset[int]]:
        """Connected components, largest first (ties by smallest member)."""
        seen: set[int] = set()
        comps: list[frozenset[int]] = []
        for node in sorted(self._adj):
            if node in seen:
                continue
            comp = self.reachable_from(node)
            seen |= comp
            comps.append(comp)
        return sorted(comps, key=lambda c: (-len(c), min(c)))

    def eccentricity(self, node: int) -> int:
        """Greatest hop distance from ``node`` to any reachable node."""
        return max(self.bfs_distances(node).values())

    def diameter(self) -> int:
        """Largest eccentricity.

        Raises:
            TopologyError: if the graph is disconnected (the diameter is
                infinite) or empty.
        """
        if not self._adj:
            raise TopologyError("diameter of an empty topology is undefined")
        if not self.is_connected():
            raise TopologyError("diameter of a disconnected topology is infinite")
        return max(self.eccentricity(node) for node in self._adj)

    def average_degree(self) -> float:
        if not self._adj:
            return 0.0
        return sum(len(nbrs) for nbrs in self._adj.values()) / len(self._adj)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------

    def to_networkx(self) -> "nx.Graph":
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._adj)
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(cls, graph: "nx.Graph") -> "Topology":
        return cls(nodes=graph.nodes(), edges=graph.edges())

    def copy(self) -> "Topology":
        return Topology(nodes=self._adj, edges=self.edges())

    def __repr__(self) -> str:
        return f"Topology(n={len(self)}, m={self.edge_count()})"
