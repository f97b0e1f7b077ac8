"""Simple undirected graphs on densely labelled nodes 0..n-1.

The simulator draws a fresh communication graph every round, so the type is
deliberately small: a frozen edge set plus a lazily built adjacency table.
Connectivity and edge-edit distance are the two family checks the rest of
the package relies on.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence


class Graph:
    """An immutable simple graph; edges are stored as (min, max) pairs."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("graphs need at least one node")
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            canon.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(canon)
        self._adj = None

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        if self._adj is None:
            lists: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                lists[u].append(v)
                lists[v].append(u)
            self._adj = tuple(tuple(sorted(nbrs)) for nbrs in lists)
        return self._adj

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph({self.n}, {sorted(self.edges)})"


# ----------------------------------------------------------------------
# family checks
# ----------------------------------------------------------------------


def edge_set_connected(n: int, edges) -> bool:
    """Connectivity for a bare edge collection, without building a Graph.

    The smoothing sampler rejects disconnected candidates in a tight loop,
    so this works straight off the edge set.
    """
    if n == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return _reaches_all(adj)


def is_connected(g: Graph) -> bool:
    return g.n == 1 or _reaches_all(g.adj)


def _reaches_all(adj) -> bool:
    """Whether a walk from node 0 along the adjacency lists visits every node."""
    n = len(adj)
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == n


def hamming_distance(g1: Graph, g2: Graph) -> int:
    """Number of node pairs whose edge/non-edge status differs."""
    if g1.n != g2.n:
        raise ValueError("graphs must share the same node set")
    return len(g1.edges ^ g2.edges)


def nodes_within(g: Graph, sources: Iterable[int], depth: int) -> set[int]:
    """All nodes within `depth` hops of any source node."""
    adj = g.adj
    frontier = set(sources)
    reached = set(frontier)
    for _ in range(depth):
        frontier = {v for u in frontier for v in adj[u]} - reached
        if not frontier:
            break
        reached |= frontier
    return reached


def all_pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(n: int, center: int = 0) -> Graph:
    return Graph(n, ((center, v) for v in range(n) if v != center))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        return path_graph(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, all_pairs(n))


def line_of(order: Sequence[int]) -> Graph:
    """The path that visits nodes in the given positional order."""
    n = len(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    return Graph(n, ((order[i], order[i + 1]) for i in range(n - 1)))


NAMED_GRAPHS = {
    "path": path_graph,
    "star": star_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
}
