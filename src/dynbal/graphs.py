"""Simple undirected graphs on densely labelled nodes 0..n-1.

The simulator draws a fresh communication graph every round, so the type is
deliberately small: a frozen edge set plus a lazily built, sorted adjacency
table and a lazily computed connectivity flag.  Graphs are immutable, so
`is_connected` walks a given graph at most once; an adversary that hands
back the same object round after round is validated once.

A random graph stays the pair mask it is drawn as (`Graph.from_mask`):
`has_edge` reads the mask, and the edge set and rows are built from it when
first read, so a round that never reads its graph never builds it.

The smoothing sampler builds its graphs as deltas of the adversary's graph:
`Graph.toggled` keeps the `base` and the `flips`, the canonical flipped
pairs, and builds its edge set only when first read.  `row(u)` patches u's
row alone from the base's, so a reader of a few rows never builds the
table, and `adj` is the base's rows with each flipped endpoint's row taken
from `row`.  A toggled graph decides its connectivity on its own rows, as
any graph does; `edge_set_connected` skips that walk when no flip removes
an edge (found by `has_edge`) of a connected base, since adding edges never
disconnects a graph.  Connectivity and edge-edit distance are the two
family checks the rest of the package relies on.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, compress
from typing import Iterable, Sequence


class Graph:
    """An immutable simple graph; edges are stored as (min, max) pairs.
    A graph from `Graph.toggled` is `base` with the pairs `flips` flipped;
    one from `Graph.from_mask` keeps its pair mask."""

    __slots__ = ("n", "_edges", "_adj", "_connected", "base", "flips", "_mask")

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
        self._set(n, frozenset(canon), None)

    def _set(self, n, edges, connected, base=None, flips=(), mask=None) -> Graph:
        """Fill every slot from parts the caller vouches for: canonical
        `edges` (None to derive them from `mask` or `base` and `flips`) and
        the connectivity flag or None; the rows are built when first read."""
        self.n, self._edges, self._adj, self._connected = n, edges, None, connected
        self.base, self.flips, self._mask = base, flips, mask
        return self

    @classmethod
    def toggled(cls, base: Graph, pairs) -> Graph:
        """`base` with the distinct canonical `pairs` flipped."""
        return cls.__new__(cls)._set(base.n, None, None, base, tuple(pairs))

    @classmethod
    def from_mask(cls, n: int, mask: bytes, connected=None) -> Graph:
        """The graph on n nodes with an edge at each canonical pair, in
        lexicographic order, where `mask` holds a 1 (else 0); `connected`
        is its connectivity flag when the caller knows it."""
        return cls.__new__(cls)._set(n, None, connected, mask=mask)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the canonical pair (u, v), u < v, is an edge."""
        if self._mask is None:
            return (u, v) in self.edges
        return self._mask[u * (2 * self.n - u - 1) // 2 + v - u - 1] == 1

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            if self._mask is None:
                self._edges = self.base.edges.symmetric_difference(self.flips)
            else:
                self._edges = frozenset(compress(all_pairs(self.n), self._mask))
        return self._edges

    def row(self, u: int) -> tuple[int, ...]:
        """u's sorted adjacency row; an unbuilt toggled graph patches only
        this row from its base's, leaving its own rows unbuilt."""
        if self._adj is not None or self.base is None:
            return self.adj[u]
        row = self.base.adj[u]
        for a, b in self.flips:
            if u == a or u == b:
                v = a + b - u
                i = bisect_left(row, v)
                if row[i : i + 1] == (v,):
                    row = row[:i] + row[i + 1 :]
                else:
                    row = row[:i] + (v,) + row[i:]
        return row

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        if self._adj is None:
            if self.base is not None:
                adj = list(self.base.adj)
                for u in {u for pair in self.flips for u in pair}:
                    adj[u] = self.row(u)
                self._adj = tuple(adj)
            elif self._mask is not None:
                self._adj = _sorted_rows(self.n, compress(all_pairs(self.n), self._mask))
            else:
                self._adj = _sorted_rows(self.n, sorted(self.edges))
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


def edge_set_connected(g: Graph, removes_edge: bool) -> bool:
    """Connectivity of a toggled graph g, given whether a flip removed an
    edge of its base.

    Adding edges cannot disconnect a graph, so when no flip removed an edge
    of a connected base, g is marked connected without a walk; otherwise
    `is_connected` walks g's own rows.  The sampler calls this once per
    proposal that flips a pair; the benchmark counts proposals by it.
    """
    if not removes_edge and is_connected(g.base):
        g._connected = True
    return is_connected(g)


def is_connected(g: Graph) -> bool:
    """Whether a walk from node 0 along g's rows visits every node; walked
    once per graph, then read from g."""
    if g._connected is None:
        adj, n = g.adj, g.n
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
        g._connected = count == n
    return g._connected


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


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


@lru_cache(maxsize=8)
def all_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every canonical pair of n nodes, in lexicographic order."""
    return tuple(combinations(range(n), 2))


def _sorted_rows(n: int, pairs) -> tuple[tuple[int, ...], ...]:
    """Adjacency rows of distinct canonical pairs in lexicographic order; a
    row gets its lower neighbours first, each list in order, so it is sorted."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        rows[u].append(v)
        rows[v].append(u)
    return tuple(map(tuple, rows))


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
