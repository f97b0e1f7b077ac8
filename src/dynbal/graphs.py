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
`toggled_adjacency` patches the base adjacency for the flipped pairs only,
`edge_set_connected` decides the patched graph's connectivity, and
`Graph.toggled` assembles the accepted graph from those parts without
re-canonicalising or re-sorting anything.  A toggled graph keeps its `base`
and its `flips`, the canonical flipped pairs, and builds its edge set (and
its rows, unless the sampler's walk patched them) only when first read;
`row(u)` patches u's row alone from the base's, so a reader of a few rows
never builds the table.  Adding edges never disconnects a graph, so a patch
that only adds edges to a connected base is connected without a walk; the
walk runs only when a flip removes an edge (found by `has_edge`) or the
base itself is disconnected.  Connectivity and edge-edit distance are the
two family checks the rest of the package relies on.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
        self._set(n, frozenset(canon), None, None)

    def _set(self, n, edges, adj, connected, base=None, flips=(), mask=None) -> Graph:
        """Fill every slot from parts the caller vouches for: canonical
        `edges` (None to derive them from `mask` or `base` and `flips`),
        the sorted adjacency or None, and the connectivity flag or None."""
        self.n, self._edges, self._adj, self._connected = n, edges, adj, connected
        self.base, self.flips, self._mask = base, flips, mask
        return self

    @classmethod
    def toggled(cls, base: Graph, pairs, adj) -> Graph:
        """`base` with the distinct canonical `pairs` flipped, which the
        caller has found connected, so the result records that without
        another walk.  `adj` is the flipped graph's sorted adjacency (see
        `toggled_adjacency`), or None to patch it when first read."""
        return cls.__new__(cls)._set(base.n, None, adj, True, base, tuple(pairs))

    @classmethod
    def from_mask(cls, n: int, mask: bytes, connected=None) -> Graph:
        """The graph on n nodes with an edge at each canonical pair, in
        lexicographic order, where `mask` holds a 1 (else 0); `connected`
        is its connectivity flag when the caller knows it."""
        return cls.__new__(cls)._set(n, None, None, connected, mask=mask)

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
                self._edges = frozenset(compress(_pairs(self.n), self._mask))
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
                self._adj = toggled_adjacency(self.base, self.flips)
            elif self._mask is not None:
                self._adj = _sorted_rows(self.n, compress(_pairs(self.n), self._mask))
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


def toggled_adjacency(base: Graph, pairs) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency of `base` with the distinct canonical `pairs`
    flipped.

    Only the rows of the flipped pairs' endpoints are rebuilt; every other
    row is shared with `base.adj`.
    """
    base_adj = base.adj
    rows: dict[int, list[int]] = {}
    for u, v in pairs:
        present = v in base_adj[u]
        for a, b in ((u, v), (v, u)):
            row = rows.get(a)
            if row is None:
                row = rows[a] = list(base_adj[a])
            if present:
                row.remove(b)
            else:
                insort(row, b)
    adj = list(base_adj)
    for a, row in rows.items():
        adj[a] = tuple(row)
    return tuple(adj)


def edge_set_connected(base: Graph, adj, removes_edge: bool) -> bool:
    """Connectivity of `base` with some node pairs flipped, given the flipped
    graph's adjacency and whether a flip removed an edge of `base`.

    Adding edges cannot disconnect a graph, so when no flip removed an edge
    a connected base answers without a walk, and `adj` may then be None.
    The sampler calls this once per proposal that flips a pair; the
    benchmark counts proposals by it.
    """
    return (not removes_edge and is_connected(base)) or _reaches_all(adj)


def is_connected(g: Graph) -> bool:
    """Whether g is connected; walked once per graph, then read from g."""
    if g._connected is None:
        g._connected = g.n == 1 or _reaches_all(g.adj)
    return g._connected


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


@lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
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
