"""Adaptive adversaries that pick each round's communication graph.

A policy sees the committed loads and last round's connections, and must
answer with a connected simple graph on the same nodes.  The built-in
policies cover the scenarios the test-bed ships: fixed topologies, loads
re-sorted onto a line, the sorting-line adversary that keeps every balanced
pair in ascending order, and uniformly random connected graphs.

A random connected graph draws its extra-edge coins as rng.randrange(den)
would, but in batches.  CPython's getrandbits(k) for k <= 32 returns the
top k bits of one 32-bit generator word, and getrandbits(32*m) returns m
words with the first drawn as the least significant; so for den < 256 one
call holds the next m single draws, each in its word's top byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, compress
from random import Random
from typing import Optional, Sequence

from .graphs import NAMED_GRAPHS, Graph, is_connected, line_of
from .loads import LoadState


@dataclass(slots=True)
class AdversaryContext:
    """Everything an adaptive adversary may look at before choosing a graph.

    `loads` holds the loads after the previous round; `last_matching` the
    pairs that actually exchanged load in it.
    """

    round_index: int
    loads: LoadState
    last_matching: Sequence[tuple[int, int]] = ()


class AdversaryPolicy:
    name = "abstract"

    def bind(self, n: int, rng: Random) -> None:
        """Called once per trial before the first round."""
        self.n = n
        self.rng = rng

    def next_graph(self, ctx: AdversaryContext) -> Graph:
        raise NotImplementedError


class StaticPolicy(AdversaryPolicy):
    """The same connected graph every round."""

    name = "static"

    def __init__(self, shape: str = "path", edges: Optional[list] = None):
        self.shape = shape
        self.explicit_edges = edges

    def bind(self, n: int, rng: Random) -> None:
        super().bind(n, rng)
        if self.explicit_edges is not None:
            graph = Graph(n, [tuple(e) for e in self.explicit_edges])
        else:
            try:
                graph = NAMED_GRAPHS[self.shape](n)
            except KeyError:
                raise ValueError(f"unknown graph shape {self.shape!r}") from None
        if not is_connected(graph):
            raise ValueError("static adversary graph must be connected")
        self.graph = graph

    def next_graph(self, ctx: AdversaryContext) -> Graph:
        return self.graph


class ResortDescendingPolicy(AdversaryPolicy):
    """A line with the current loads sorted heaviest first (ties by id)."""

    name = "resortDescending"

    def bind(self, n: int, rng: Random) -> None:
        super().bind(n, rng)
        self._last_order: Optional[tuple[int, ...]] = None
        self._last_graph: Optional[Graph] = None

    def next_graph(self, ctx: AdversaryContext) -> Graph:
        loads = ctx.loads.loads
        order = tuple(sorted(range(self.n), key=lambda v: (-loads[v], v)))
        if order != self._last_order:
            self._last_order = order
            self._last_graph = line_of(order)
        return self._last_graph


def sorting_line_postprocess(
    order: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    loads: Sequence,
) -> list[int]:
    """Re-sort every balanced pair into ascending load order on the line.

    Pairs are applied in sorted order; a pair that does not sit on adjacent
    line positions when its turn comes (it balanced over an edge off the
    line, or an earlier swap moved one of its nodes) is left in place.
    Equal loads keep their positions.
    """
    new_order = list(order)
    _swap_pairs(new_order, sorted(range(len(order)), key=order.__getitem__), pairs, loads)
    return new_order


def _swap_pairs(order: list[int], position: list[int], pairs, loads) -> bool:
    """`sorting_line_postprocess` in place on `order` and its inverse
    `position` (position[node] is node's index in order); True if any swapped."""
    swapped = False
    for u, v in sorted({(u, v) if u < v else (v, u) for u, v in pairs}):
        pu, pv = position[u], position[v]
        if pu > pv:
            u, v, pu, pv = v, u, pv, pu
        if pv - pu == 1 and loads[u] > loads[v]:
            order[pu], order[pv] = v, u
            position[u], position[v] = pv, pu
            swapped = True
    return swapped


class SortingLinePolicy(AdversaryPolicy):
    """Keeps a line whose prefix sums can never grow: after every exchange
    the two partners are re-ordered lightest first.

    Pairs that are not adjacent on the line are left where they are (see
    `sorting_line_postprocess`).  `order` and its inverse `position` live
    across rounds and are swapped in place; the line graph is rebuilt only
    after a swap.
    """

    name = "sortingLine"

    def bind(self, n: int, rng: Random) -> None:
        super().bind(n, rng)
        self.order = list(range(n))
        self.position = list(range(n))
        self._graph = line_of(self.order)

    def next_graph(self, ctx: AdversaryContext) -> Graph:
        pairs = ctx.last_matching
        if pairs and _swap_pairs(self.order, self.position, pairs, ctx.loads.loads):
            self._graph = line_of(self.order)
        return self._graph


class RandomConnectedPolicy(AdversaryPolicy):
    """A fresh uniform spanning tree each round, plus independent extra edges."""

    name = "randomConnected"

    def __init__(self, extra_edge_prob: Fraction = Fraction(1, 10)):
        prob = Fraction(extra_edge_prob)
        if not 0 <= prob <= 1:
            raise ValueError("extra edge probability must lie in [0, 1]")
        self.extra_edge_prob = prob

    def next_graph(self, ctx: AdversaryContext) -> Graph:
        return random_connected_graph(self.n, self.extra_edge_prob, self.rng)


def random_connected_graph(n: int, extra_edge_prob: Fraction, rng: Random) -> Graph:
    tree = _random_tree_edges(n, rng)
    prob = Fraction(extra_edge_prob)
    if prob == 0:
        return Graph(n, tree)
    # One coin per non-tree pair in lexicographic order, each drawn as
    # rng.randrange(den) < num would draw it; then a 1 at every tree pair.
    mask = _extra_edge_coins(n * (n - 1) // 2 - len(tree), prob, rng)
    for i in sorted(u * (2 * n - u - 1) // 2 + v - u - 1 for u, v in tree):
        mask.insert(i, 1)
    return Graph(n, compress(combinations(range(n), 2), mask))


def _extra_edge_coins(count: int, prob: Fraction, rng: Random) -> bytearray:
    """`count` coins, each 1 with probability `prob`: the draws of
    rng.randrange(den) < num, through the same getrandbits rejection loop
    as CPython's Random._randbelow_with_getrandbits."""
    num, den = prob.numerator, prob.denominator
    bits = den.bit_length()
    getrandbits = rng.getrandbits
    coins = bytearray()
    if bits > 8:
        # Per-draw loop; no extraEdgeProb the repository uses has a
        # denominator above 255, so this path is kept simple, not fast.
        for _ in range(count):
            r = getrandbits(bits)
            while r >= den:
                r = getrandbits(bits)
            coins.append(r < num)
    else:
        # Top bytes of the words (see the module docstring), rejected ones
        # dropped.  A word gives at most one coin, so asking for exactly the
        # missing number never draws past what the per-draw loop would.
        table, rejected = _coin_table(num, den)
        while len(coins) < count:
            want = count - len(coins)
            words = getrandbits(32 * want).to_bytes(4 * want, "little")[3::4]
            coins += words.translate(table, rejected)
    return coins


@lru_cache(maxsize=None)
def _coin_table(num: int, den: int) -> tuple[bytes, bytes]:
    """Top-byte translation table to coins, and the top bytes rejected."""
    shift = 8 - den.bit_length()
    table = bytes(int(b >> shift < num) for b in range(256))
    rejected = bytes(b for b in range(256) if b >> shift >= den)
    return table, rejected


def _random_tree_edges(n: int, rng: Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree (decoded from a random Pruefer sequence)."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for v in seq:
        leaf = heappop(leaves)
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[v] -= 1
        if degree[v] == 1:
            heappush(leaves, v)
    u, w = heappop(leaves), heappop(leaves)
    edges.append((u, w) if u < w else (w, u))
    return edges


ADVERSARIES = {
    "static": StaticPolicy,
    "resortDescending": ResortDescendingPolicy,
    "sortingLine": SortingLinePolicy,
    "randomConnected": RandomConnectedPolicy,
}


def make_adversary(name: str, **params) -> AdversaryPolicy:
    try:
        cls = ADVERSARIES[name]
    except KeyError:
        raise ValueError(f"unknown adversary {name!r}") from None
    return cls(**params)
