"""Adaptive adversaries that pick each round's communication graph.

A policy sees the committed loads and last round's connections, and must
answer with a connected simple graph on the same nodes.  The built-in
policies cover the scenarios the test-bed ships: fixed topologies, loads
re-sorted onto a line, the sorting-line adversary that keeps every balanced
pair in ascending order, and uniformly random connected graphs.

A random connected graph draws its Pruefer sequence and its extra-edge
coins as rng.randrange would, but in batches.  CPython's getrandbits(k) for
k <= 32 returns the top k bits of one 32-bit generator word, and
getrandbits(32*m) returns m words with the first drawn as the least
significant; so for a bound below 256 one call holds the next m single
draws, each in its word's top byte.  The graph stays the pair mask it is
drawn as, connected without a walk because a tree spans every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Optional, Sequence

from .graphs import NAMED_GRAPHS, Graph, is_connected, line_of
from .loads import LoadState
from .smoothing import _randbelow


@dataclass(slots=True)
class AdversaryContext:
    """Everything an adaptive adversary may look at before choosing a graph.

    `loads` is the record of the loads the previous round committed;
    `last_matching` the pairs that actually exchanged load in it.
    """

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
        # A stable sort stays stable under reverse=True: equal loads keep
        # ascending ids, the order the key (-loads[v], v) would give.
        order = tuple(sorted(range(self.n), key=loads.__getitem__, reverse=True))
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
    position = sorted(range(len(order)), key=order.__getitem__)
    return list(_swap_pairs(order, position, pairs, loads) or order)


def _swap_pairs(order, position: list[int], pairs, loads) -> Optional[tuple[int, ...]]:
    """`sorting_line_postprocess` on `order` and its inverse `position`
    (position[node] is node's index in order): the new order as a tuple,
    with `position` updated in place, or None when no pair swaps.  No
    position moves before the first swap, so one unsorted scan for a pair
    adjacent and out of order now tells whether any pair swaps at all."""
    for u, v in pairs:
        step = position[v] - position[u]
        if step == 1 and loads[u] > loads[v] or step == -1 and loads[v] > loads[u]:
            break
    else:
        return None
    order = list(order)
    for u, v in sorted({(u, v) if u < v else (v, u) for u, v in pairs}):
        pu, pv = position[u], position[v]
        if pu > pv:
            u, v, pu, pv = v, u, pv, pu
        if pv - pu == 1 and loads[u] > loads[v]:
            order[pu], order[pv] = v, u
            position[u], position[v] = pv, pu
    return tuple(order)


class SortingLinePolicy(AdversaryPolicy):
    """Keeps a line whose prefix sums can never grow: after every exchange
    the two partners are re-ordered lightest first.

    Pairs that are not adjacent on the line are left where they are (see
    `sorting_line_postprocess`).  `order` is a tuple replaced only after a
    swap, so its identity versions the line; its inverse `position` lives
    across rounds and is swapped in place.  The line graph is rebuilt only
    after a swap, so a round that swaps nothing (found by one unsorted scan
    of its pairs, see `_swap_pairs`) presents the same graph object.

    A line whose loads ascend along it (ties allowed) has no adjacent pair
    out of order, so no pair list swaps on it.  The policy keeps that
    verdict for one (committed tuple, order tuple) pair, by identity: it
    is decided the second time the pair is met, so rounds that move load
    never pay for it, and while the pair stands an ascending line is
    presented again without a scan of the pairs.
    """

    name = "sortingLine"

    def bind(self, n: int, rng: Random) -> None:
        super().bind(n, rng)
        self.order = tuple(range(n))
        self.position = list(range(n))
        self._graph = line_of(self.order)
        # The pair last met and its verdict: None until it is met again.
        self._met_loads = self._met_order = self._ascending = None

    def next_graph(self, ctx: AdversaryContext) -> Graph:
        pairs = ctx.last_matching
        if not pairs:
            return self._graph
        loads, order = ctx.loads.loads, self.order
        if loads is self._met_loads and order is self._met_order:
            if self._ascending is None:
                self._ascending = all(loads[u] <= loads[v] for u, v in zip(order, order[1:]))
            if self._ascending:
                return self._graph
        else:
            self._met_loads, self._met_order, self._ascending = loads, order, None
        if order := _swap_pairs(order, self.position, pairs, loads):
            self.order = order
            self._graph = line_of(order)
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
    # One coin per non-tree pair in lexicographic order, each drawn as
    # rng.randrange(den) < num would draw it; then a 1 at every tree pair.
    count = n * (n - 1) // 2 - len(tree)
    mask = _draws_below(rng, prob.denominator, count, prob.numerator) if prob else bytearray(count)
    for i in sorted(u * (2 * n - u - 1) // 2 + v - u - 1 for u, v in tree):
        mask.insert(i, 1)
    return Graph.from_mask(n, mask, connected=True)


def _draws_below(rng: Random, bound: int, count: int, num: Optional[int] = None):
    """`count` draws of rng.randrange(bound), or with `num` the coins
    rng.randrange(bound) < num as a bytearray, through the same getrandbits
    rejection loop as CPython's Random._randbelow_with_getrandbits."""
    getrandbits = rng.getrandbits
    if bound >= 256:
        # Per-draw loop (Pruefer draws from n = 256, coin denominators
        # from 256): kept simple, not fast.
        draws = [_randbelow(getrandbits, bound) for _ in range(count)]
        return draws if num is None else bytearray(r < num for r in draws)
    # Top bytes of the words (see the module docstring), rejected ones
    # dropped.  A word gives at most one draw, so asking for exactly the
    # missing number never draws past what the per-draw loop would.
    table, rejected = _top_byte_table(bound, num)
    draws = bytearray()
    while len(draws) < count:
        want = count - len(draws)
        words = getrandbits(32 * want).to_bytes(4 * want, "little")[3::4]
        draws += words.translate(table, rejected)
    return draws


@lru_cache(maxsize=None)
def _top_byte_table(bound: int, num: Optional[int]) -> tuple[bytes, bytes]:
    """Translation of a word's top byte to its draw below `bound` (to the
    coin draw < num when `num` is given), and the top bytes rejected."""
    shift = 8 - bound.bit_length()
    table = bytes(b >> shift if num is None else b >> shift < num for b in range(256))
    return table, bytes(range(bound << shift, 256))


def _random_tree_edges(n: int, rng: Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree, decoded from a random Pruefer sequence
    in linear time: the smallest leaf is the one behind the scan pointer
    that the last step freed, else the next leaf ahead of the pointer."""
    if n == 1:
        return []
    seq = _draws_below(rng, n, n - 2)
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaf = scan = degree.index(1)
    edges = []
    for v in seq:
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[v] -= 1
        if degree[v] == 1 and v < scan:
            leaf = v
        else:
            leaf = scan = degree.index(1, scan + 1)
    edges.append((leaf, n - 1))
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
