"""Adaptive adversaries that pick each round's communication graph.

A policy sees the committed loads and last round's connections, and must
answer with a connected simple graph on the same nodes.  The built-in
policies cover the scenarios the test-bed ships: fixed topologies, loads
re-sorted onto a line, the sorting-line adversary that keeps every balanced
pair in ascending order, and uniformly random connected graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
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

    Each pair must sit on adjacent line positions; pairs are applied in
    sorted order.  Equal loads keep their positions.
    """
    new_order = list(order)
    position = {node: i for i, node in enumerate(new_order)}
    for u, v in sorted({(min(p), max(p)) for p in pairs}):
        pu, pv = position[u], position[v]
        if abs(pu - pv) != 1:
            raise ValueError(f"pair ({u}, {v}) is not adjacent on the line")
        first, second = (u, v) if pu < pv else (v, u)
        if loads[first] > loads[second]:
            position[first], position[second] = position[second], position[first]
            lo = min(pu, pv)
            new_order[lo], new_order[lo + 1] = second, first
    return new_order


class SortingLinePolicy(AdversaryPolicy):
    """Keeps a line whose prefix sums can never grow: after every exchange
    the two partners are re-ordered lightest first.

    Under smoothing a pair may balance over an edge that is not part of the
    line; such pairs are left where they are.
    """

    name = "sortingLine"

    def bind(self, n: int, rng: Random) -> None:
        super().bind(n, rng)
        self.order = list(range(n))
        self._graph = line_of(self.order)

    def next_graph(self, ctx: AdversaryContext) -> Graph:
        if ctx.last_matching:
            position = {node: i for i, node in enumerate(self.order)}
            adjacent = [
                (u, v)
                for u, v in ctx.last_matching
                if abs(position[min(u, v)] - position[max(u, v)]) == 1
            ]
            if adjacent:
                updated = sorting_line_postprocess(self.order, adjacent, ctx.loads.loads)
                if updated != self.order:
                    self.order = updated
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
    edges = set(_random_tree_edges(n, rng))
    prob = Fraction(extra_edge_prob)
    if prob > 0:
        num, den = prob.numerator, prob.denominator
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in edges and rng.randrange(den) < num:
                    edges.add((u, v))
    return Graph(n, edges)


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
