"""Graph smoothing: exact uniform sampling from the edge-edit ball.

Given the adversary's graph G and a smoothing amount t, the smoothed graph
is uniform over all *connected* simple graphs whose edge set differs from
G's in at most t node pairs.  Sampling is by rejection: propose uniformly
over the whole ball (connected or not) by first drawing the flip count j
with probability proportional to C(N, j), then a uniform j-subset of pairs;
reject disconnected proposals.  Because the flip-count weights match the
ball's layer sizes exactly, accepted samples are exactly uniform.  The
sampled pair indices are unranked, never looked up in a table of pairs.

A proposal is a delta of G: only the adjacency rows of the flipped pairs'
endpoints are rebuilt, and the accepted graph shares G's other rows and
knows it is connected.  Adding edges cannot disconnect a graph, so a
proposal that only adds edges to a connected G is accepted without a walk;
that skips no proposal the walk would reject, so every draw and every
accept decision is the one a full rebuild and walk would make.

Fractional smoothing amounts are handled by randomised rounding: k rounds
up with probability equal to its fractional part, down otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt
from random import Random
from typing import Union

from .graphs import (
    Graph,
    all_pairs,
    edge_set_connected,
    is_connected,
    path_graph,
    toggled_adjacency,
)

DEFAULT_MAX_REJECTIONS = 10_000

# Hitting constant measured with `dynbal calibrate-c1` (n=16, k=1, 2e5
# samples): ~2.4 for every target-set size.  2.0 keeps the budgets
# conservative.
DEFAULT_C1 = Fraction(2)


class RejectionBudgetExceeded(RuntimeError):
    """The sampler kept drawing disconnected graphs until its budget ran out."""

    def __init__(self, n: int, t: int, rejections: int):
        super().__init__(
            f"no connected graph found within {rejections} rejections "
            f"(n={n}, smoothing distance {t})"
        )
        self.n = n
        self.t = t
        self.rejections = rejections


@dataclass
class SmoothingParams:
    """How much smoothing to apply each round.

    k may be fractional; it must stay at most n/16 for the hitting-rate
    guarantee to apply, although the sampler itself works for any k >= 0.
    `k_floor` and `k_frac` split k once for the per-round rounding.
    """

    k: Fraction = field(default_factory=lambda: Fraction(0))
    max_rejections: int = DEFAULT_MAX_REJECTIONS
    k_floor: int = field(init=False, repr=False, compare=False)
    k_frac: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("smoothing amount must be non-negative")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be positive")
        self.k_floor, self.k_frac = _split(Fraction(self.k))


def _split(value: Fraction) -> tuple[int, Fraction]:
    floor = value.numerator // value.denominator
    return floor, value - floor


def _round_up(floor: int, frac: Fraction, rng: Random) -> int:
    """floor + 1 with probability frac, floor otherwise."""
    if frac == 0:
        return floor
    return floor + (1 if rng.randrange(frac.denominator) < frac.numerator else 0)


def randomized_round(x: Union[int, float, Fraction], rng: Random) -> int:
    """Round x up with probability frac(x), down otherwise; exact for
    Fraction and int inputs."""
    value = Fraction(x)
    if value < 0:
        raise ValueError("cannot round a negative amount")
    return _round_up(*_split(value), rng)


def _unrank_pair(n: int, total_pairs: int, i: int) -> tuple[int, int]:
    """The i-th pair of `all_pairs(n)` (lexicographic), without listing them."""
    k = (isqrt(8 * (total_pairs - 1 - i) + 1) - 1) // 2
    u = n - 2 - k
    return u, i - u * (2 * n - u - 1) // 2 + u + 1


@lru_cache(maxsize=None)
def _layer_cumulative(total_pairs: int, t: int) -> tuple[tuple[int, ...], int]:
    """Cumulative C(N, 0..t) for the flip-count draw."""
    cum = []
    acc = 0
    for j in range(t + 1):
        acc += comb(total_pairs, j)
        cum.append(acc)
    return tuple(cum), acc


def t_smooth(
    g: Graph,
    t: int,
    rng: Random,
    max_rejections: int = DEFAULT_MAX_REJECTIONS,
) -> Graph:
    """Uniform connected graph within edit distance t of g."""
    if t <= 0:
        return g
    n = g.n
    npairs = n * (n - 1) // 2
    t = min(t, npairs)
    cum, total = _layer_cumulative(npairs, t)
    for _ in range(max_rejections):
        ticket = rng.randrange(total)
        flips = 0
        while ticket >= cum[flips]:
            flips += 1
        if flips == 0:
            return g
        chosen = [_unrank_pair(n, npairs, i) for i in rng.sample(range(npairs), flips)]
        adj, removes_edge = toggled_adjacency(g, chosen)
        if edge_set_connected(g, adj, removes_edge):
            return Graph.toggled(g, chosen, adj)
    raise RejectionBudgetExceeded(g.n, t, max_rejections)


def k_smooth(g: Graph, params: SmoothingParams, rng: Random) -> Graph:
    """One round of smoothing: round k, then sample from the t-ball."""
    t = _round_up(params.k_floor, params.k_frac, rng)
    if t == 0:
        return g
    return t_smooth(g, t, rng, params.max_rejections)


def enumerate_ball(g: Graph, t: int, limit: int = 10**6) -> list[Graph]:
    """Every connected graph within edit distance t of g (test oracle).

    Guarded: refuses when the unrestricted ball would exceed `limit`
    candidates.
    """
    pairs = all_pairs(g.n)
    t = min(t, len(pairs))
    _, candidates = _layer_cumulative(len(pairs), t)
    if candidates > limit:
        raise ValueError(f"ball has {candidates} candidates, above the {limit} guard")
    found = []
    for flips in range(t + 1):
        for subset in combinations(pairs, flips):
            candidate = Graph(g.n, g.edges.symmetric_difference(subset))
            if is_connected(candidate):
                found.append(candidate)
    return found


def sampler_total_variation(g: Graph, t: int, samples: int, rng: Random) -> tuple[float, int]:
    """Total-variation distance between `samples` t_smooth draws and the
    uniform law on the edit ball around g; also returns the ball's size."""
    ball = enumerate_ball(g, t)
    index = {h.edges: i for i, h in enumerate(ball)}
    counts = [0] * len(ball)
    for _ in range(samples):
        counts[index[t_smooth(g, t, rng).edges]] += 1
    uniform = Fraction(1, len(ball))
    return float(sum(abs(Fraction(c, samples) - uniform) for c in counts) / 2), len(ball)


# ----------------------------------------------------------------------
# hitting-rate calibration
# ----------------------------------------------------------------------


def measure_hitting_rate(
    base: Graph,
    target_pairs: list[tuple[int, int]],
    params: SmoothingParams,
    samples: int,
    rng: Random,
) -> Fraction:
    """Fraction of smoothed outputs containing at least one target pair."""
    targets = {(u, v) if u < v else (v, u) for u, v in target_pairs}
    hits = 0
    for _ in range(samples):
        out = k_smooth(base, params, rng)
        if targets & out.edges:
            hits += 1
    return Fraction(hits, samples)


def calibrate_hitting_constant(
    n: int,
    k: Fraction,
    samples: int,
    rng: Random,
) -> dict[int, Fraction]:
    """Estimate c with hit-rate >= c * k * |S| / n^2 on a path graph.

    Targets are non-adjacent pairs (never edges of the base path), taken in
    a fixed spread; the map's values are the implied constants per target
    size.  The configuration default should sit at or below the minimum.
    """
    if n < 4:
        raise ValueError("calibration needs at least 4 nodes")
    base = path_graph(n)
    non_edges = [(i, j) for i in range(n) for j in range(i + 2, n)]
    params = SmoothingParams(k=k)
    sizes = sorted({1, max(1, n // 2), min(n, len(non_edges))})
    out: dict[int, Fraction] = {}
    for size in sizes:
        targets = non_edges[:size]
        rate = measure_hitting_rate(base, targets, params, samples, rng)
        out[size] = rate * n * n / (k * size)
    return out

