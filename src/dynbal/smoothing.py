"""Graph smoothing: exact uniform sampling from the edge-edit ball.

Given the adversary's graph G and a smoothing amount t, the smoothed graph
is uniform over all *connected* simple graphs whose edge set differs from
G's in at most t node pairs.  Sampling is by rejection: propose uniformly
over the whole ball (connected or not) by first drawing the flip count j
with probability proportional to C(N, j), then a uniform j-subset of pairs;
reject disconnected proposals.  Because the flip-count weights match the
ball's layer sizes exactly, accepted samples are exactly uniform.  The
sampled pair indices are unranked, never looked up in a table of pairs.

A proposal is a delta of G (`Graph.toggled`): it shares G's rows and
patches only those of the flipped pairs' endpoints, when first read.
`has_edge` tells whether a flip removes an edge, and `edge_set_connected`
decides the proposal's connectivity.  Adding edges cannot disconnect a
graph, so a proposal that only adds edges to a connected G is marked
connected without a walk; that skips no proposal the walk would reject,
so every draw and every accept decision is the one a full rebuild and
walk would make.  Otherwise the proposal walks its own rows, and an
accepted one keeps them.

Fractional smoothing amounts are handled by randomised rounding: k rounds
up with probability equal to its fractional part, down otherwise.

Every draw goes straight to `getrandbits` through `_randbelow`, CPython's
own rejection loop, and `_sample_range` replays `Random.sample(range(N), j)`
branch for branch, so the draws and the generator's state after them are
exactly those of `rng.randrange` and `rng.sample`, without their overhead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import ceil, comb, isqrt, log
from random import Random

from .graphs import NAMED_GRAPHS, Graph, all_pairs, edge_set_connected, is_connected

DEFAULT_MAX_REJECTIONS = 10_000

# Largest ball, counted in candidate flip sets, that is ever enumerated.
BALL_GUARD = 10**6

# Hitting constant c: a smoothed graph contains a given non-edge with
# probability at least c * k / n^2 (see `exact_hitting_constants`).  What the
# default assumes is stated at `gapreduce.gap_reduce_round_budget`.
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
    return floor + (_randbelow(rng.getrandbits, frac.denominator) < frac.numerator)


def _randbelow(getrandbits, n: int) -> int:
    """rng.randrange(n) for n > 0: the getrandbits rejection loop of
    CPython's Random._randbelow_with_getrandbits, draw for draw."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def _sample_range(getrandbits, n: int, k: int) -> list[int]:
    """rng.sample(range(n), k) for 0 <= k <= n, drawn as CPython's
    Random.sample draws it: from a shrinking pool when an n-list is smaller
    than a k-set (its set-size rule), else redrawing repeats."""
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    out = []
    if n <= setsize:
        pool = list(range(n))
        for i in range(k):
            j = _randbelow(getrandbits, n - i)
            out.append(pool[j])
            pool[j] = pool[n - i - 1]
        return out
    for _ in range(k):
        j = _randbelow(getrandbits, n)
        while j in out:
            j = _randbelow(getrandbits, n)
        out.append(j)
    return out


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
    getrandbits = rng.getrandbits
    for _ in range(max_rejections):
        ticket = _randbelow(getrandbits, total)
        flips = 0
        while ticket >= cum[flips]:
            flips += 1
        if flips == 0:
            return g
        chosen = [_unrank_pair(n, npairs, i) for i in _sample_range(getrandbits, npairs, flips)]
        proposal = Graph.toggled(g, chosen)
        if edge_set_connected(proposal, any(g.has_edge(u, v) for u, v in chosen)):
            return proposal
    raise RejectionBudgetExceeded(g.n, t, max_rejections)


def k_smooth(g: Graph, params: SmoothingParams, rng: Random) -> Graph:
    """One round of smoothing: round k, then sample from the t-ball."""
    t = _round_up(params.k_floor, params.k_frac, rng)
    if t == 0:
        return g
    return t_smooth(g, t, rng, params.max_rejections)


def _connected_flips(g: Graph, t: int, limit: int):
    """Every flip set of at most t pairs that leaves g connected, in order of
    size, then lexicographically; refused over `limit` candidates.  Adding
    edges keeps a connected g connected, so only removals are walked."""
    npairs = g.n * (g.n - 1) // 2
    t = min(t, npairs)
    _, candidates = _layer_cumulative(npairs, t)
    if candidates > limit:
        raise ValueError(f"ball has {candidates} candidates, above the {limit} guard")
    edges, pairs, adding_keeps = g.edges, all_pairs(g.n), is_connected(g)
    return (
        subset
        for subset in chain.from_iterable(combinations(pairs, j) for j in range(t + 1))
        if (adding_keeps and edges.isdisjoint(subset))
        or is_connected(Graph.toggled(g, subset))
    )


def enumerate_ball(g: Graph, t: int, limit: int = BALL_GUARD) -> list[Graph]:
    """Every connected graph within edit distance t of g (test oracle); a
    ball over `limit` candidates, connected or not, is refused."""
    return [Graph(g.n, g.edges.symmetric_difference(s)) for s in _connected_flips(g, t, limit)]


# The bases `smoothing-test` and acceptance criterion 6 check the sampler on.
UNIFORMITY_BASES = {name: NAMED_GRAPHS[name] for name in ("path", "star", "cycle")}


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
# hitting constant
# ----------------------------------------------------------------------


def exact_hitting_constants(base: Graph, k: Fraction) -> dict[int, Fraction]:
    """The exact hitting constant c = P(hit) * n^2 / (k |S|) of `k_smooth`
    around a connected `base`, per target size |S|: the worst single
    non-edge (size 1), and the first n/2 and first n non-edges in
    lexicographic order.  The floor(k)- and ceil(k)-balls (each within
    `BALL_GUARD`; the 0-ball never hits) are mixed as `k_smooth` rounds k."""
    k = Fraction(k)
    if k <= 0:
        raise ValueError("the hitting constant needs k > 0")
    floor, frac = _split(k)
    rounded = ((floor + 1, frac), (floor, 1 - frac))
    balls = [(_connected_flips(base, t, BALL_GUARD), w) for t, w in rounded if t and w]
    n = base.n
    non_edges = [pair for pair in all_pairs(n) if pair not in base.edges]
    targets = {size: frozenset(non_edges[:size]) for size in (n // 2, min(n, len(non_edges)))}
    rate = Counter()  # hit probability per flipped pair and per target size
    for ball, weight in balls:
        held = Counter()  # a member holds a non-edge exactly when it flips it
        for members, flips in enumerate(ball, 1):
            held.update(flips)
            held.update(size for size, target in targets.items() if not target.isdisjoint(flips))
        for key, count in held.items():
            rate[key] += weight * count / members
    scale = n * n / k
    worst = min(rate[pair] for pair in non_edges)
    return {1: worst * scale} | {size: rate[size] * scale / size for size in targets}
