"""Smoothing sampler tests: exact rounding, ball enumeration, uniformity."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dynbal.adversaries import random_connected_graph
from dynbal.graphs import (
    Graph,
    all_pairs,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    star_graph,
)
from dynbal.smoothing import (
    DEFAULT_C1,
    DEFAULT_MAX_REJECTIONS,
    RejectionBudgetExceeded,
    UNIFORMITY_BASES,
    SmoothingParams,
    enumerate_ball,
    exact_hitting_constants,
    k_smooth,
    t_smooth,
)
from dynbal.smoothing import _randbelow, _round_up, _sample_range, _unrank_pair
from oracles import hamming_distance


# ----------------------------------------------------------------------
# randomised rounding
# ----------------------------------------------------------------------


def randomized_round(k, rng: Random) -> int:
    """One round's smoothing amount, drawn as k_smooth draws it."""
    params = SmoothingParams(k=Fraction(k))
    return _round_up(params.k_floor, params.k_frac, rng)


def test_integer_amounts_never_randomise():
    rng = Random(1)
    assert all(randomized_round(2, rng) == 2 for _ in range(100))
    assert all(randomized_round(Fraction(3), rng) == 3 for _ in range(100))
    assert randomized_round(0, rng) == 0


def test_fractional_amounts_round_to_neighbours():
    rng = Random(2)
    seen = {randomized_round(Fraction(5, 4), rng) for _ in range(1000)}
    assert seen == {1, 2}


def test_rounding_mean_is_exact():
    rng = Random(3)
    draws = 100_000
    mean = sum(randomized_round(Fraction(5, 4), rng) for _ in range(draws)) / draws
    assert abs(mean - 1.25) < 0.01


def test_rounding_rejects_negative():
    with pytest.raises(ValueError):
        randomized_round(Fraction(-1, 2), Random(0))


# ----------------------------------------------------------------------
# ball enumeration (the oracle the sampler is checked against)
# ----------------------------------------------------------------------


def test_ball_of_three_path():
    path = path_graph(3)
    ball = enumerate_ball(path, 1)
    assert set(ball) == {path, complete_graph(3)}


def test_ball_of_triangle():
    triangle = complete_graph(3)
    ball = enumerate_ball(triangle, 1)
    assert len(ball) == 4
    assert triangle in ball
    assert sum(1 for g in ball if len(g.edges) == 2) == 3


def test_ball_of_four_path():
    # Adding any of the three chords keeps the path connected; removing any
    # path edge disconnects it.
    ball = enumerate_ball(path_graph(4), 1)
    assert len(ball) == 4


def test_ball_guard_trips():
    with pytest.raises(ValueError):
        enumerate_ball(path_graph(30), 4, limit=1000)


# ----------------------------------------------------------------------
# sampler behaviour
# ----------------------------------------------------------------------


def test_zero_distance_is_identity():
    g = path_graph(5)
    assert t_smooth(g, 0, Random(1)) is g
    assert k_smooth(g, SmoothingParams(k=Fraction(0)), Random(1)) is g


def test_sampler_is_deterministic_per_seed():
    # Re-creating the generator replays the identical graph sequence.
    g = path_graph(6)
    rng1, rng2 = Random(77), Random(77)
    seq1 = [t_smooth(g, 2, rng1) for _ in range(20)]
    seq2 = [t_smooth(g, 2, rng2) for _ in range(20)]
    assert seq1 == seq2


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 2),
    st.integers(0, 10**6),
)
def test_sampler_stays_in_ball(n, t, seed):
    base = path_graph(n)
    out = t_smooth(base, t, Random(seed))
    assert is_connected(out)
    assert hamming_distance(base, out) <= t


def test_sampler_matches_ball_membership():
    base = path_graph(4)
    ball = set(enumerate_ball(base, 2))
    rng = Random(5)
    for _ in range(300):
        assert t_smooth(base, 2, rng) in ball


def test_three_path_distance_one_is_a_fair_coin():
    # The connected ball is {path, triangle}; uniform means half each.
    base = path_graph(3)
    rng = Random(11)
    hits = sum(1 for _ in range(4000) if t_smooth(base, 1, rng) == base)
    assert abs(hits / 4000 - 0.5) < 0.05


def test_fractional_k_mixes_identity_and_ball():
    # k = 1/2 on the 3-path: stay put 3/4 of the time, triangle 1/4.
    base = path_graph(3)
    params = SmoothingParams(k=Fraction(1, 2))
    rng = Random(13)
    stayed = sum(1 for _ in range(6000) if k_smooth(base, params, rng) == base)
    assert abs(stayed / 6000 - 0.75) < 0.05


def test_sampler_uniform_over_small_ball():
    base = path_graph(4)
    ball = enumerate_ball(base, 1)
    rng = Random(17)
    samples = 8000
    counts = Counter(t_smooth(base, 1, rng) for _ in range(samples))
    assert set(counts) <= set(ball)
    tv = sum(abs(counts[g] / samples - 1 / len(ball)) for g in ball) / 2
    assert tv < 0.05


def test_rejection_budget_exhaustion():
    # On the 2-node path every nonzero flip disconnects, so a budget of one
    # attempt must eventually fail for some seed.
    base = path_graph(2)
    failed = False
    for seed in range(100):
        try:
            t_smooth(base, 1, Random(seed), max_rejections=1)
        except RejectionBudgetExceeded as exc:
            assert exc.rejections == 1
            failed = True
            break
    assert failed


def test_two_node_ball_collapses_to_identity():
    # ... but with the default budget the sampler practically always lands
    # on the only connected member, the base graph itself.
    base = path_graph(2)
    assert all(t_smooth(base, 1, Random(s)) == base for s in range(30))


def _walk_connected(g):
    seen = {0}
    stack = [0]
    while stack:
        for v in g.adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def _rebuild_sampler(g, t, rng, max_rejections=DEFAULT_MAX_REJECTIONS):
    """The sampler without delta graphs (reference): every proposal copies
    the edge set, flips its pairs, builds a fresh Graph and walks it."""
    if t <= 0:
        return g
    pairs = all_pairs(g.n)
    t = min(t, len(pairs))
    cum = list(accumulate(comb(len(pairs), j) for j in range(t + 1)))
    for _ in range(max_rejections):
        ticket = rng.randrange(cum[-1])
        flips = 0
        while ticket >= cum[flips]:
            flips += 1
        if flips == 0:
            return g
        edges = set(g.edges)
        for idx in rng.sample(range(len(pairs)), flips):
            edges ^= {pairs[idx]}
        candidate = Graph(g.n, edges)
        if _walk_connected(candidate):
            return candidate
    raise RejectionBudgetExceeded(g.n, t, max_rejections)


@st.composite
def smoothing_bases(draw, min_n: int = 1, max_n: int = 9):
    """Any graph on min_n..max_n nodes; about half get a spanning path, so
    both connected and disconnected bases come up often."""
    n = draw(st.integers(min_n, max_n))
    pairs = all_pairs(n)
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {pair for pair, kept in zip(pairs, keep) if kept}
    if draw(st.booleans()):
        edges |= path_graph(n).edges
    return Graph(n, edges)


def _draw(sampler, g, t, rng, max_rejections):
    try:
        return sampler(g, t, rng, max_rejections)
    except RejectionBudgetExceeded as exc:
        return (exc.n, exc.t, exc.rejections)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(smoothing_bases(), st.integers(0, 4)),
        # 21 < N <= 85 pairs: more than five flips sample from a pool (the
        # enlarged set size), five or fewer by redrawing repeats.
        st.tuples(smoothing_bases(8, 13), st.integers(5, 8)),
    ),
    st.integers(0, 10**9),
    st.sampled_from([1, 2, 3, DEFAULT_MAX_REJECTIONS]),
    st.booleans(),
    st.booleans(),
)
def test_delta_sampler_matches_rebuild_sampler(base_and_t, seed, max_rejections, prechecked, masked):
    base, t = base_and_t
    if masked:
        # The base kept as its pair mask with its rows unbuilt; prechecked,
        # it knows its connectivity as a random connected graph does.
        known = is_connected(Graph(base.n, base.edges)) if prechecked else None
        base = Graph.from_mask(base.n, bytes(p in base.edges for p in all_pairs(base.n)), known)
    elif prechecked:
        is_connected(base)  # the engine validates the base before smoothing
    rng, reference = Random(seed), Random(seed)
    out = _draw(t_smooth, base, t, rng, max_rejections)
    expected = _draw(_rebuild_sampler, base, t, reference, max_rejections)
    assert rng.getstate() == reference.getstate()
    if isinstance(expected, tuple):
        assert out == expected
        return
    assert isinstance(out, Graph) and out.edges == expected.edges
    fresh = Graph(out.n, out.edges)
    assert out.adj == fresh.adj
    assert is_connected(out) == _walk_connected(fresh)


def test_an_adding_flip_leaves_a_mask_backed_base_unbuilt():
    """t_smooth patches rows only for the walk of a proposal that removes
    an edge: an accepted proposal that only adds edges leaves its own rows
    unbuilt, whether its base's rows are unbuilt (a random connected graph
    kept as its mask) or built (a line), and a base's rows are built only by
    such a walk."""
    pairs = all_pairs(16)
    accepted = 0
    for seed in range(40):
        tree = random_connected_graph(16, Fraction(0), Random(seed))
        line = path_graph(16)
        assert is_connected(line) and line._adj is not None
        for base in (tree, line):
            built = base._adj is not None
            out = t_smooth(base, 1, Random(seed))
            # Replay the proposals: flipping an edge of a tree disconnects,
            # so it is walked and rejected; the first other flip (or none)
            # is accepted.
            replay, removed = Random(seed), False
            while replay.randrange(len(pairs) + 1):
                if pairs[replay.sample(range(len(pairs)), 1)[0]] not in base.edges:
                    break
                removed = True
            assert (base._adj is not None) == (built or removed)
            if out is not base:
                assert out._adj is None
                accepted += 1
            assert out.adj == Graph(16, out.edges).adj
    assert accepted > 60


# Around both set-size boundaries of Random.sample (21, and 85 for six to
# 21 picks), and one large population.
SAMPLE_POPULATIONS = [*range(1, 31), *range(80, 91), 8128]


@pytest.mark.parametrize("seed", range(12))
def test_direct_draws_match_the_stdlib(seed):
    for population in SAMPLE_POPULATIONS:
        rng, reference = Random(seed), Random(seed)
        assert _randbelow(rng.getrandbits, population) == reference.randrange(population)
        assert rng.getstate() == reference.getstate()
        for k in range(min(population, 9) + 1):
            drawn = _sample_range(rng.getrandbits, population, k)
            assert drawn == reference.sample(range(population), k)
            assert rng.getstate() == reference.getstate()


def test_randbelow_accepts_each_value_below_its_bound_once():
    # Every getrandbits outcome of the bound's width, fed once as the first
    # draw: 0..b-1 are each accepted on that draw, and every other outcome
    # draws again.  So each accepted draw is uniform on [0, b).
    for bound in range(1, 257):
        width = bound.bit_length()
        accepted = Counter()
        for first in range(1 << width):
            draws = [first, 0]
            widths = []

            def getrandbits(k):
                widths.append(k)
                return draws[len(widths) - 1]

            value = _randbelow(getrandbits, bound)
            assert set(widths) == {width}
            if first < bound:
                assert (value, len(widths)) == (first, 1)
                accepted[value] += 1
            else:
                assert (value, len(widths)) == (0, 2)
        assert accepted == Counter(range(bound))


@pytest.mark.parametrize("k", ["1/2", "5/4", "7/3", "13/8", "255/256", "3/1000", "9"])
def test_rounding_draws_match_the_stdlib(k):
    params = SmoothingParams(k=Fraction(k))
    frac = params.k_frac
    rng, reference = Random(41), Random(41)
    for _ in range(500):
        expected = params.k_floor
        if frac:
            expected += reference.randrange(frac.denominator) < frac.numerator
        assert _round_up(params.k_floor, frac, rng) == expected
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 59])
def test_pair_unranking_matches_lexicographic_pairs(n):
    total = n * (n - 1) // 2
    assert [_unrank_pair(n, total, i) for i in range(total)] == all_pairs(n)


def test_sampler_keeps_no_table_of_pairs():
    g = path_graph(2000)
    assert is_connected(g)  # builds the base adjacency outside the measurement
    rng = Random(6)
    tracemalloc.start()
    try:
        t_smooth(g, 2, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A table of all 1,999,000 pairs would take over 100 MiB.
    assert peak < 2**20


# ----------------------------------------------------------------------
# hitting-rate calibration
# ----------------------------------------------------------------------


HITTING_BASES = {
    **UNIFORMITY_BASES,
    "randomConnected-1": lambda n: random_connected_graph(n, Fraction(1, 10), Random(1)),
    "randomConnected-2": lambda n: random_connected_graph(n, Fraction(1, 10), Random(2)),
}
# Where the exact constant for n non-edges falls below DEFAULT_C1 at t = 2:
# the hit rate of a set of n pairs grows slower than linearly in its size.
BELOW_DEFAULT_C1 = {
    ("randomConnected-1", 8, 2),
    ("randomConnected-2", 8, 2),
    ("randomConnected-1", 9, 2),
    ("randomConnected-2", 9, 2),
}


@pytest.mark.parametrize(
    "shape, n, t",
    [
        pytest.param(
            shape, n, t,
            marks=pytest.mark.xfail(
                (shape, n, t) in BELOW_DEFAULT_C1,
                reason="the n-target constant is below DEFAULT_C1",
                strict=True,
            ),
        )
        for shape in HITTING_BASES
        for n in range(4, 10)
        for t in (1, 2)
    ],
)
def test_default_hitting_constant_holds_exactly(shape, n, t):
    constants = exact_hitting_constants(HITTING_BASES[shape](n), t)
    assert all(DEFAULT_C1 <= c for c in constants.values()), constants


def test_hitting_rate_beats_configured_constant():
    # n=8 path, k=1: the ball has 22 members, 21 chord-additions plus the
    # base, so a single chord target is hit 1/22 > 2/64 of the time.
    assert exact_hitting_constants(path_graph(8), Fraction(1))[1] >= DEFAULT_C1


def test_hitting_rate_scales_with_target_size():
    # The first four chords are hit 4/22 >= 2 * 4/64 of the time.
    assert exact_hitting_constants(path_graph(8), Fraction(1))[4] >= DEFAULT_C1


def test_calibration_reports_constants_above_default():
    # The value the README quotes for `dynbal calibrate-c1 16 1`.
    constants = exact_hitting_constants(path_graph(16), Fraction(1))
    assert constants == dict.fromkeys((1, 8, 16), Fraction(128, 53))
    assert min(constants.values()) > Fraction(6, 5)


@pytest.mark.parametrize("shape", HITTING_BASES)
def test_hitting_constants_count_the_enumerated_ball(shape):
    # At t = 2, against a plain count over `enumerate_ball`: the share of
    # members holding a target, scaled by n^2 / (t |S|).
    base, t = HITTING_BASES[shape](7), 2
    ball = enumerate_ball(base, t)
    non_edges = [pair for pair in all_pairs(7) if pair not in base.edges]
    held = Counter(pair for g in ball for pair in g.edges)
    expected = {1: Fraction(min(held[pair] for pair in non_edges), len(ball)) * 49 / t}
    for size in (3, 7):
        hits = sum(1 for g in ball if set(non_edges[:size]) & g.edges)
        expected[size] = Fraction(hits, len(ball)) * 49 / (t * size)
    assert exact_hitting_constants(base, Fraction(t)) == expected


def hit_rates(base, k):
    """The hit probabilities behind `exact_hitting_constants`, per size."""
    n = base.n
    return {size: c * k * size / (n * n) for size, c in exact_hitting_constants(base, k).items()}


@pytest.mark.parametrize("n", range(4, 13))
def test_hitting_constants_match_closed_forms(n):
    pairs = n * (n - 1) // 2
    # At t = 1 every member but the base flips one pair, and removing an
    # edge disconnects a path or a star but not a cycle.
    for build, expected in (
        (path_graph, Fraction(n * n, pairs - n + 2)),
        (star_graph, Fraction(n * n, pairs - n + 2)),
        (cycle_graph, Fraction(2 * n * n, n * n - n + 2)),
    ):
        assert set(exact_hitting_constants(build(n), Fraction(1)).values()) == {expected}


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("shape, build", UNIFORMITY_BASES.items())
def test_fractional_amounts_mix_the_neighbouring_balls(shape, build, n):
    base = build(n)
    # The 0-ball is the base itself and never hits a non-edge.
    assert exact_hitting_constants(base, Fraction(1, 2)) == exact_hitting_constants(
        base, Fraction(1)
    )
    # k = 3/2 draws the 1-ball and the 2-ball half the time each.  Every
    # non-edge is hit equally often at t = 1, so the worst single non-edge
    # of the mix is the mix of the worst ones.
    one, two = hit_rates(base, Fraction(1)), hit_rates(base, Fraction(2))
    assert hit_rates(base, Fraction(3, 2)) == {size: (one[size] + two[size]) / 2 for size in one}


def test_hitting_constants_refuse_a_ball_over_the_guard():
    with pytest.raises(ValueError, match="guard"):
        exact_hitting_constants(path_graph(40), Fraction(6))
    # k = 7/2 on the 16-path: the 3-ball (288,101 candidates) is within the
    # guard, the 4-ball (over 8.2 million) is not, and it is checked too.
    with pytest.raises(ValueError, match="guard"):
        exact_hitting_constants(path_graph(16), Fraction(7, 2))


def test_params_validation():
    with pytest.raises(ValueError):
        SmoothingParams(k=Fraction(-1))
    with pytest.raises(ValueError):
        SmoothingParams(k=Fraction(1), max_rejections=0)
