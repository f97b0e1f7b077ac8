"""Smoothing sampler tests: exact rounding, ball enumeration, uniformity."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dynbal.graphs import (
    Graph,
    all_pairs,
    complete_graph,
    hamming_distance,
    is_connected,
    path_graph,
)
from dynbal.smoothing import (
    DEFAULT_C1,
    DEFAULT_MAX_REJECTIONS,
    RejectionBudgetExceeded,
    SmoothingParams,
    calibrate_hitting_constant,
    enumerate_ball,
    k_smooth,
    measure_hitting_rate,
    randomized_round,
    t_smooth,
)
from dynbal.smoothing import _unrank_pair


# ----------------------------------------------------------------------
# randomised rounding
# ----------------------------------------------------------------------


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
def smoothing_bases(draw):
    """Any graph on 1..9 nodes; about half get a spanning path, so both
    connected and disconnected bases come up often."""
    n = draw(st.integers(1, 9))
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
    smoothing_bases(),
    st.integers(0, 4),
    st.integers(0, 10**9),
    st.sampled_from([1, 2, 3, DEFAULT_MAX_REJECTIONS]),
    st.booleans(),
)
def test_delta_sampler_matches_rebuild_sampler(base, t, seed, max_rejections, prechecked):
    if prechecked:
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


def test_hitting_rate_beats_configured_constant():
    # n=8 path, k=1: the ball has 22 members, 21 chord-additions plus the
    # base, so a single chord target is hit 1/22 > 2/64 of the time.
    rate = measure_hitting_rate(
        path_graph(8),
        [(0, 2)],
        SmoothingParams(k=Fraction(1)),
        samples=20_000,
        rng=Random(23),
    )
    assert rate >= DEFAULT_C1 * 1 * 1 / Fraction(64)


def test_hitting_rate_scales_with_target_size():
    params = SmoothingParams(k=Fraction(1))
    targets = [(0, 2), (0, 3), (1, 3), (2, 4)]
    rate = measure_hitting_rate(path_graph(8), targets, params, 20_000, Random(29))
    assert rate >= DEFAULT_C1 * 1 * len(targets) / Fraction(64)


def test_calibration_reports_constants_above_default():
    measured = calibrate_hitting_constant(16, Fraction(1), samples=4000, rng=Random(31))
    assert measured
    assert all(c > 0 for c in measured.values())
    # Sampling noise allowed for, every estimate should clear the shipped
    # default comfortably.
    assert min(measured.values()) > Fraction(6, 5)


def test_params_validation():
    with pytest.raises(ValueError):
        SmoothingParams(k=Fraction(-1))
    with pytest.raises(ValueError):
        SmoothingParams(k=Fraction(1), max_rejections=0)
