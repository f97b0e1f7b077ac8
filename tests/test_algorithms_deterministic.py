"""Two-sided deterministic rounds against hand-worked traces and the
per-round inequalities they must satisfy."""

from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dynbal.algorithms import TwoSidedDeterministic
from dynbal.dyadic import Dyadic
from dynbal.graphs import Graph, all_pairs, is_connected, path_graph, star_graph
from dynbal.loads import LoadState, to_dyadics, to_scaled
from dynbal.metrics import (
    CHECK_CONSERVATION,
    CHECK_COVERING_EDGE,
    CHECK_MATCHING_BUDGET,
    CHECK_POTENTIAL_DROP,
    CHECK_SHIFT_LOWER_BOUND,
    CHECK_SPLIT_POTENTIAL,
    KIND_TWO_SIDED,
    check_round,
    max_gap,
    potential,
    twice_shifted_load,
)
from dynbal.records import RoundTrace
from dynbal.smoothing import SmoothingParams, k_smooth
from oracles import interactive_round, internal_round, split_evenly


def play_scaled(nums, graph):
    """One round on numerators; the outcome is in the kernel's scales."""
    alg = TwoSidedDeterministic()
    alg.start(list(nums), "continuous", Random(0), k=0, tau=0)
    return alg.play_round(graph, list(nums))


def play(loads, graph):
    """One round on int or Fraction loads, with the outcome rendered back to
    Dyadic values: gaps in the loads' scale, loads `shift` bits finer."""
    nums, exp = to_scaled(loads)
    outcome = play_scaled(nums, graph)
    outcome.new_loads = to_dyadics(outcome.new_loads, exp + outcome.shift)
    outcome.matching = [(u, v, Dyadic(gap, exp)) for u, v, gap in outcome.matching]
    return outcome


def halves(state, exp):
    return [(Dyadic(s, exp), Dyadic(a, exp)) for s, a in state]


def test_split_evenly():
    # Loads 4 and 3 at exponent 0: the halves sit one bit finer.
    state = split_evenly([4, 3])
    assert halves(state, 1) == [(2, 2), (Dyadic(3, 1), Dyadic(3, 1))]


def test_internal_round_averages_halves():
    # (1, 3) at exponent 0 and (5/2, 1/2) at exponent 1; the averages sit
    # one bit finer than their input.
    assert halves(internal_round([(1, 3)]), 1) == [(2, 2)]
    assert halves(internal_round([(5, 1)]), 2) == [(Dyadic(3, 1), Dyadic(3, 1))]


def test_two_node_trace():
    # (4, 0) on an edge: both directions connect, everything meets at 2.
    outcome = play([4, 0], path_graph(2))
    assert outcome.matching == [(1, 0, 4), (0, 1, 4)]
    assert outcome.new_loads == [2, 2]
    # d_r is one bit finer than the gaps it sums.
    assert twice_shifted_load(outcome.matching).as_fraction() / 2 == 4


def test_zero_gap_nodes_stay_silent():
    outcome = play([5, 5, 5], path_graph(3))
    assert outcome.matching == []
    assert outcome.new_loads == [5, 5, 5]


def test_three_node_trace_with_shared_center():
    # Line 0 - 2 - 1 with loads (0, 0, 8): both empty nodes propose to 2;
    # node 2 answers the lower id and sends its own proposal to node 0,
    # so node 0 and node 2 each take part in two connections.
    graph = Graph(3, [(0, 2), (1, 2)])
    outcome = play([0, 0, 8], graph)
    assert outcome.matching == [(2, 0, 8), (0, 2, 8)]
    assert outcome.new_loads == [4, 0, 4]
    d_r = twice_shifted_load(outcome.matching).as_fraction() / 2
    assert d_r == 8
    after = [w.as_fraction() for w in outcome.new_loads]
    assert potential(after) <= potential([0, 0, 8]) - d_r / 2


def test_interactive_round_exposes_halves():
    # Loads (4, 0) at exponent 0 split one bit finer; the interactive
    # stage moves one more bit finer.  Each direction pairs a sender half
    # with an answerer half, and the matching keeps the halves' scale.
    state = split_evenly([4, 0])
    new_state, outcome = interactive_round(state, path_graph(2))
    assert halves(new_state, 2) == [(1, 1), (1, 1)]
    assert outcome.matching == [(1, 0, 8), (0, 1, 8)]
    assert to_dyadics(outcome.new_loads, 2) == [2, 2]


# ----------------------------------------------------------------------
# the per-round laws, fuzzed over random connected graphs and loads
# ----------------------------------------------------------------------


@st.composite
def round_scenarios(draw):
    n = draw(st.integers(2, 6))
    # A random spanning path plus optional extra edges keeps it connected.
    order = draw(st.permutations(range(n)))
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    for pair in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        a, b = pair
        if a != b:
            edges.add((min(a, b), max(a, b)))
    loads = draw(st.lists(st.integers(0, 32), min_size=n, max_size=n))
    return Graph(n, edges), loads


ALL_DET_CHECKS = [
    CHECK_CONSERVATION,
    CHECK_POTENTIAL_DROP,
    CHECK_COVERING_EDGE,
    CHECK_SHIFT_LOWER_BOUND,
    CHECK_MATCHING_BUDGET,
    CHECK_SPLIT_POTENTIAL,
]


@settings(max_examples=150, deadline=None)
@given(round_scenarios())
def test_round_satisfies_all_deterministic_laws(scenario):
    graph, loads = scenario
    nums, exp = to_scaled(loads)
    outcome = play_scaled(nums, graph)
    after_exp = exp + outcome.shift
    trace = RoundTrace(
        round_index=1,
        graph=graph,
        matching=outcome.matching,
        d_r=twice_shifted_load(outcome.matching),
    )
    report = check_round(
        LoadState("continuous", nums, exp),
        LoadState("continuous", outcome.new_loads, after_exp),
        trace,
        algorithm_kind=KIND_TWO_SIDED,
        enabled=ALL_DET_CHECKS,
    )
    assert report.ok, report.witnesses


@settings(max_examples=100, deadline=None)
@given(round_scenarios())
def test_round_never_widens_the_range(scenario):
    graph, loads = scenario
    outcome = play(loads, graph)
    assert min(outcome.new_loads) >= min(loads)
    assert max(outcome.new_loads) <= max(loads)


@settings(max_examples=60, deadline=None)
@given(round_scenarios())
def test_some_progress_whenever_unbalanced(scenario):
    # On a connected graph some edge has a positive gap whenever the loads
    # differ anywhere, so an unconverged round always connects someone.
    graph, loads = scenario
    if max_gap(to_scaled(loads)[0]) > 0:
        outcome = play(loads, graph)
        assert outcome.matching


# ----------------------------------------------------------------------
# the one-pass round against the two stages it fuses
# ----------------------------------------------------------------------


@st.composite
def stage_scenarios(draw):
    """Paths, stars and random connected graphs on up to 10 nodes, with
    loads drawn from a few values so that ties, zeros and several
    proposers to one node are common."""
    n = draw(st.integers(1, 10))
    shape = draw(st.sampled_from(["path", "star", "random"]))
    if shape == "path":
        graph = path_graph(n)
    elif shape == "star":
        graph = star_graph(n, draw(st.integers(0, n - 1)))
    else:
        order = draw(st.permutations(range(n)))
        edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
        node = st.integers(0, n - 1)
        edges |= {(min(a, b), max(a, b)) for a, b in draw(st.lists(st.tuples(node, node))) if a != b}
        graph = Graph(n, edges)
    value = st.sampled_from([0, 0, 1, 3, 3, 8]) | st.integers(0, 2**70)
    return graph, draw(st.lists(value, min_size=n, max_size=n))


def assert_equals_the_two_stages(graph, nums):
    _, staged = interactive_round(split_evenly(nums), graph)
    outcome = play_scaled(nums, graph)
    # The stages end one bit finer than the halves, two bits finer than
    # the loads, with the matching's gaps in the halves' (doubled) scale.
    assert outcome.shift == 2
    assert outcome.new_loads == tuple(staged.new_loads)
    assert all(gap % 2 == 0 for _, _, gap in staged.matching)
    assert outcome.matching == [(u, v, gap >> 1) for u, v, gap in staged.matching]


@settings(max_examples=300, deadline=None)
@given(stage_scenarios())
def test_play_round_equals_the_two_stages(scenario):
    assert_equals_the_two_stages(*scenario)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_play_round_equals_the_two_stages_on_every_small_tie(n):
    # Every connected labelled graph on n nodes under every load vector in
    # {0, 1, 2}^n: ties between candidates and between proposers everywhere.
    pairs = all_pairs(n)
    graphs = [
        graph
        for size in range(n - 1, len(pairs) + 1)
        for edges in combinations(pairs, size)
        if is_connected(graph := Graph(n, edges))
    ]
    assert len(graphs) == {1: 1, 2: 1, 3: 4, 4: 38}[n]
    for graph in graphs:
        for nums in product(range(3), repeat=n):
            assert_equals_the_two_stages(graph, list(nums))


@pytest.mark.parametrize("k", [1, 2])
def test_toggled_rows_play_like_a_fresh_graph(k):
    # The smoothing sampler patches the base rows with insort; the round
    # reads those rows in order, so it must play as on the same edges
    # sorted afresh.
    rng, draw = Random(k), Random(100 + k)
    base = path_graph(8)
    toggled = 0
    for _ in range(200):
        graph = k_smooth(base, SmoothingParams(k=Fraction(k)), rng)
        toggled += graph.base is base
        nums = [draw.choice([0, 1, 3, 3, 8]) for _ in range(8)]
        assert play_scaled(nums, graph) == play_scaled(nums, Graph(8, graph.edges))
    assert toggled > 100
