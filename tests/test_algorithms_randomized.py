"""Randomized max-gap baseline: role flips, exact transfers, matching budget."""

from random import Random

from hypothesis import given, settings, strategies as st

from dynbal.algorithms import RandMaxNeighbor
from dynbal.dyadic import Dyadic
from dynbal.graphs import Graph, path_graph
from dynbal.loads import LoadState, to_dyadics, to_scaled, total_load
from dynbal.metrics import CHECK_MATCHING_BUDGET, KIND_MATCHING, check_round
from dynbal.records import RoundTrace


def play(loads, graph, mode, seed):
    """One round; integral loads go in as a tuple, as the engine commits
    them, continuous Dyadic loads as numerators, and their new loads come
    back rendered as Dyadic values."""
    alg = RandMaxNeighbor()
    alg.start(list(loads), mode, Random(seed), k=0, tau=0, n=graph.n)
    if mode == "integral":
        return alg.play_round(graph, tuple(loads))
    nums, exp = to_scaled(loads)
    outcome = alg.play_round(graph, nums)
    outcome.new_loads = to_dyadics(outcome.new_loads, exp + outcome.shift)
    return outcome


def test_two_nodes_continuous_either_meet_or_miss():
    # Depending on the coin flips the pair either balances to 5.5 exactly
    # or (on a role mismatch) stays put; both must occur across seeds.
    loads = [Dyadic(3), Dyadic(8)]
    outcomes = set()
    for seed in range(40):
        result = tuple(play(loads, path_graph(2), "continuous", seed).new_loads)
        outcomes.add(result)
    assert outcomes == {
        (Dyadic(3), Dyadic(8)),
        (Dyadic(11, 1), Dyadic(11, 1)),
    }


def test_two_nodes_integral_floor_to_lighter():
    saw_transfer = False
    for seed in range(40):
        outcome = play([2, 9], path_graph(2), "integral", seed)
        assert outcome.new_loads in ((2, 9), (5, 6))
        if outcome.new_loads == (5, 6):
            saw_transfer = True
    assert saw_transfer


def test_adjacent_unit_gap_moves_nothing():
    # (a, a+1) connects but the floor/ceil split returns the same values.
    for seed in range(20):
        outcome = play([4, 5], path_graph(2), "integral", seed)
        assert outcome.new_loads == (4, 5)


def test_round_that_moves_nothing_hands_back_its_tuple():
    # Pairs within one unit split into the loads they had: the round hands
    # back the very tuple it was given.  A round that moves a unit, and
    # every continuous round (it shifts), returns a new tuple.
    graph = path_graph(3)
    cases = (((4, 5, 4), "integral"), ((2, 9, 3), "integral"), ((4, 5, 4), "continuous"))
    saw = set()
    for seed in range(40):
        for loads, mode in cases:
            alg = RandMaxNeighbor()
            alg.start(loads, mode, Random(seed), k=0, tau=0, n=3)
            outcome = alg.play_round(graph, loads)
            moved = mode == "continuous" or loads == (2, 9, 3) and outcome.matching
            assert type(outcome.new_loads) is tuple
            assert (outcome.new_loads is loads) == (not moved)
            saw.add((loads, mode, bool(outcome.matching)))
    assert ((4, 5, 4), "integral", True) in saw
    assert ((2, 9, 3), "integral", True) in saw


def test_receiver_prefers_largest_gap_then_lowest_id():
    # Star center 1 holding 8; leaves 0 and 2 empty.  The round's roles are
    # the first n bits of the algorithm's stream (set = sender).  Whenever
    # both leaves send and the center receives, the center must accept
    # leaf 0.
    graph = Graph(3, [(0, 1), (1, 2)])
    both_sent = 0
    for seed in range(200):
        outcome = play([0, 8, 0], graph, "integral", seed)
        if Random(seed).getrandbits(3) == 0b101:
            both_sent += 1
            assert outcome.matching == [(0, 1, 8)]
            assert outcome.new_loads == (4, 4, 0)
    assert both_sent


@st.composite
def matching_scenarios(draw):
    n = draw(st.integers(2, 7))
    order = draw(st.permutations(range(n)))
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    loads = draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
    seed = draw(st.integers(0, 10**6))
    return Graph(n, edges), loads, seed


@settings(max_examples=120, deadline=None)
@given(matching_scenarios())
def test_integral_rounds_conserve_and_respect_matching(scenario):
    graph, loads, seed = scenario
    outcome = play(loads, graph, "integral", seed)
    assert total_load(outcome.new_loads) == total_load(loads)
    assert all(isinstance(w, int) and w >= 0 for w in outcome.new_loads)
    trace = RoundTrace(1, graph, outcome.matching, Dyadic(0))
    report = check_round(
        LoadState("integral", loads),
        LoadState("integral", outcome.new_loads),
        trace,
        algorithm_kind=KIND_MATCHING,
        enabled=[CHECK_MATCHING_BUDGET],
    )
    assert report.ok


@settings(max_examples=80, deadline=None)
@given(matching_scenarios())
def test_continuous_rounds_conserve_exactly(scenario):
    graph, loads, seed = scenario
    dy = [Dyadic(w) for w in loads]
    outcome = play(dy, graph, "continuous", seed)
    assert total_load(outcome.new_loads) == total_load(dy)
    assert min(outcome.new_loads) >= min(dy)
    assert max(outcome.new_loads) <= max(dy)


def test_rounds_are_seed_deterministic():
    graph = path_graph(6)
    loads = [0, 9, 3, 7, 1, 4]
    a = play(loads, graph, "integral", 123)
    b = play(loads, graph, "integral", 123)
    assert a.new_loads == b.new_loads
    assert a.matching == b.matching
