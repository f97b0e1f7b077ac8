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
    """One round; continuous Dyadic loads go in as numerators and their new
    loads come back rendered as Dyadic values."""
    alg = RandMaxNeighbor()
    alg.start(list(loads), mode, Random(seed), k=0, tau=0, n=graph.n)
    if mode == "integral":
        return alg.play_round(graph, list(loads))
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
        assert outcome.new_loads in ([2, 9], [5, 6])
        if outcome.new_loads == [5, 6]:
            saw_transfer = True
    assert saw_transfer


def test_adjacent_unit_gap_moves_nothing():
    # (a, a+1) connects but the floor/ceil split returns the same values.
    for seed in range(20):
        outcome = play([4, 5], path_graph(2), "integral", seed)
        assert outcome.new_loads == [4, 5]


def test_receiver_prefers_largest_gap_then_lowest_id():
    # Star center 1 holding 8; leaves 0 and 2 empty.  Whenever both leaves
    # send and the center receives, the center must accept leaf 0.
    graph = Graph(3, [(0, 1), (1, 2)])
    for seed in range(200):
        outcome = play([0, 8, 0], graph, "integral", seed)
        if len(outcome.proposals) >= 2 and 0 in outcome.proposals and 2 in outcome.proposals:
            if outcome.acceptances:
                assert outcome.acceptances == [(0, 1)]


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
    trace = RoundTrace(1, graph, outcome.matching, 0, Dyadic(0))
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
    assert a.proposals == b.proposals
