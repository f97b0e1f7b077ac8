"""Randomized max-gap baseline: role flips, exact transfers, matching budget,
and the per-trial proposal memo."""

from random import Random

from hypothesis import given, settings, strategies as st

from dynbal.adversaries import AdversaryContext, SortingLinePolicy
from dynbal.algorithms import RandMaxNeighbor, randomized
from dynbal.dyadic import Dyadic
from dynbal.graphs import Graph, all_pairs, path_graph, toggled_adjacency
from dynbal.loads import LoadState, line_ramp, to_dyadics, to_scaled, total_load
from dynbal.metrics import CHECK_MATCHING_BUDGET, KIND_MATCHING, check_round
from dynbal.records import RoundTrace
from dynbal.smoothing import t_smooth
from oracles import rand_max_neighbor_round
from strategies import connected_graphs


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


# ----------------------------------------------------------------------
# the per-trial proposal memo equals asking every sender afresh
# ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(connected_graphs(max_n=10), st.sampled_from(["integral", "continuous"]), st.data())
def test_memo_rounds_match_the_reference(graph, mode, data):
    n = graph.n
    seed = data.draw(st.integers(0, 2**32))
    rng, reference_rng = Random(seed), Random(seed)
    # Loads from a narrow range, so ties and unit gaps are common.
    loads = tuple(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    alg = RandMaxNeighbor()
    alg.start(loads, mode, rng, k=0, tau=0, n=n)
    base, smooth_rng = graph, Random(seed + 1)
    for _ in range(data.draw(st.integers(1, 10))):
        shape = data.draw(st.sampled_from(["keep", "base", "twin", "other", "smooth", "remove"]))
        if shape == "base":
            graph = base
        elif shape == "twin":
            graph = base = Graph(n, base.edges)  # equal edges, a new identity
        elif shape == "other":
            graph = base = data.draw(connected_graphs(max_n=n, min_n=n))
        elif shape == "smooth":
            graph = t_smooth(base, data.draw(st.integers(1, 3)), smooth_rng)
        elif shape == "remove" and base.edges:
            # A flip list that removes at least one edge, not sorted.
            pairs = data.draw(
                st.lists(st.sampled_from(all_pairs(n)), max_size=3, unique=True)
                .map(lambda ps: ps + [p for p in sorted(base.edges) if p not in ps][:1])
            )
            graph = Graph.toggled(base, pairs, toggled_adjacency(base, pairs)[0])

        expected = rand_max_neighbor_round(reference_rng, mode, graph, list(loads))
        outcome = alg.play_round(graph, loads)
        assert list(outcome.new_loads) == list(expected.new_loads)
        assert outcome.matching == expected.matching
        assert outcome.shift == expected.shift
        assert rng.getstate() == reference_rng.getstate()
        if mode == "integral" and list(outcome.new_loads) == list(loads):
            assert outcome.new_loads is loads

        step = data.draw(st.sampled_from(["advance", "keep", "mutate", "copy", "fresh"]))
        if step == "advance":
            loads = outcome.new_loads
        elif step == "mutate":
            # A list may change in place between rounds: the memo must not
            # trust one it was given before.
            if type(loads) is tuple:
                loads = list(loads)
            loads[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, 6))
        elif step == "copy":
            loads = tuple(list(loads))  # equal loads, a new identity
        elif step == "fresh":
            loads = tuple(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))


def test_frozen_sorting_line_asks_each_node_once(monkeypatch):
    # The sorting line at n=8 on ramp loads: every pair it matches is within
    # one unit and already in order, so no load moves and the line never
    # changes.  While graph and tuple stay, each node is asked at most once.
    n = 8
    asked = []
    ask = randomized.heaviest_gap_neighbor
    monkeypatch.setattr(
        randomized, "heaviest_gap_neighbor", lambda u, *args: asked.append(u) or ask(u, *args)
    )
    policy = SortingLinePolicy()
    policy.bind(n, Random(0))
    loads = tuple(line_ramp(n))
    alg = RandMaxNeighbor()
    alg.start(loads, "integral", Random(0), k=0, tau=0, n=n)
    ctx = AdversaryContext(round_index=0, loads=LoadState("integral", loads))
    first_graph = policy.next_graph(ctx)
    pairs = 0
    for r in range(1, 51):
        ctx.round_index = r
        graph = policy.next_graph(ctx)
        assert graph is first_graph
        outcome = alg.play_round(graph, loads)
        assert outcome.new_loads is loads
        ctx.last_matching = [(u, v) for u, v, _ in outcome.matching]
        pairs += len(outcome.matching)
    assert pairs > 0
    assert len(asked) <= n
