"""Adversary policy behaviour: orderings, swaps, random graph families."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dynbal import adversaries
from dynbal.adversaries import (
    RandomConnectedPolicy,
    ResortDescendingPolicy,
    SortingLinePolicy,
    StaticPolicy,
    make_adversary,
    random_connected_graph,
    sorting_line_postprocess,
)
from dynbal.graphs import Graph, is_connected, line_of, star_graph
from dynbal.loads import LoadState
from oracles import randrange_connected_graph


def state_of(loads):
    return LoadState("integral", loads)


# ----------------------------------------------------------------------
# static
# ----------------------------------------------------------------------


def test_static_named_shapes():
    policy = StaticPolicy(shape="star")
    policy.bind(5, Random(0))
    assert policy.next_graph(state_of([0] * 5), ()) == star_graph(5)


def test_static_explicit_edges():
    policy = StaticPolicy(edges=[[0, 1], [1, 2], [0, 2]])
    policy.bind(3, Random(0))
    assert policy.next_graph(state_of([0, 0, 0]), ()).edges == {(0, 1), (1, 2), (0, 2)}


def test_static_rejects_disconnected():
    policy = StaticPolicy(edges=[[0, 1]])
    with pytest.raises(ValueError):
        policy.bind(3, Random(0))


def test_static_rejects_unknown_shape():
    with pytest.raises(ValueError):
        StaticPolicy(shape="torus").bind(4, Random(0))


# ----------------------------------------------------------------------
# resortDescending
# ----------------------------------------------------------------------


def test_resort_descending_orders_heaviest_first():
    policy = ResortDescendingPolicy()
    policy.bind(3, Random(0))
    g = policy.next_graph(state_of([1, 5, 3]), ())
    # Line 1 - 2 - 0 (loads 5, 3, 1).
    assert g.edges == {(1, 2), (0, 2)}


def test_resort_descending_breaks_ties_by_id():
    policy = ResortDescendingPolicy()
    policy.bind(4, Random(0))
    g = policy.next_graph(state_of([7, 7, 7, 7]), ())
    # All equal: identity order 0-1-2-3.
    assert g.edges == {(0, 1), (1, 2), (2, 3)}


def test_resort_descending_caches_unchanged_orders():
    policy = ResortDescendingPolicy()
    policy.bind(3, Random(0))
    g1 = policy.next_graph(state_of([1, 5, 3]), ())
    g2 = policy.next_graph(state_of([2, 6, 4]), ())
    assert g1 is g2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=12),
    st.sampled_from([0, 1, 2**2000]),
)
def test_resort_descending_matches_negated_key_order(levels, offset):
    # Few distinct levels force ties; the offset makes the loads big ints.
    loads = tuple(offset + level for level in levels)
    n = len(loads)
    policy = ResortDescendingPolicy()
    policy.bind(n, Random(0))
    graph = policy.next_graph(state_of(loads), ())
    expected = tuple(sorted(range(n), key=lambda v: (-loads[v], v)))
    assert policy._last_order == expected
    assert graph == line_of(expected)


# ----------------------------------------------------------------------
# sorting line
# ----------------------------------------------------------------------


def test_postprocess_reorders_balanced_pair():
    # Nodes 10.., order positions: pair (a, b) at positions 2 and 3 was
    # balanced to loads (7, 4); afterwards the line must read (4, 7).
    order = [4, 3, 0, 1, 2]
    loads = [7, 4, 0, 0, 0]
    updated = sorting_line_postprocess(order, [(0, 1, 7)], loads)
    assert updated == [4, 3, 1, 0, 2]


def test_postprocess_keeps_sorted_pairs():
    order = [0, 1, 2]
    updated = sorting_line_postprocess(order, [(0, 1, 7)], [2, 9, 0])
    assert updated == [0, 1, 2]


def test_postprocess_keeps_ties():
    updated = sorting_line_postprocess([0, 1], [(0, 1, 0)], [5, 5])
    assert updated == [0, 1]


def test_postprocess_rejects_non_adjacent_pairs():
    # Nodes 0 and 2 are not neighbours on the line 0-1-2: the pair is left
    # in place, however its loads compare.
    assert sorting_line_postprocess([0, 1, 2], [(0, 2, 2)], [3, 2, 1]) == [0, 1, 2]


def test_postprocess_chain_of_overlapping_pairs():
    # A two-sided round can put node 1 in two pairs.  Pair (0, 1) swaps
    # first, which moves node 1 away from node 2: pair (1, 2) is then no
    # longer adjacent and is skipped.
    loads = [5, 3, 1]
    assert sorting_line_postprocess([0, 1, 2], [(0, 1, 2), (2, 1, 2)], loads) == [1, 0, 2]
    # Pair (0, 2) is not adjacent before that swap but is after it, so it
    # is applied too.
    assert sorting_line_postprocess([0, 1, 2], [(0, 1, 2), (2, 0, 4)], loads) == [1, 2, 0]


def test_sorting_line_starts_with_identity():
    policy = SortingLinePolicy()
    policy.bind(4, Random(0))
    g = policy.next_graph(state_of([1, 2, 3, 4]), ())
    assert g.edges == {(0, 1), (1, 2), (2, 3)}


def test_sorting_line_applies_swaps_from_matching():
    policy = SortingLinePolicy()
    policy.bind(3, Random(0))
    policy.next_graph(state_of([0, 8, 0]), ())
    # Pair (0, 1) balanced; node 0 now heavier, so next line is 1-0-2.
    g = policy.next_graph(state_of([5, 3, 0]), [(0, 1, 8)])
    assert policy.order == (1, 0, 2)
    assert g.edges == {(0, 1), (0, 2)}


def test_sorting_line_ignores_off_line_pairs():
    policy = SortingLinePolicy()
    policy.bind(4, Random(0))
    policy.next_graph(state_of([0, 0, 0, 0]), ())
    g = policy.next_graph(state_of([9, 0, 0, 1]), [(0, 3, 0)])
    assert policy.order == (0, 1, 2, 3)
    assert g.edges == {(0, 1), (1, 2), (2, 3)}


def rebuilt_postprocess(order, matching, loads):
    """The sorting line rebuilt from scratch each round: a position dict
    and a set of canonical pairs, applied in sorted order."""
    new_order = list(order)
    position = {node: i for i, node in enumerate(new_order)}
    for u, v in sorted({(min(u, v), max(u, v)) for u, v, _ in matching}):
        pu, pv = position[u], position[v]
        if abs(pu - pv) != 1:
            continue
        first, second = (u, v) if pu < pv else (v, u)
        if loads[first] > loads[second]:
            position[first], position[second] = position[second], position[first]
            lo = min(pu, pv)
            new_order[lo], new_order[lo + 1] = second, first
    return new_order


@st.composite
def line_rounds(draw):
    """Rounds of (kind, loads, matching) at n <= 10.  Pairs may sit off
    the line, overlap, repeat, and come in both orientations, as two-sided
    rounds give, each with a gap the line does not read; loads come from
    a small range so ties are common.  A
    "repeat" round presents the previous round's very loads tuple again,
    and a "sorted" round's loads ascend along the line it is played on."""
    n = draw(st.integers(2, 10))
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node, st.integers(0, 6)).filter(lambda p: p[0] != p[1])
    rounds = []
    for index in range(draw(st.integers(1, 12))):
        pairs = draw(st.lists(pair, max_size=n))
        if pairs:
            flipped = draw(st.lists(st.sampled_from(pairs), max_size=n))
            pairs += [(v, u, gap) for u, v, gap in flipped]
        kinds = ["new", "sorted"] + (["repeat"] if index else [])
        kind = draw(st.sampled_from(kinds))
        rounds.append((kind, draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)), pairs))
    return n, rounds


def round_loads(kind, values, order, last_loads) -> tuple:
    """The loads tuple a `line_rounds` round presents on the line `order`."""
    if kind == "repeat":
        return last_loads
    if kind == "sorted":
        loads = [0] * len(order)
        for node, value in zip(order, sorted(values)):
            loads[node] = value
        return tuple(loads)
    return tuple(values)


@settings(max_examples=150, deadline=None)
@given(line_rounds())
def test_in_place_sorting_line_equals_rebuild(scenario):
    n, rounds = scenario
    policy = SortingLinePolicy()
    policy.bind(n, Random(0))
    order = list(range(n))
    graph = policy.next_graph(state_of([0] * n), ())
    assert graph == line_of(order)
    loads = None
    for kind, values, pairs in rounds:
        last_order, last_graph = order, graph
        loads = round_loads(kind, values, order, loads)
        order = rebuilt_postprocess(order, pairs, loads)
        graph = policy.next_graph(state_of(loads), pairs)
        assert list(policy.order) == order
        assert [policy.order[i] for i in policy.position] == list(range(n))
        assert graph == line_of(order)
        # An unmoved order presents the very graph object of the last round.
        assert (graph is last_graph) == (order == last_order)
        assert sorting_line_postprocess(order, pairs, loads) == rebuilt_postprocess(
            order, pairs, loads
        )


def count_swap_scans(monkeypatch) -> list:
    """One entry per `_swap_pairs` call the sorting line makes."""
    calls = []
    scan = adversaries._swap_pairs

    def counting(order, position, matching, loads):
        calls.append(order)
        return scan(order, position, matching, loads)

    monkeypatch.setattr(adversaries, "_swap_pairs", counting)
    return calls


def test_an_ascending_line_stops_scanning_its_pairs(monkeypatch):
    # The n = 8 lineRamp is the fixed point of criterion 3: every round
    # hands back the committed tuple and no pair swaps.
    calls = count_swap_scans(monkeypatch)
    policy = SortingLinePolicy()
    policy.bind(8, Random(0))
    pairs = [(0, 1, 1), (3, 2, 1), (5, 6, 1)]

    def present(loads, rounds=4):
        before = len(calls)
        for _ in range(rounds):
            assert policy.next_graph(state_of(loads), pairs) is graph
        return len(calls) - before

    graph = policy.next_graph(state_of(()), ())
    ramp = tuple(range(1, 9))
    # Scanned the first time the (tuple, order) pair is met; the second
    # meeting decides that the line ascends, and no later round scans.
    assert present(ramp) == 1
    assert present(ramp) == 0
    # An equal but new tuple, then an equal but new order tuple under that
    # tuple, are new pairs: each is scanned once again.
    again = tuple(list(ramp))
    assert present(again) == 1
    policy.order = tuple(list(policy.order))
    assert present(again) == 1
    assert policy.order == tuple(range(8))


def test_a_line_that_does_not_ascend_is_scanned_every_round(monkeypatch):
    # Descending loads, but no pair sits on adjacent line positions, so
    # the order stays and every round must still scan its pairs.
    calls = count_swap_scans(monkeypatch)
    policy = SortingLinePolicy()
    policy.bind(4, Random(0))
    graph = policy.next_graph(state_of(()), ())
    loads = (4, 3, 2, 1)
    for _ in range(4):
        assert policy.next_graph(state_of(loads), [(0, 2, 2), (1, 3, 2)]) is graph
    assert len(calls) == 4
    assert policy.order == (0, 1, 2, 3)


# ----------------------------------------------------------------------
# randomConnected
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_random_connected_is_always_connected(n, seed):
    g = random_connected_graph(n, Fraction(1, 10), Random(seed))
    assert g.n == n
    # Walked through the checked constructor: `is_connected(g)` would read
    # the flag the construction sets.
    assert is_connected(Graph(n, g.edges))
    assert len(g.edges) >= n - 1


def test_random_tree_has_exactly_n_minus_one_edges():
    for n, seeds in ((9, 20), (64, 5), (130, 5)):
        for seed in range(seeds):
            g = random_connected_graph(n, Fraction(0), Random(seed))
            assert len(g.edges) == n - 1
            assert is_connected(Graph(n, g.edges))


def test_random_connected_is_seed_deterministic():
    a = [random_connected_graph(8, Fraction(1, 10), Random(5)) for _ in range(1)]
    b = [random_connected_graph(8, Fraction(1, 10), Random(5)) for _ in range(1)]
    assert a == b


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20, 64])
@pytest.mark.parametrize(
    "prob",
    [
        Fraction(0),
        Fraction(1, 10),
        Fraction(1, 5),
        Fraction(3, 7),
        Fraction(1),
        # Denominators around the one-byte boundary of the batched draws,
        # and beyond it where the coins are drawn one at a time.
        Fraction(1, 255),
        Fraction(254, 255),
        Fraction(7, 256),
        Fraction(100, 257),
        Fraction(1, 1000),
        Fraction(1, 10**12),
        Fraction(1, 300),
    ],
)
def test_random_connected_draws_match_randrange(n, prob):
    for seed in range(10):
        rng, reference = Random(seed), Random(seed)
        graph = random_connected_graph(n, prob, rng)
        assert graph.edges == randrange_connected_graph(n, prob, reference).edges
        assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("n", [128, 255, 256, 257])
@pytest.mark.parametrize("prob", [Fraction(0), Fraction(1, 10)])
def test_random_connected_draws_match_randrange_at_the_byte_bound(n, prob):
    """The Pruefer draws below n come in batches up to n = 255 and one at a
    time from n = 256."""
    for seed in range(3):
        rng, reference = Random(seed), Random(seed)
        graph = random_connected_graph(n, prob, rng)
        assert graph.edges == randrange_connected_graph(n, prob, reference).edges
        assert rng.getstate() == reference.getstate()


def test_random_connected_varies_between_rounds():
    policy = RandomConnectedPolicy(Fraction(1, 10))
    policy.bind(8, Random(9))
    seen = {policy.next_graph(state_of([0] * 8), ()) for _ in range(10)}
    assert len(seen) > 1


def test_random_connected_validates_probability():
    with pytest.raises(ValueError):
        RandomConnectedPolicy(Fraction(3, 2))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def test_make_adversary():
    assert isinstance(make_adversary("sortingLine"), SortingLinePolicy)
    assert isinstance(make_adversary("static", shape="cycle"), StaticPolicy)
    with pytest.raises(ValueError):
        make_adversary("chaosMonkey")
