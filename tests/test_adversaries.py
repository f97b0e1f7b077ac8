"""Adversary policy behaviour: orderings, swaps, random graph families."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dynbal.adversaries import (
    AdversaryContext,
    RandomConnectedPolicy,
    ResortDescendingPolicy,
    SortingLinePolicy,
    StaticPolicy,
    _random_tree_edges,
    make_adversary,
    random_connected_graph,
    sorting_line_postprocess,
)
from dynbal.graphs import Graph, is_connected, line_of, star_graph
from dynbal.loads import LoadState


def ctx_for(loads, round_index=1, last_matching=()):
    return AdversaryContext(
        round_index=round_index,
        loads=LoadState("integral", list(loads)),
        last_matching=last_matching,
    )


# ----------------------------------------------------------------------
# static
# ----------------------------------------------------------------------


def test_static_named_shapes():
    policy = StaticPolicy(shape="star")
    policy.bind(5, Random(0))
    assert policy.next_graph(ctx_for([0] * 5)) == star_graph(5)


def test_static_explicit_edges():
    policy = StaticPolicy(edges=[[0, 1], [1, 2], [0, 2]])
    policy.bind(3, Random(0))
    assert policy.next_graph(ctx_for([0, 0, 0])).edges == {(0, 1), (1, 2), (0, 2)}


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
    g = policy.next_graph(ctx_for([1, 5, 3]))
    # Line 1 - 2 - 0 (loads 5, 3, 1).
    assert g.edges == {(1, 2), (0, 2)}


def test_resort_descending_breaks_ties_by_id():
    policy = ResortDescendingPolicy()
    policy.bind(4, Random(0))
    g = policy.next_graph(ctx_for([7, 7, 7, 7]))
    # All equal: identity order 0-1-2-3.
    assert g.edges == {(0, 1), (1, 2), (2, 3)}


def test_resort_descending_caches_unchanged_orders():
    policy = ResortDescendingPolicy()
    policy.bind(3, Random(0))
    g1 = policy.next_graph(ctx_for([1, 5, 3]))
    g2 = policy.next_graph(ctx_for([2, 6, 4]))
    assert g1 is g2


# ----------------------------------------------------------------------
# sorting line
# ----------------------------------------------------------------------


def test_postprocess_reorders_balanced_pair():
    # Nodes 10.., order positions: pair (a, b) at positions 2 and 3 was
    # balanced to loads (7, 4); afterwards the line must read (4, 7).
    order = [4, 3, 0, 1, 2]
    loads = [7, 4, 0, 0, 0]
    updated = sorting_line_postprocess(order, [(0, 1)], loads)
    assert updated == [4, 3, 1, 0, 2]


def test_postprocess_keeps_sorted_pairs():
    order = [0, 1, 2]
    updated = sorting_line_postprocess(order, [(0, 1)], [2, 9, 0])
    assert updated == [0, 1, 2]


def test_postprocess_keeps_ties():
    updated = sorting_line_postprocess([0, 1], [(0, 1)], [5, 5])
    assert updated == [0, 1]


def test_postprocess_rejects_non_adjacent_pairs():
    # Nodes 0 and 2 are not neighbours on the line 0-1-2: the pair is left
    # in place, however its loads compare.
    assert sorting_line_postprocess([0, 1, 2], [(0, 2)], [3, 2, 1]) == [0, 1, 2]


def test_postprocess_chain_of_overlapping_pairs():
    # A two-sided round can put node 1 in two pairs.  Pair (0, 1) swaps
    # first, which moves node 1 away from node 2: pair (1, 2) is then no
    # longer adjacent and is skipped.
    loads = [5, 3, 1]
    assert sorting_line_postprocess([0, 1, 2], [(0, 1), (2, 1)], loads) == [1, 0, 2]
    # Pair (0, 2) is not adjacent before that swap but is after it, so it
    # is applied too.
    assert sorting_line_postprocess([0, 1, 2], [(0, 1), (2, 0)], loads) == [1, 2, 0]


def test_sorting_line_starts_with_identity():
    policy = SortingLinePolicy()
    policy.bind(4, Random(0))
    g = policy.next_graph(ctx_for([1, 2, 3, 4]))
    assert g.edges == {(0, 1), (1, 2), (2, 3)}


def test_sorting_line_applies_swaps_from_matching():
    policy = SortingLinePolicy()
    policy.bind(3, Random(0))
    policy.next_graph(ctx_for([0, 8, 0]))
    # Pair (0, 1) balanced; node 0 now heavier, so next line is 1-0-2.
    g = policy.next_graph(ctx_for([5, 3, 0], round_index=2, last_matching=[(0, 1)]))
    assert policy.order == [1, 0, 2]
    assert g.edges == {(0, 1), (0, 2)}


def test_sorting_line_ignores_off_line_pairs():
    policy = SortingLinePolicy()
    policy.bind(4, Random(0))
    policy.next_graph(ctx_for([0, 0, 0, 0]))
    g = policy.next_graph(ctx_for([9, 0, 0, 1], round_index=2, last_matching=[(0, 3)]))
    assert policy.order == [0, 1, 2, 3]
    assert g.edges == {(0, 1), (1, 2), (2, 3)}


def rebuilt_postprocess(order, pairs, loads):
    """The sorting line rebuilt from scratch each round: a position dict
    and a set of canonical pairs, applied in sorted order."""
    new_order = list(order)
    position = {node: i for i, node in enumerate(new_order)}
    for u, v in sorted({(min(p), max(p)) for p in pairs}):
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
    """Rounds of (loads, pairs) at n <= 10.  Pairs may sit off the line,
    overlap, repeat, and come in both orientations, as two-sided rounds
    give; loads come from a small range so ties are common."""
    n = draw(st.integers(2, 10))
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    rounds = []
    for _ in range(draw(st.integers(1, 12))):
        pairs = draw(st.lists(pair, max_size=n))
        if pairs:
            pairs += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=n))]
        rounds.append((draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)), pairs))
    return n, rounds


@settings(max_examples=150, deadline=None)
@given(line_rounds())
def test_in_place_sorting_line_equals_rebuild(scenario):
    n, rounds = scenario
    policy = SortingLinePolicy()
    policy.bind(n, Random(0))
    order = list(range(n))
    assert policy.next_graph(ctx_for([0] * n)) == line_of(order)
    for index, (loads, pairs) in enumerate(rounds, 2):
        order = rebuilt_postprocess(order, pairs, loads)
        graph = policy.next_graph(ctx_for(loads, round_index=index, last_matching=pairs))
        assert policy.order == order
        assert [policy.order[i] for i in policy.position] == list(range(n))
        assert graph == line_of(order)
        assert sorting_line_postprocess(order, pairs, loads) == rebuilt_postprocess(
            order, pairs, loads
        )


# ----------------------------------------------------------------------
# randomConnected
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_random_connected_is_always_connected(n, seed):
    g = random_connected_graph(n, Fraction(1, 10), Random(seed))
    assert g.n == n
    assert is_connected(g)
    assert len(g.edges) >= n - 1


def test_random_tree_has_exactly_n_minus_one_edges():
    for seed in range(20):
        g = random_connected_graph(9, Fraction(0), Random(seed))
        assert len(g.edges) == 8
        assert is_connected(g)


def test_random_connected_is_seed_deterministic():
    a = [random_connected_graph(8, Fraction(1, 10), Random(5)) for _ in range(1)]
    b = [random_connected_graph(8, Fraction(1, 10), Random(5)) for _ in range(1)]
    assert a == b


def _randrange_connected_graph(n, extra_edge_prob, rng):
    """The extra-edge draws written with rng.randrange (reference)."""
    edges = set(_random_tree_edges(n, rng))
    num, den = extra_edge_prob.numerator, extra_edge_prob.denominator
    if num:
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in edges and rng.randrange(den) < num:
                    edges.add((u, v))
    return Graph(n, edges)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 64])
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
    ],
)
def test_random_connected_draws_match_randrange(n, prob):
    for seed in range(10):
        rng, reference = Random(seed), Random(seed)
        assert random_connected_graph(n, prob, rng) == _randrange_connected_graph(
            n, prob, reference
        )
        assert rng.getstate() == reference.getstate()


def test_random_connected_varies_between_rounds():
    policy = RandomConnectedPolicy(Fraction(1, 10))
    policy.bind(8, Random(9))
    seen = {policy.next_graph(ctx_for([0] * 8)) for _ in range(10)}
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
