"""Gap-reduction calls: flooding, thresholds, transfers, idle fast-forward."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dynbal.algorithms import (
    GapReduce,
    GaplessGapReduce,
    flood_min_max_round,
    gap_reduce_round_budget,
    gapless_round_budget,
)
from dynbal.algorithms.base import heaviest_neighbor
from dynbal.algorithms.gapreduce import accept_lightest
from dynbal.graphs import Graph, all_pairs, line_of, path_graph
from dynbal.loads import total_load
from dynbal.smoothing import DEFAULT_C1


def started(alg, loads, n, k=Fraction(1)):
    alg.start(list(loads), "integral", Random(0), k=k, tau=1, n=n)
    return alg


# ----------------------------------------------------------------------
# flooding
# ----------------------------------------------------------------------


def test_flooding_line_example():
    tables = [(7, 7), (2, 2), (9, 9)]
    g = path_graph(3)
    after_one = flood_min_max_round(tables, g)
    assert after_one == [(2, 7), (2, 9), (2, 9)]
    after_two = flood_min_max_round(after_one, g)
    assert after_two == [(2, 9), (2, 9), (2, 9)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 7),
    st.lists(st.integers(0, 99), min_size=2, max_size=7),
    st.integers(0, 10**6),
)
def test_flooding_reaches_everyone_in_n_rounds(n, raw_loads, seed):
    loads = (raw_loads * n)[:n]
    rng = Random(seed)
    tables = [(w, w) for w in loads]
    for _ in range(n):
        order = list(range(n))
        rng.shuffle(order)
        tables = flood_min_max_round(tables, line_of(order))
    expected = (min(loads), max(loads))
    assert all(t == expected for t in tables)


# ----------------------------------------------------------------------
# one full call on a pair
# ----------------------------------------------------------------------


def test_pair_call_balances_completely():
    g = path_graph(2)
    alg = started(GapReduce(), [0, 8], 2)
    loads = [0, 8]
    rounds = 0
    while not alg.is_done(loads) and rounds < 10_000:
        skipped = alg.consume_idle_rounds(loads, 10_000)
        if skipped:
            rounds += skipped
            continue
        loads = alg.play_round(g, loads).new_loads
        rounds += 1
    assert loads == [4, 4]
    assert alg.psi == 8
    # Two flooding rounds, one productive round, rest skipped.
    assert rounds == alg.planned_rounds()


def test_spread_three_exchanges_one_unit():
    g = path_graph(2)
    alg = started(GapReduce(), [10, 13], 2)
    loads = [10, 13]
    for _ in range(2):
        loads = alg.play_round(g, loads).new_loads
    assert (alg.low, alg.high, alg.psi) == (10, 13, 3)
    outcome = alg.play_round(g, loads)
    assert outcome.matching == [(0, 1, 3)]
    assert outcome.new_loads == [11, 12]


def test_spread_two_meets_in_the_middle():
    g = path_graph(2)
    alg = started(GapReduce(), [5, 7], 2)
    loads = [5, 7]
    for _ in range(2):
        loads = alg.play_round(g, loads).new_loads
    outcome = alg.play_round(g, loads)
    assert outcome.new_loads == [6, 6]


def test_sub_two_spread_is_a_no_op():
    alg = started(GapReduce(), [3, 4], 2)
    assert alg.is_done([3, 4])
    alg = started(GapReduce(), [5, 5], 2)
    assert alg.is_done([5, 5])


def test_light_proposes_only_to_heavy():
    # Line 0-1-2, loads (0, 4, 8), spread 8: thresholds light < 2, heavy > 6.
    # Node 0's heaviest neighbor is the middling node 1, so no proposal fires.
    g = path_graph(3)
    alg = started(GapReduce(), [0, 4, 8], 3)
    loads = [0, 4, 8]
    for _ in range(3):
        loads = alg.play_round(g, loads).new_loads
    outcome = alg.play_round(g, loads)
    assert outcome.matching == []
    assert outcome.new_loads == [0, 4, 8]


def test_heavy_accepts_lightest_proposer():
    # Star center 3 heavy; two light leaves with different loads.
    g = Graph(4, [(0, 3), (1, 3), (2, 3)])
    alg = started(GapReduce(), [0, 1, 9, 30], 4)
    loads = [0, 1, 9, 30]
    for _ in range(4):
        loads = alg.play_round(g, loads).new_loads
    assert (alg.low, alg.high, alg.psi) == (0, 30, 30)
    outcome = alg.play_round(g, loads)
    # Lights 0 and 1 both aim at the center; the center takes node 0.
    assert outcome.matching == [(0, 3, 30)]
    assert outcome.new_loads == [15, 1, 9, 15]


def test_idle_fast_forward_consumes_remaining_budget():
    alg = started(GapReduce(), [0, 8], 2)
    loads = [0, 8]
    g = path_graph(2)
    for _ in range(2):
        loads = alg.play_round(g, loads).new_loads
    loads = alg.play_round(g, loads).new_loads
    assert loads == [4, 4]
    remaining = alg._main_left
    assert remaining > 0
    assert alg.consume_idle_rounds(loads, 10**9) == remaining
    assert alg.is_done(loads)


def test_finished_call_skips_nothing():
    # A call skipped outright never set its thresholds; asking it to
    # fast-forward must not reach them.
    alg = started(GapReduce(), [3, 4], 2)
    assert alg.is_done([3, 4])
    assert alg.consume_idle_rounds([3, 4], 10) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=2, max_size=6),
    st.integers(0, 10**6),
)
def test_light_and_heavy_sets_never_grow(loads, seed):
    n = len(loads)
    alg = GapReduce()
    alg.start(list(loads), "integral", Random(seed), k=Fraction(1), tau=1, n=n)
    if alg.is_done(loads):
        return
    rng = Random(seed + 1)
    state = list(loads)
    for _ in range(n):
        state = alg.play_round(path_graph(n), state).new_loads
    count_light = sum(1 for w in state if alg._is_light(w))
    count_heavy = sum(1 for w in state if alg._is_heavy(w))
    for _ in range(30):
        if alg.is_done(state):
            break
        order = list(range(n))
        rng.shuffle(order)
        outcome = alg.play_round(line_of(order), state)
        assert total_load(outcome.new_loads) == total_load(state)
        state = outcome.new_loads
        new_light = sum(1 for w in state if alg._is_light(w))
        new_heavy = sum(1 for w in state if alg._is_heavy(w))
        assert new_light <= count_light
        assert new_heavy <= count_heavy
        count_light, count_heavy = new_light, new_heavy


# ----------------------------------------------------------------------
# budgets
# ----------------------------------------------------------------------


def test_round_budget_frozen_values():
    assert gap_reduce_round_budget(16, 1024, Fraction(2), Fraction(1)) == 3014
    assert gap_reduce_round_budget(16, 1024, Fraction(2), Fraction(1, 2)) == 6028
    # A total of 1 falls back to the guard: ln(e) = 1.
    assert gap_reduce_round_budget(4, 1, Fraction(2), Fraction(1)) == 40
    assert gap_reduce_round_budget(4, 2, Fraction(2), Fraction(1)) == 41


def test_budget_rejects_zero_smoothing():
    with pytest.raises(ValueError):
        gap_reduce_round_budget(4, 16, DEFAULT_C1, Fraction(0))
    with pytest.raises(ValueError):
        gapless_round_budget(4, 16, DEFAULT_C1, Fraction(0))


def test_constructor_validation():
    with pytest.raises(ValueError):
        GapReduce(c1=Fraction(0))
    with pytest.raises(ValueError):
        GaplessGapReduce(psi=-1)


# ----------------------------------------------------------------------
# gapless variant
# ----------------------------------------------------------------------


def test_gapless_threshold_is_inclusive():
    alg = started(GaplessGapReduce(psi=4), [0, 2], 2)
    outcome = alg.play_round(path_graph(2), [0, 2])
    assert outcome.matching == [(0, 1, 2)]
    assert outcome.new_loads == [1, 1]


def test_gapless_below_threshold_stays_put():
    alg = started(GaplessGapReduce(psi=4), [0, 1], 2)
    outcome = alg.play_round(path_graph(2), [0, 1])
    assert outcome.matching == []
    assert outcome.new_loads == [0, 1]


def test_gapless_senders_do_not_accept():
    # Chain 0-1-2 with loads (0, 4, 8) and psi = 8: node 0 proposes to 1,
    # node 1 proposes to 2.  Node 1 is a sender, so node 0's proposal dies
    # and only the (1, 2) pair balances.
    alg = started(GaplessGapReduce(psi=8), [0, 4, 8], 3)
    outcome = alg.play_round(path_graph(3), [0, 4, 8])
    assert outcome.matching == [(1, 2, 4)]
    assert outcome.new_loads == [0, 6, 6]


def test_gapless_idle_when_spread_too_small():
    alg = started(GaplessGapReduce(psi=8), [10, 13], 2)
    budget = alg.planned_rounds()
    assert alg.consume_idle_rounds([10, 13], 10**9) == budget
    assert alg.is_done([10, 13])


def test_gapless_sub_two_spread_is_immediately_done():
    alg = started(GaplessGapReduce(psi=1), [0, 100], 2)
    assert alg.is_done([0, 100])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 50), min_size=2, max_size=6),
    st.integers(2, 12),
    st.integers(0, 10**6),
)
def test_gapless_rounds_conserve_and_never_widen(loads, psi, seed):
    n = len(loads)
    alg = GaplessGapReduce(psi=psi)
    alg.start(list(loads), "integral", Random(seed), k=Fraction(1), tau=1, n=n)
    if alg.is_done(loads):
        return
    outcome = alg.play_round(path_graph(n), list(loads))
    assert total_load(outcome.new_loads) == total_load(loads)
    assert min(outcome.new_loads) >= min(loads)
    assert max(outcome.new_loads) <= max(loads)
    seen = set()
    for u, v, _ in outcome.matching:
        assert u not in seen and v not in seen
        seen.add(u)
        seen.add(v)


# ----------------------------------------------------------------------
# proposals found from edges equal a scan of every node
# ----------------------------------------------------------------------


def _per_node_gapless_round(graph, loads, psi):
    """A gapless round that asks every node for its heaviest neighbor
    (reference)."""
    adj = graph.adj
    proposals = {}
    for u in range(graph.n):
        if adj[u]:
            v = heaviest_neighbor(u, adj[u], loads)
            if 2 * (loads[v] - loads[u]) >= psi:
                proposals[u] = v
    return accept_lightest(loads, proposals, senders_accept=False)


@st.composite
def connected_graphs(draw):
    """A random tree (each node hangs off an earlier one in a shuffled
    order) plus any set of extra edges, on 1..14 nodes."""
    n = draw(st.integers(1, 14))
    order = draw(st.permutations(range(n)))
    edges = {(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)}
    pairs = all_pairs(n)
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {pair for pair, kept in zip(pairs, extra) if kept}
    return Graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(connected_graphs(), st.data(), st.integers(2, 9))
def test_gapless_edge_proposals_match_per_node_scan(graph, data, psi):
    # Loads from a narrow range, so ties between neighbors are common.
    loads = data.draw(st.lists(st.integers(0, 6), min_size=graph.n, max_size=graph.n))
    alg = started(GaplessGapReduce(psi=psi), loads, graph.n)
    outcome = alg.play_round(graph, list(loads))
    expected = _per_node_gapless_round(graph, list(loads), psi)
    assert outcome.new_loads == expected.new_loads
    assert outcome.matching == expected.matching


def _any_scan_idle_skip(alg, loads, budget_left):
    """`GapReduce.consume_idle_rounds` as a scan for some light node and
    some heavy node (reference); leaves the call untouched."""
    if alg._flood_left > 0 or alg._main_left == 0:
        return 0
    if any(alg._is_light(w) for w in loads) and any(alg._is_heavy(w) for w in loads):
        return 0
    return min(alg._main_left, budget_left)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=2, max_size=7),
    st.data(),
    st.integers(0, 5000),
)
def test_idle_skip_from_extremes_matches_any_scan(start_loads, data, budget_left):
    n = len(start_loads)
    alg = started(GapReduce(), start_loads, n)
    if not alg.is_done(start_loads):
        for _ in range(n):
            alg.play_round(path_graph(n), start_loads)
    lo, hi = min(start_loads), max(start_loads)
    loads = data.draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    main_left = alg._main_left
    expected = _any_scan_idle_skip(alg, loads, budget_left)
    assert alg.consume_idle_rounds(loads, budget_left) == expected
    assert alg._main_left == main_left - expected
