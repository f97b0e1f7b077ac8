"""Gap-reduction calls: flooding, thresholds, transfers, idle fast-forward."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dynbal.adversaries import random_connected_graph
from dynbal.algorithms import (
    GapReduce,
    GaplessGapReduce,
    gap_reduce_round_budget,
    gapless_round_budget,
)
from dynbal.algorithms.base import accept_offers, heaviest_neighbor, split_pairs
from dynbal.graphs import Graph, all_pairs, is_connected, line_of, path_graph
from dynbal.loads import total_load
from dynbal.smoothing import DEFAULT_C1, t_smooth
from oracles import accept_lightest, flood_min_max_round
from strategies import connected_graphs


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


def _round_graphs(base, data, rng):
    """Connected graphs on base's nodes, each the base, a smoothed base, a
    random connected graph or a line in a random order: what a call's
    rounds may be handed."""
    n = base.n
    while True:
        shape = data.draw(st.sampled_from(["base", "smooth", "random", "line"]))
        if shape == "base":
            yield base
        elif shape == "smooth":
            yield t_smooth(base, data.draw(st.integers(1, 3)), rng)
        elif shape == "random":
            yield random_connected_graph(n, Fraction(data.draw(st.integers(0, 4)), 4), rng)
        else:
            order = list(range(n))
            rng.shuffle(order)
            yield line_of(order)


@settings(max_examples=150, deadline=None)
@given(connected_graphs(max_n=9, min_n=2), st.data())
def test_flooding_reaches_everyone_in_n_rounds(base, data):
    # The lemma the call's thresholds rest on: on graphs connected every
    # round, n - 1 flooding rounds leave every table at (min, max).
    n = base.n
    loads = data.draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))
    graphs = _round_graphs(base, data, Random(data.draw(st.integers(0, 2**32))))
    tables = [(w, w) for w in loads]
    for _ in range(n - 1):
        graph = next(graphs)
        assert is_connected(graph)
        tables = flood_min_max_round(tables, graph)
    assert set(tables) == {(min(loads), max(loads))}


@settings(max_examples=150, deadline=None)
@given(connected_graphs(max_n=9, min_n=2), st.data())
def test_thresholds_equal_the_flooded_tables(base, data):
    # After a call's n flooding rounds on any such sequence, its thresholds
    # are the table every node agrees on.
    n = base.n
    loads = tuple(data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n).filter(
        lambda ws: max(ws) - min(ws) >= 2
    )))
    graphs = _round_graphs(base, data, Random(data.draw(st.integers(0, 2**32))))
    alg = started(GapReduce(), loads, n)
    tables = [(w, w) for w in loads]
    for _ in range(n):
        graph = next(graphs)
        assert alg.play_round(graph, loads).new_loads is loads
        tables = flood_min_max_round(tables, graph)
    assert alg._left == alg._main_budget
    [(low, high)] = set(tables)
    assert (alg.low, alg.high, alg.psi) == (low, high, high - low)


class _UnreadableGraph:
    """A graph whose rows and edge set may not be read."""

    @property
    def adj(self):
        raise AssertionError("a flooding round read its graph's rows")

    @property
    def edges(self):
        raise AssertionError("a flooding round read its graph's edges")


def test_flooding_rounds_never_read_their_graph():
    loads = (3, 0, 9, 4)
    alg = started(GapReduce(), loads, 4)
    for _ in range(4):
        assert alg.play_round(_UnreadableGraph(), loads).new_loads is loads
    assert (alg._left, alg.low, alg.high, alg.psi) == (alg._main_budget, 0, 9, 9)
    # The main rounds read their graph.
    assert alg.play_round(path_graph(4), loads).matching == [(1, 2, 9)]


# ----------------------------------------------------------------------
# one full call on a pair
# ----------------------------------------------------------------------


def test_pair_call_balances_completely():
    g = path_graph(2)
    alg = started(GapReduce(), [0, 8], 2)
    loads = (0, 8)
    rounds = 0
    while not alg.is_done(loads) and rounds < 10_000:
        skipped = alg.consume_idle_rounds(loads, 10_000)
        if skipped:
            rounds += skipped
            continue
        loads = alg.play_round(g, loads).new_loads
        rounds += 1
    assert loads == (4, 4)
    assert alg.psi == 8
    # Two flooding rounds, one productive round, rest skipped.
    assert rounds == alg.planned_rounds()


def test_spread_three_exchanges_one_unit():
    g = path_graph(2)
    alg = started(GapReduce(), [10, 13], 2)
    loads = (10, 13)
    for _ in range(2):
        loads = alg.play_round(g, loads).new_loads
    assert (alg.low, alg.high, alg.psi) == (10, 13, 3)
    outcome = alg.play_round(g, loads)
    assert outcome.matching == [(0, 1, 3)]
    assert outcome.new_loads == (11, 12)


def test_spread_two_meets_in_the_middle():
    g = path_graph(2)
    alg = started(GapReduce(), [5, 7], 2)
    loads = (5, 7)
    for _ in range(2):
        loads = alg.play_round(g, loads).new_loads
    outcome = alg.play_round(g, loads)
    assert outcome.new_loads == (6, 6)


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
    loads = (0, 1, 9, 30)
    for _ in range(4):
        loads = alg.play_round(g, loads).new_loads
    assert (alg.low, alg.high, alg.psi) == (0, 30, 30)
    outcome = alg.play_round(g, loads)
    # Lights 0 and 1 both aim at the center; the center takes node 0.
    assert outcome.matching == [(0, 3, 30)]
    assert outcome.new_loads == (15, 1, 9, 15)


def test_idle_fast_forward_consumes_remaining_budget():
    alg = started(GapReduce(), [0, 8], 2)
    loads = (0, 8)
    g = path_graph(2)
    for _ in range(2):
        loads = alg.play_round(g, loads).new_loads
    loads = alg.play_round(g, loads).new_loads
    assert loads == (4, 4)
    remaining = alg._left
    assert remaining > 0
    assert alg.consume_idle_rounds(loads, 10**9) == remaining
    assert alg.is_done(loads)


def test_rounds_that_move_nothing_hand_back_their_tuple():
    # Flooding rounds move nothing; nor does a main round that accepts no
    # pair, or one whose only pair is one unit apart.  Each hands back the
    # very tuple it was given; a moving round returns a new tuple.
    g = path_graph(2)
    loads = (0, 8)
    alg = started(GapReduce(), loads, 2)
    for _ in range(2):
        assert alg.play_round(g, loads).new_loads is loads
    moved = alg.play_round(g, loads).new_loads
    assert type(moved) is tuple and moved is not loads and moved == (4, 4)
    idle = alg.play_round(g, moved)
    assert idle.matching == [] and idle.new_loads is moved

    assert split_pairs(loads, accept_offers({})) is loads
    unit_gap = (4, 5)
    matching = accept_offers({0: (1, 1)})
    assert matching == [(0, 1, 1)] and split_pairs(unit_gap, matching) is unit_gap
    # The offer to a proposer dies (0 -> 1, as node 1 offers too); among the
    # rest each target takes the highest key (6 -> 2 over 5 -> 2), then the
    # lowest proposer (1 -> 4 over 3 -> 4).
    offers = {3: (4, 2), 0: (1, 9), 1: (4, 2), 5: (2, 1), 6: (2, 3)}
    assert accept_offers(offers) == [(6, 2, 3), (1, 4, 2)]
    alg = started(GaplessGapReduce(psi=2), unit_gap, 2)
    outcome = alg.play_round(g, unit_gap)
    assert outcome.matching == [(0, 1, 1)] and outcome.new_loads is unit_gap


def test_finished_call_skips_the_whole_budget():
    # A call skipped outright never set its thresholds; asking it to
    # fast-forward must not reach them, and it coasts through any budget.
    for alg in (started(GapReduce(), [3, 4], 2), started(GaplessGapReduce(psi=1), [3, 4], 2)):
        assert alg.is_done((3, 4))
        assert alg.consume_idle_rounds((3, 4), 10) == 10


@pytest.mark.parametrize(
    "make, loads", [(GapReduce, (0, 4, 8)), (lambda: GaplessGapReduce(psi=4), (0, 1, 2))]
)
def test_a_call_spent_while_busy_skips_the_whole_budget(make, loads):
    # On the path no edge joins a light node to a heavy one (nor spans
    # psi/2), so the busy call never moves a unit.  Once its rounds are
    # spent it is finished, although the tuple it last judged busy is the
    # very one it is offered.
    g = path_graph(3)
    alg = started(make(), loads, 3)
    while not alg.is_done(loads):
        assert alg.consume_idle_rounds(loads, 10**6) == 0
        assert alg.play_round(g, loads).new_loads is loads
    assert alg._busy is loads
    assert alg.consume_idle_rounds(loads, 10**6) == 10**6


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


@pytest.mark.parametrize("budget", [gap_reduce_round_budget, gapless_round_budget])
@pytest.mark.parametrize("c1", [0, -1])
def test_budget_rejects_nonpositive_hitting_constant(budget, c1):
    # Zero would divide by zero, and a negative constant would plan no rounds.
    with pytest.raises(ValueError, match="hitting constant"):
        budget(16, 1024, c1, Fraction(1))


def test_constructor_validation():
    with pytest.raises(ValueError):
        GaplessGapReduce(psi=-1)


# ----------------------------------------------------------------------
# gapless variant
# ----------------------------------------------------------------------


def test_gapless_threshold_is_inclusive():
    alg = started(GaplessGapReduce(psi=4), [0, 2], 2)
    outcome = alg.play_round(path_graph(2), (0, 2))
    assert outcome.matching == [(0, 1, 2)]
    assert outcome.new_loads == (1, 1)


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
    outcome = alg.play_round(path_graph(3), (0, 4, 8))
    assert outcome.matching == [(1, 2, 4)]
    assert outcome.new_loads == (0, 6, 6)


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
    if alg._left > alg._main_budget:  # flooding
        return 0
    if alg._left == 0:
        return budget_left
    if any(alg._is_light(w) for w in loads) and any(alg._is_heavy(w) for w in loads):
        return 0
    return min(alg._left, budget_left)


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
    loads = tuple(data.draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)))
    left = alg._left
    expected = _any_scan_idle_skip(alg, loads, budget_left)
    assert alg.consume_idle_rounds(loads, budget_left) == expected
    assert alg._left == max(0, left - expected)


def _gapless_idle_skip(alg, loads, budget_left):
    """`GaplessGapReduce.consume_idle_rounds` as a scan of every pair of
    nodes for one at least psi/2 and 2 apart (reference)."""
    if alg._left == 0:
        return budget_left
    if any(2 * abs(a - b) >= alg.psi and abs(a - b) >= 2 for a in loads for b in loads):
        return 0
    return min(alg._left, budget_left)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=2, max_size=7),
    st.sampled_from([None, 2, 5, 9, 20]),
    st.data(),
)
def test_idle_verdicts_over_a_call_match_the_scans(start_loads, psi, data):
    # The same tuple again, or an equal or a new tuple: every verdict
    # equals the reference scan.
    n = len(start_loads)
    alg = started(GapReduce() if psi is None else GaplessGapReduce(psi), start_loads, n)
    reference = _any_scan_idle_skip if psi is None else _gapless_idle_skip
    if isinstance(alg, GapReduce) and not alg.is_done(start_loads):
        for _ in range(n):
            alg.play_round(path_graph(n), start_loads)
    lo, hi = min(start_loads), max(start_loads)
    loads = tuple(start_loads)
    for _ in range(data.draw(st.integers(1, 12))):
        step = data.draw(st.sampled_from(["keep", "copy", "fresh"]))
        if step == "copy":
            loads = tuple(list(loads))  # equal loads, a new identity
        elif step == "fresh":
            loads = tuple(data.draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)))
        budget_left = data.draw(st.integers(1, 5000))
        expected = reference(alg, loads, budget_left)
        assert alg.consume_idle_rounds(loads, budget_left) == expected
        if expected:
            return


def test_idle_verdict_is_judged_afresh_after_start():
    g = path_graph(2)
    busy = (0, 8)

    def flooded(alg, loads):
        alg.start(loads, "integral", Random(0), k=Fraction(1), tau=1, n=2)
        for _ in range(2):
            alg.play_round(g, loads)
        return alg

    first = flooded(GapReduce(), busy)
    assert first.consume_idle_rounds(busy, 100) == 0 and first._busy is busy
    # A new call with another psi judges the very tuple again.
    assert started(GaplessGapReduce(psi=9), busy, 2).consume_idle_rounds(busy, 50) == 0
    call = started(GaplessGapReduce(psi=20), busy, 2)
    assert call._busy is None and call.consume_idle_rounds(busy, 50) == call._budget > 0
    # So does the same call started again: under its new thresholds (light
    # below 12.5, heavy above 17.5) the tuple it judged busy is idle.
    flooded(first, (10, 20))
    left = first._left
    assert first.consume_idle_rounds(busy, 10**6) == left > 0


# ----------------------------------------------------------------------
# the per-call proposal memo equals a scan of every node
# ----------------------------------------------------------------------


def _per_node_gap_reduce_round(alg, graph, loads):
    """A GapReduce main round that asks every node (reference); the call's
    frozen thresholds are read through its predicates."""
    adj = graph.adj
    proposals = {}
    for u in range(graph.n):
        if adj[u] and alg._is_light(loads[u]):
            v = heaviest_neighbor(u, adj[u], loads)
            if alg._is_heavy(loads[v]):
                proposals[u] = v
    return accept_lightest(loads, proposals)


def _in_main_rounds(alg, loads, graph):
    """Start the call and play its flooding rounds, if it has any."""
    alg = started(alg, loads, graph.n)
    if isinstance(alg, GapReduce):
        while alg._left > alg._main_budget:
            alg.play_round(graph, list(loads))
    return alg


@settings(max_examples=300, deadline=None)
@given(connected_graphs(), st.data(), st.sampled_from([None, 2, 3, 4, 5, 8, 9]))
def test_memo_rounds_match_per_node_scan(base, data, psi):
    n = base.n
    loads = tuple(data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    alg = _in_main_rounds(GapReduce() if psi is None else GaplessGapReduce(psi), loads, base)
    rng = Random(data.draw(st.integers(0, 2**32)))
    for _ in range(data.draw(st.integers(1, 10))):
        if alg.is_done(loads):
            return
        shape = data.draw(st.sampled_from(["base", "smooth", "remove", "twin"]))
        graph = base
        if shape == "smooth":
            graph = t_smooth(base, data.draw(st.integers(1, 3)), rng)
        elif shape == "remove" and base.edges:
            # A flip list that removes at least one edge, not sorted.
            pairs = data.draw(
                st.lists(st.sampled_from(all_pairs(n)), max_size=3, unique=True)
                .map(lambda ps: ps + [p for p in sorted(base.edges) if p not in ps][:1])
            )
            graph = Graph.toggled(base, pairs)
        elif shape == "twin":
            graph = base = Graph(n, base.edges)  # equal edges, a new identity

        if psi is None:
            expected = _per_node_gap_reduce_round(alg, graph, list(loads))
        else:
            expected = _per_node_gapless_round(graph, list(loads), psi)
        outcome = alg.play_round(graph, loads)
        assert list(outcome.new_loads) == list(expected.new_loads)
        assert outcome.matching == expected.matching
        if list(outcome.new_loads) == list(loads):
            assert outcome.new_loads is loads

        step = data.draw(st.sampled_from(["advance", "keep", "copy", "fresh"]))
        if step == "advance":
            loads = outcome.new_loads
        elif step == "copy":
            loads = tuple(list(loads))  # equal loads, a new identity
        elif step == "fresh":
            loads = tuple(data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))


def _fresh_round(alg, graph, loads):
    """The matching and new loads of a round on `graph` from every node's
    offer on the checked rows, accepted by `accept_offers`: an offer to a
    proposer dies."""
    checked = Graph(graph.n, graph.edges)
    offers = {}
    for u in range(graph.n):
        if (offer := alg._propose(u, checked, loads)) is not None:
            offers[u] = offer
    matching = accept_offers(offers)
    return offers, matching, split_pairs(loads, matching)


@settings(max_examples=300, deadline=None)
@given(connected_graphs(), st.data(), st.sampled_from([None, 2, 3, 4, 5, 8, 9]))
def test_kept_records_match_fresh_rounds(base, data, psi):
    # On random flip sequences every round equals one played afresh; the
    # first round on a key that plays the base's offers and moves nothing
    # is handed back to every later one, and never after the key changes.
    n = base.n
    loads = tuple(data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    alg = _in_main_rounds(GapReduce() if psi is None else GaplessGapReduce(psi), loads, base)
    earlier, current, kept = [], [], None
    for _ in range(data.draw(st.integers(1, 16))):
        if alg.is_done(loads):
            return
        flips = []
        if n > 1:
            flips = data.draw(st.lists(st.sampled_from(all_pairs(n)), max_size=3, unique=True))
        graph = Graph.toggled(base, flips) if flips else base
        offers, matching, new_loads = _fresh_round(alg, graph, loads)
        outcome = alg.play_round(graph, loads)
        assert outcome.matching == matching and outcome.new_loads == new_loads
        assert all(outcome is not record for record in earlier)
        if new_loads == loads and offers == _fresh_round(alg, base, loads)[0]:
            assert outcome.new_loads is loads
            if kept is None:
                kept = outcome
            assert outcome is kept
        current.append(outcome)

        step = data.draw(st.sampled_from(["advance", "keep", "keep", "copy", "twin"]))
        if step == "advance" and new_loads != loads:
            loads = outcome.new_loads
        elif step == "copy":
            loads = tuple(list(loads))  # equal loads, a new identity
        elif step == "twin":
            base = Graph(n, base.edges)  # equal edges, a new identity
        else:
            continue
        earlier, current, kept = earlier + current, [], None


@pytest.mark.parametrize("make", [GapReduce, lambda: GaplessGapReduce(psi=9)])
def test_waiting_rounds_ask_only_the_flipped_endpoints(make):
    # While base and tuple stay, a round asks the flipped pairs' endpoints
    # on the flipped graph and asks nothing on the base.
    n = 64
    base = path_graph(n)
    loads = (0,) * 8 + (5,) * (n - 16) + (40,) * 8
    alg = _in_main_rounds(make(), loads, base)
    rng = Random(3)
    asked, flips = [], 0
    for r in range(50):
        if r == 1:
            # Count from the second round on, once the memo holds the base.
            propose = alg._propose
            alg._propose = lambda *args: asked.append(args[:2]) or propose(*args)
        graph = t_smooth(base, 1, rng)
        asked.clear()
        alg.play_round(graph, loads)
        if r >= 1:
            endpoints = {u for pair in graph.flips for u in pair}
            assert all(g is graph and u in endpoints for u, g in asked)
            assert len(asked) == len(endpoints)
            flips += len(graph.flips)
    assert flips > 0


class _GuardedRows(Graph):
    """A graph whose `row` refuses the nodes in `blocked`."""

    blocked = frozenset()

    def row(self, u):
        assert u not in self.blocked, f"row {u} read"
        return super().row(u)


@pytest.mark.parametrize("make", [GapReduce, lambda: GaplessGapReduce(psi=9)])
def test_a_node_that_cannot_offer_never_reads_its_row(make):
    # The load test comes first: a node that is not light (gapReduce) or is
    # within psi/2 of the tuple's maximum (gapless) is refused its row, on
    # the memo's base and as a flipped endpoint, and every round still
    # equals one asked afresh on the checked rows.
    n = 16
    loads = (0,) * 4 + (5,) * 4 + (12,) * 2 + (38,) * 2 + (40,) * 4
    alg = _in_main_rounds(make(), loads, path_graph(n))
    if isinstance(alg, GapReduce):
        blocked = {u for u in range(n) if not alg._is_light(loads[u])}
    else:
        blocked = {u for u in range(n) if 2 * (max(loads) - loads[u]) < alg.psi}
    assert 0 < len(blocked) < n
    base = _GuardedRows(n, path_graph(n).edges)
    base.blocked = blocked
    rng, touched = Random(5), 0
    for _ in range(40):
        flips = rng.sample(all_pairs(n), 3)
        graph = _GuardedRows.toggled(base, flips)
        graph.blocked = blocked
        touched += any(u in blocked for pair in flips for u in pair)
        _, matching, new_loads = _fresh_round(alg, Graph(n, graph.edges), loads)
        outcome = alg.play_round(graph, loads)
        assert outcome.matching == matching and outcome.new_loads == new_loads
    assert touched > 10
