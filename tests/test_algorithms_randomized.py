"""Randomized max-gap baseline: role flips, exact transfers, matching budget
and the round records it hands back again."""

import io
from fractions import Fraction
from random import Random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from dynbal import engine
from dynbal.adversaries import SortingLinePolicy
from dynbal.algorithms import RandMaxNeighbor, make_algorithm, randomized
from dynbal.algorithms.base import offer_round
from dynbal.algorithms.randomized import coin_offers, randomized_round_budget
from dynbal.config import config_from_dict
from dynbal.dyadic import Dyadic
from dynbal.graphs import Graph, all_pairs, path_graph
from dynbal.io import TraceCsvWriter
from dynbal.loads import LoadState, line_ramp, to_dyadics, to_scaled, total_load
from dynbal.metrics import CHECK_MATCHING_BUDGET, KIND_MATCHING, check_round, prefix_sums
from dynbal.records import RoundTrace
from dynbal.smoothing import t_smooth
from oracles import rand_max_neighbor_round, reference_check_round
from strategies import connected_graphs


def play(loads, graph, mode, seed):
    """One round; integral loads go in as a tuple, as the engine commits
    them, continuous int or Fraction loads as numerators, and their new
    loads come back rendered as Dyadic values."""
    alg = RandMaxNeighbor()
    alg.start(list(loads), mode, Random(seed), k=0, tau=0)
    if mode == "integral":
        return alg.play_round(graph, tuple(loads))
    nums, exp = to_scaled(loads)
    outcome = alg.play_round(graph, nums)
    outcome.new_loads = to_dyadics(outcome.new_loads, exp + outcome.shift)
    return outcome


def test_two_nodes_continuous_either_meet_or_miss():
    # Depending on the coin flips the pair either balances to 5.5 exactly
    # or (on a role mismatch) stays put; both must occur across seeds.
    loads = [Fraction(3), Fraction(8)]
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
            alg.start(loads, mode, Random(seed), k=0, tau=0)
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
    amounts = [Fraction(w) for w in loads]
    outcome = play(amounts, graph, "continuous", seed)
    assert total_load(outcome.new_loads) == total_load(amounts)
    assert min(outcome.new_loads) >= min(amounts)
    assert max(outcome.new_loads) <= max(amounts)


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


@settings(max_examples=150, deadline=None)
@given(connected_graphs(max_n=10, min_n=2), st.sampled_from(["integral", "continuous"]), st.data())
def test_memo_rounds_match_the_reference(graph, mode, data):
    # Up to 40 rounds from n = 2, up to eight in a row on the same graph and
    # loads, so a coin often repeats while the memo's key holds: such a
    # round on an unflipped graph hands back the very record its coin got
    # before, if that round moved no load.  Any other round, the first
    # after `start` or a change of key included, is computed afresh.  Up
    # to n = 6 the round's kernel is also checked on every coin.
    n = graph.n
    seed = data.draw(st.integers(0, 2**32))
    rng, reference_rng = Random(seed), Random(seed)
    # Loads from a narrow range, so ties and unit gaps are common.
    loads = tuple(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    alg = RandMaxNeighbor()
    alg.start(loads, mode, rng, k=0, tau=0)
    base, smooth_rng = graph, Random(seed + 1)
    key, kept, earlier = None, {}, []
    for _ in range(data.draw(st.integers(1, 5))):
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
            graph = Graph.toggled(base, pairs)

        if n <= 6:
            shift = 0 if mode == "integral" else 1
            for coin in range(2**n):
                fixed_coin = SimpleNamespace(getrandbits=lambda bits, coin=coin: coin)
                expected = rand_max_neighbor_round(fixed_coin, mode, graph, list(loads))
                outcome = offer_round(coin_offers(graph, loads, coin), loads, shift)
                assert list(outcome.new_loads) == list(expected.new_loads)
                assert outcome.matching == expected.matching

        # The memo's key: the base graph and the tuple, both by identity.
        round_key = (graph if graph.base is None else graph.base, loads)
        if key is None or round_key[0] is not key[0] or round_key[1] is not key[1]:
            key, kept = round_key, {}
        replayable = graph.base is None
        for _ in range(data.draw(st.integers(1, 8))):
            probe = Random()
            probe.setstate(reference_rng.getstate())
            coin = probe.getrandbits(n)
            expected = rand_max_neighbor_round(reference_rng, mode, graph, list(loads))
            outcome = alg.play_round(graph, loads)
            assert list(outcome.new_loads) == list(expected.new_loads)
            assert outcome.matching == expected.matching
            assert outcome.shift == expected.shift
            assert rng.getstate() == reference_rng.getstate()
            if mode == "integral" and list(outcome.new_loads) == list(loads):
                assert outcome.new_loads is loads
            if replayable and coin in kept:
                assert outcome is kept[coin]
            else:
                assert all(outcome is not old for old in earlier)
                earlier.append(outcome)
                if replayable and outcome.new_loads is loads:
                    kept[coin] = outcome

        step = data.draw(st.sampled_from(["advance", "keep", "copy", "fresh", "restart"]))
        if step == "advance":
            loads = outcome.new_loads
        elif step == "copy":
            loads = tuple(list(loads))  # equal loads, a new identity
        elif step == "fresh":
            loads = tuple(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
        elif step == "restart":
            alg.start(loads, mode, rng, k=0, tau=0)
            key = None


def test_frozen_sorting_line_replays_each_coin(monkeypatch):
    # The sorting line at n=8 on ramp loads: every pair it matches is within
    # one unit and already in order, so no load moves and the line never
    # changes.  While graph and tuple stay, a round whose coin came up before
    # gets that round's very record and asks no node.  After the tuple or
    # the graph changes identity, no record comes back.
    n = 8
    asked = []
    ask = randomized.heaviest_gap_neighbor
    monkeypatch.setattr(
        randomized, "heaviest_gap_neighbor", lambda u, *args: asked.append(u) or ask(u, *args)
    )
    policy = SortingLinePolicy()
    policy.bind(n, Random(0))
    loads = tuple(line_ramp(n))
    rng = Random(0)
    alg = RandMaxNeighbor()
    alg.start(loads, "integral", rng, k=0, tau=0)
    state, matching = LoadState("integral", loads), []
    first_graph = policy.next_graph(state, matching)

    def coin():
        probe = Random()
        probe.setstate(rng.getstate())
        return probe.getrandbits(n)

    pairs, by_coin, replays = 0, {}, 0
    for _ in range(50):
        graph = policy.next_graph(state, matching)
        assert graph is first_graph
        drawn = coin()
        asked.clear()
        outcome = alg.play_round(graph, loads)
        assert outcome.new_loads is loads
        if drawn in by_coin:
            assert outcome is by_coin[drawn] and not asked
            replays += 1
        by_coin[drawn] = outcome
        matching = outcome.matching
        pairs += len(outcome.matching)
    assert pairs > 0 and replays > 0

    earlier = list(by_coin.values())
    copy = tuple(list(loads))  # equal loads, a new identity
    for graph, loads in ((first_graph, copy), (Graph(n, first_graph.edges), copy)):
        by_coin = {}
        for _ in range(40):
            drawn = coin()
            outcome = alg.play_round(graph, loads)
            assert all(outcome is not old for old in earlier)
            assert by_coin.setdefault(drawn, outcome) is outcome
        earlier += by_coin.values()


def test_a_round_on_a_flipped_graph_is_never_replayed():
    # Equal loads move nowhere on any graph.  The first round, on a flipped
    # graph, sets the table's key to its base; with the same coin, node 2
    # proposes to 0 there and to 1 on the base, so the base round must not
    # get the flipped round's record back, but the next base round gets its.
    base = path_graph(4)
    flipped = Graph.toggled(base, [(0, 2)])
    loads = (5, 5, 5, 5)
    coin = SimpleNamespace(getrandbits=lambda bits: 0b0100)  # node 2 sends
    alg = RandMaxNeighbor()
    alg.start(loads, "integral", coin, k=0, tau=0)
    assert alg.play_round(flipped, loads).matching == [(2, 0, 0)]
    outcome = alg.play_round(base, loads)
    assert outcome.matching == [(2, 1, 0)] and outcome.new_loads is loads
    assert alg.play_round(base, loads) is outcome


def test_replay_table_stays_bounded_on_a_stuck_line():
    # Criterion 3's construction at n = 16: no unit ever moves and the line
    # never changes, so every one of the 65,536 coins could be kept.  The
    # table stops at its bound, and every round, replayed or not, equals a
    # round that asks every sender afresh.
    n = 16
    policy = SortingLinePolicy()
    policy.bind(n, Random(0))
    loads = tuple(line_ramp(n))
    rng, reference_rng = Random(3), Random(3)
    alg = RandMaxNeighbor()
    alg.start(loads, "integral", rng, k=0, tau=0)
    state, matching = LoadState("integral", loads), []
    returned, replays = set(), 0
    for _ in range(4000):
        graph = policy.next_graph(state, matching)
        expected = rand_max_neighbor_round(reference_rng, "integral", graph, loads)
        outcome = alg.play_round(graph, loads)
        assert outcome == expected
        assert outcome.new_loads is loads
        assert len(alg._replay) <= randomized.REPLAY_LIMIT
        replays += id(outcome) in returned
        returned.add(id(outcome))
        matching = outcome.matching
    assert len(alg._replay) == randomized.REPLAY_LIMIT
    assert replays > 0


def test_kept_records_stay_unchanged_through_a_trial(monkeypatch):
    # A full n = 8 sorting-line trial with every check and a full trace: the
    # adversary, the checks and the trace read each kept record's matching
    # on many rounds.  None of them may change it, and the verdicts kept on
    # it must be the ones a fresh check gives.
    made = []

    def capture(name, **params):
        made.append(make_algorithm(name, **params))
        return made[-1]

    monkeypatch.setattr(engine, "make_algorithm", capture)
    cfg = config_from_dict(
        {
            "n": 8,
            "initialLoads": "lineRamp",
            "mode": "integral",
            "tau": "1",
            "k": "0",
            "adversary": "sortingLine",
            "algorithm": "randMaxNeighbor",
            "roundBudget": 3000,
            "checks": ["prefixMonotone", "conservation", "integrality", "matchingBudget"],
            "traceLevel": "full",
            "seed": 4,
        }
    )
    stream = io.StringIO()
    result = engine.run_trial(cfg, trace_writer=TraceCsvWriter(stream, cfg.checks))
    assert result.invariant_failures == 0 and result.rounds_played == 3000
    (alg,) = made
    graph, loads = alg._replay_base, alg._replay_loads
    assert len(alg._replay) == 2**8
    for coin, record in alg._replay.items():
        fixed_coin = SimpleNamespace(getrandbits=lambda bits, coin=coin: coin)
        expected = rand_max_neighbor_round(fixed_coin, "integral", graph, loads)
        assert record == expected
        assert record.new_loads is loads
        assert record.d_r == sum(gap for _, _, gap in expected.matching)
        # Its verdicts, derived once, are those of a check made afresh on
        # the inputs they were taken on.
        state, judged_on, order, checks, witnesses, ok = record.verdicts
        assert state.loads is loads and judged_on is graph and order == tuple(range(8))
        reference = reference_check_round(
            state,
            state,
            RoundTrace(0, graph, expected.matching, record.d_r),
            algorithm_kind=KIND_MATCHING,
            enabled=cfg.checks,
            line_order=order,
            initial_prefix=prefix_sums(range(8), line_ramp(8)),
        )
        assert checks == reference.checks and witnesses == reference.witnesses
        assert ok is reference.ok is True


def test_randomized_budget_adds_log_factor():
    assert randomized_round_budget(5, 15, 1) == 4500 * 2
    assert randomized_round_budget(2, 4, 2) == 240
