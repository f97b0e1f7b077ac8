"""Metric definitions against brute-force oracles, plus check_round behaviour."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dynbal.dyadic import Dyadic
from dynbal.graphs import Graph, nodes_within, path_graph
from dynbal.loads import LoadState, to_scaled
from dynbal.metrics import (
    ALL_CHECKS,
    CHECK_CONSERVATION,
    CHECK_COVERING_EDGE,
    CHECK_INTEGRALITY,
    CHECK_MATCHING_BUDGET,
    CHECK_POTENTIAL_DROP,
    CHECK_PREFIX_MONOTONE,
    CHECK_SPLIT_POTENTIAL,
    KIND_MATCHING,
    KIND_TWO_SIDED,
    check_round,
    max_gap,
    potential,
    prefix_growth,
    prefix_sums,
    twice_shifted_load,
)
from dynbal.records import RoundTrace
from oracles import reference_check_round


def brute_potential(loads):
    """Independent oracle: the literal double loop over unordered pairs."""
    total = 0
    for i in range(len(loads)):
        for j in range(i + 1, len(loads)):
            total = total + abs(loads[i] - loads[j])
    return total


def test_potential_examples():
    assert potential([0, 1, 3]) == 6
    assert potential([5, 5, 5, 5]) == 0
    assert potential([0, 8]) == 8
    assert potential([]) == 0
    assert potential([7]) == 0


def test_potential_on_dyadics():
    # Numerators over a shared exponent, as trials hold them.
    loads = [Fraction(1, 2), Fraction(3, 4), 2]
    nums, exp = to_scaled(loads)
    assert Dyadic(potential(nums), exp) == brute_potential(loads)


@given(st.lists(st.integers(0, 1000), max_size=12))
def test_potential_matches_brute_force(loads):
    assert potential(loads) == brute_potential(loads)


@given(
    st.lists(
        st.builds(lambda num, exp: Fraction(num, 2**exp), st.integers(0, 4096), st.integers(0, 8)),
        max_size=10,
    )
)
def test_potential_matches_brute_force_dyadic(loads):
    nums, exp = to_scaled(loads)
    assert Dyadic(potential(nums), exp) == brute_potential(loads)


@given(st.lists(st.integers(0, 100), min_size=2, max_size=12))
def test_potential_bounds(loads):
    n = len(loads)
    phi = potential(loads)
    assert phi <= n * sum(loads)
    gap = max_gap(loads)
    assert phi >= gap
    if n >= 4:
        assert phi >= (n - 2) * gap


def test_max_gap_examples():
    assert max_gap(list(range(1, 9))) == 7
    assert max_gap([4]) == 0
    nums, exp = to_scaled([Fraction(1, 2), Fraction(7, 4)])
    assert Dyadic(max_gap(nums), exp) == Dyadic(5, 2)


def test_twice_shifted_load_examples():
    # d_r is one bit finer than the gaps: at exponent 1 for integer gaps.
    assert Dyadic(twice_shifted_load([]), 1) == 0
    assert Dyadic(twice_shifted_load([(0, 1, 4)]), 1) == 2
    assert Dyadic(twice_shifted_load([(0, 1, 2), (2, 3, 6)]), 1) == 4
    # Gaps of 1/2, numerator 1 at exponent 1: d_r = 1/4.
    assert Dyadic(twice_shifted_load([(0, 1, 1)]), 2) == Dyadic(1, 2)


def test_prefix_sums_example():
    assert prefix_sums([0, 1, 2, 3], [1, 2, 3, 4]) == [0, 1, 3, 6, 10]
    assert prefix_sums([3, 2, 1, 0], [1, 2, 3, 4]) == [0, 4, 7, 9, 10]
    assert prefix_sums([], []) == [0]


# ----------------------------------------------------------------------
# check_round
# ----------------------------------------------------------------------


def _trace(matching, graph=None, d_r=Dyadic(0)):
    g = graph if graph is not None else path_graph(2)
    return RoundTrace(round_index=1, graph=g, matching=matching, d_r=d_r)


def test_conservation_failure_has_witness():
    before = LoadState("integral", [2, 2])
    after = LoadState("integral", [2, 3])
    report = check_round(
        before,
        after,
        _trace([]),
        algorithm_kind=KIND_MATCHING,
        enabled=[CHECK_CONSERVATION],
    )
    assert not report.ok
    assert report.failed() == [CHECK_CONSERVATION]
    assert report.witnesses[CHECK_CONSERVATION] == {"before": "4", "after": "5"}


def test_matching_budget_two_sided_allows_both_roles():
    # One node may appear once as sender and once as answerer.
    matching = [(0, 1, 4), (1, 0, 4)]
    report = check_round(
        LoadState("integral", [0, 4]),
        LoadState("integral", [2, 2]),
        _trace(matching),
        algorithm_kind=KIND_TWO_SIDED,
        enabled=[CHECK_MATCHING_BUDGET],
    )
    assert report.ok


def test_matching_budget_rejects_double_connection():
    matching = [(0, 1, 4), (2, 1, 4)]
    report = check_round(
        LoadState("integral", [0, 4, 0]),
        LoadState("integral", [2, 0, 2]),
        _trace(matching, graph=path_graph(3)),
        algorithm_kind=KIND_MATCHING,
        enabled=[CHECK_MATCHING_BUDGET],
    )
    assert not report.ok
    assert report.witnesses[CHECK_MATCHING_BUDGET] == {"node": 1}


def test_prefix_monotone_check():
    loads = [1, 2, 3, 4]
    baseline = prefix_sums([0, 1, 2, 3], loads)
    good = check_round(
        LoadState("integral", loads),
        LoadState("integral", loads),
        _trace([], graph=path_graph(4)),
        algorithm_kind=KIND_MATCHING,
        enabled=[CHECK_PREFIX_MONOTONE],
        line_order=[0, 1, 2, 3],
        initial_prefix=baseline,
    )
    assert good.ok
    bad = check_round(
        LoadState("integral", [2, 1, 3, 4]),
        LoadState("integral", [2, 1, 3, 4]),
        _trace([], graph=path_graph(4)),
        algorithm_kind=KIND_MATCHING,
        enabled=[CHECK_PREFIX_MONOTONE],
        line_order=[0, 1, 2, 3],
        initial_prefix=baseline,
    )
    assert not bad.ok
    assert bad.witnesses[CHECK_PREFIX_MONOTONE]["prefix"] == 1


def test_prefix_monotone_requires_context():
    with pytest.raises(ValueError):
        check_round(
            LoadState("integral", [1]),
            LoadState("integral", [1]),
            _trace([], graph=Graph(1)),
            algorithm_kind=KIND_MATCHING,
            enabled=[CHECK_PREFIX_MONOTONE],
        )


def test_split_potential_identity_holds_for_any_loads():
    # 1/2, 9/4, 3 and 0 as numerators over exponent 2.
    loads = [2, 9, 12, 0]
    report = check_round(
        LoadState("continuous", loads, 2),
        LoadState("continuous", loads, 2),
        _trace([], graph=path_graph(4)),
        algorithm_kind=KIND_TWO_SIDED,
        enabled=[CHECK_SPLIT_POTENTIAL],
    )
    assert report.ok


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        check_round(
            LoadState("integral", [1]),
            LoadState("integral", [1]),
            _trace([], graph=Graph(1)),
            algorithm_kind=KIND_MATCHING,
            enabled=["definitelyNotACheck"],
        )


def test_reports_are_pure():
    before = LoadState("integral", [2, 2])
    after = LoadState("integral", [2, 2])
    args = dict(algorithm_kind=KIND_MATCHING, enabled=[CHECK_CONSERVATION])
    r1 = check_round(before, after, _trace([]), **args)
    r2 = check_round(before, after, _trace([]), **args)
    assert r1.checks == r2.checks
    assert r1.witnesses == r2.witnesses


# ----------------------------------------------------------------------
# coveringEdge against its literal definition
# ----------------------------------------------------------------------


def uncovered_edge_oracle(loads, graph, matching):
    """First positive-gap edge (in edge-set order) with no connected pair of
    at least its gap touching a node within three hops, via BFS."""
    for u, v in graph.edges:
        gap = abs(loads[u] - loads[v])
        if not gap > 0:
            continue
        near = nodes_within(graph, (u, v), 3)
        if not any((a in near or b in near) and g >= gap for a, b, g in matching):
            return (u, v)
    return None


@st.composite
def covering_scenarios(draw):
    n = draw(st.integers(2, 12))
    # A random spanning path plus optional extra edges keeps it connected.
    order = draw(st.permutations(range(n)))
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    loads = draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))
    matching = [
        (a, b, draw(st.integers(0, 16)))
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
        if a != b
    ]
    return Graph(n, edges), loads, matching


@settings(max_examples=300, deadline=None)
@given(covering_scenarios())
# Edge (0, 1) is covered only by the pair (3, 4), three hops away.
@example((path_graph(5), [0, 4, 4, 4, 4], [(3, 4, 4)]))
# The same, and then (8, 9), which nothing covers, is the witness.
@example((path_graph(10), [0] + [4] * 8 + [0], [(3, 4, 4)]))
# Edge (0, 1) is covered only by a pair of exactly its gap, three hops
# from node 0 and four from node 1.
@example((Graph(6, [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5)]), [4, 0, 4, 4, 4, 4], [(4, 5, 4)]))
def test_covering_edge_matches_bfs_definition(scenario):
    graph, loads, matching = scenario
    report = check_round(
        LoadState("continuous", loads),
        LoadState("continuous", loads),
        RoundTrace(round_index=1, graph=graph, matching=matching, d_r=0),
        algorithm_kind=KIND_TWO_SIDED,
        enabled=[CHECK_COVERING_EDGE],
    )
    expected = uncovered_edge_oracle(loads, graph, matching)
    assert report.ok == (expected is None)
    if expected is not None:
        assert report.witnesses[CHECK_COVERING_EDGE]["edge"] == expected


# ----------------------------------------------------------------------
# check kernels against the name-by-name evaluation they replaced
# ----------------------------------------------------------------------


@st.composite
def check_scenarios(draw):
    """One round's inputs to check_round, valid or not: conserving or
    arbitrary after-loads (negative ones too), baselines that the line's
    prefixes may exceed, and check lists with unknown names or missing
    context."""
    n = draw(st.integers(1, 8))
    mode = draw(st.sampled_from(["integral", "continuous"]))
    # An integral round that ends off exponent 0 fails integrality.
    exp = 0 if mode == "integral" else draw(st.integers(0, 3))
    after_exp = exp + draw(st.integers(0, 1 if mode == "integral" else 3))
    loads = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    if draw(st.booleans()):
        after = [w << (after_exp - exp) for w in draw(st.permutations(loads))]
    else:
        after = draw(st.lists(st.integers(0, 320), min_size=n, max_size=n))
        if draw(st.booleans()):
            after[draw(st.integers(0, n - 1))] = -1
    order = draw(st.permutations(range(n)))
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    node = st.integers(0, n - 1)
    edges |= {(min(a, b), max(a, b)) for a, b in draw(st.lists(st.tuples(node, node))) if a != b}
    matching = [
        (a, b, draw(st.integers(0, 40)))
        for a, b in draw(st.lists(st.tuples(node, node), max_size=n))
        if a != b
    ]
    d_r = draw(st.integers(0, 2) | st.integers(0, 80))
    trace = RoundTrace(3, Graph(n, edges), matching, d_r)
    enabled = draw(st.lists(st.sampled_from(ALL_CHECKS), unique=True))
    if draw(st.integers(0, 14)) == 7:
        enabled.insert(draw(st.integers(0, len(enabled))), "notACheck")

    kwargs = dict(
        algorithm_kind=draw(st.sampled_from([KIND_MATCHING, KIND_TWO_SIDED])),
        enabled=tuple(enabled) if draw(st.booleans()) else enabled,
    )
    if draw(st.integers(0, 9)):
        baseline_loads = draw(st.lists(st.integers(0, 160), min_size=n, max_size=n))
        kwargs.update(
            line_order=draw(st.permutations(range(n))),
            initial_prefix=prefix_sums(draw(st.permutations(range(n))), baseline_loads),
        )
    return LoadState(mode, loads, exp), LoadState(mode, after, after_exp), trace, kwargs


def verdicts(check, *args, **kwargs):
    try:
        report = check(*args, **kwargs)
    except ValueError as exc:
        return "ValueError", str(exc)
    return list(report.checks.items()), report.witnesses, report.round_index


@settings(max_examples=300, deadline=None)
@given(check_scenarios())
def test_check_kernels_keep_the_name_by_name_verdicts(scenario):
    before, after, trace, kwargs = scenario
    expected = verdicts(reference_check_round, before, after, trace, **kwargs)
    assert verdicts(check_round, before, after, trace, **kwargs) == expected


# ----------------------------------------------------------------------
# committed records
# ----------------------------------------------------------------------


@st.composite
def round_sequences(draw):
    """Committed vectors as a trial commits them, round after round: each
    round keeps the tuple it had (the very object), commits an equal copy,
    moves a unit (possibly below zero), sets a negative load, or commits at
    another exponent.  Plus the trial's mode, a check stride above one and
    a check list that needs no line context and holds integrality."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    loads = tuple(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    exp = 0
    committed = [(loads, exp)]
    for _ in range(draw(st.integers(1, 16))):
        step = draw(st.sampled_from(["keep", "keep", "keep", "copy", "move", "negative", "exp"]))
        if step == "copy":
            loads = tuple(list(loads))
        elif step in ("move", "negative"):
            moved = list(loads)
            if step == "move":
                moved[draw(node)] -= 1
                moved[draw(node)] += 1
            else:
                moved[draw(node)] = -draw(st.integers(1, 3))
            loads = tuple(moved)
        elif step == "exp":
            exp = draw(st.integers(0, 2))
        committed.append((loads, exp))
    mode = draw(st.sampled_from(["integral", "integral", "continuous"]))
    stride = draw(st.integers(2, 4))
    others = [name for name in ALL_CHECKS if name not in (CHECK_PREFIX_MONOTONE, CHECK_INTEGRALITY)]
    more = draw(st.lists(st.sampled_from(others), unique=True))
    enabled = draw(st.permutations([CHECK_INTEGRALITY] + more))
    return mode, committed, stride, enabled


@settings(max_examples=200, deadline=None)
@given(round_sequences())
def test_committed_records_keep_every_report(sequence):
    # Records committed as the engine commits them (the very record while
    # the tuple and its exponent stay, a new one otherwise) and checked
    # every `stride` rounds give the name-by-name oracle's reports, though
    # each record keeps what the checks derived from it.
    mode, committed, stride, enabled = sequence
    records = [LoadState(mode, *committed[0])]
    for loads, exp in committed[1:]:
        last = records[-1]
        kept = loads is last.loads and exp == last.exp
        records.append(last if kept else LoadState(mode, loads, exp))
    graph = path_graph(len(committed[0][0]))
    for r in range(stride, len(records), stride):
        before, after = records[r - 1], records[r]
        trace = RoundTrace(r, graph, [], 0)
        kwargs = dict(algorithm_kind=KIND_MATCHING, enabled=enabled)
        expected = verdicts(reference_check_round, before, after, trace, **kwargs)
        assert verdicts(check_round, before, after, trace, **kwargs) == expected


@pytest.mark.parametrize("bad", [-1, 2.0, Dyadic(3, 1)], ids=["negative", "float", "dyadic"])
def test_committed_bad_vector_fails_integrality_every_round(bad):
    # A vector that fails integrality and stays committed fails it again in
    # every checked round, with the same witness, on a fresh record or on
    # the one committed record that keeps its verdict.
    loads = (3, bad, 1)
    kept = LoadState("integral", loads)
    witnesses = []
    for r in range(1, 6):
        for state in (LoadState("integral", loads), kept):
            report = check_round(
                state,
                state,
                _trace([], path_graph(3)),
                algorithm_kind=KIND_MATCHING,
                enabled=[CHECK_INTEGRALITY],
            )
            assert report.failed() == [CHECK_INTEGRALITY]
            witnesses.append(report.witnesses[CHECK_INTEGRALITY])
    assert witnesses == [{"node": 1, "load": repr(bad)}] * 10


def test_records_keep_verdicts_over_tuples_only():
    # A record over a list is judged afresh each time: the list may change.
    loads = [1, 2]
    state = LoadState("integral", loads)
    kwargs = dict(algorithm_kind=KIND_MATCHING, enabled=[CHECK_INTEGRALITY, CHECK_POTENTIAL_DROP])
    assert check_round(state, state, _trace([], d_r=0), **kwargs).ok
    assert state.phi is None
    loads[0] = -5
    assert check_round(state, state, _trace([], d_r=0), **kwargs).failed() == [CHECK_INTEGRALITY]
    assert state.phi is None
    # A record over a tuple keeps them.
    state = LoadState("integral", (1, 2))
    assert check_round(state, state, _trace([], d_r=0), **kwargs).ok
    assert (state.phi, state.integrality) == (1, None)


# ----------------------------------------------------------------------
# prefix scans
# ----------------------------------------------------------------------


def shifted_prefix_growth(order, loads, exp, baseline, baseline_exp):
    """prefix_growth as it was before its one-scale path: every step
    cross-shifts (reference)."""
    now = 0
    for i, (node, base) in enumerate(zip(order, baseline[1:]), 1):
        now += loads[node]
        if now << baseline_exp > base << exp:
            return {
                "prefix": i,
                "now": Dyadic(now, exp).decimal_str(),
                "baseline": Dyadic(base, baseline_exp).decimal_str(),
            }
    return None


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 9), st.integers(0, 3))
def test_one_scale_prefix_scan_matches_shifted_scan(data, n, exp):
    # Baselines near the loads' own prefixes, so growth is found often and
    # at every position.
    loads = data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    order = data.draw(st.permutations(range(n)))
    baseline = prefix_sums(data.draw(st.permutations(range(n))), loads)
    baseline = [0] + [b + data.draw(st.integers(-3, 3)) for b in baseline[1:]]
    assert prefix_growth(order, loads, 0, baseline) == shifted_prefix_growth(
        order, loads, 0, baseline, 0
    )
    # Loads off whole units are the witness, wherever their prefixes lie.
    if exp:
        assert prefix_growth(order, loads, exp, baseline) == {"exp": exp}
