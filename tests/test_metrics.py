"""Metric definitions against brute-force oracles, plus check_round behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from dynbal.dyadic import Dyadic
from dynbal.graphs import Graph, nodes_within, path_graph
from dynbal.loads import LoadState
from dynbal.metrics import (
    CHECK_CONSERVATION,
    CHECK_COVERING_EDGE,
    CHECK_MATCHING_BUDGET,
    CHECK_PREFIX_MONOTONE,
    CHECK_SPLIT_POTENTIAL,
    KIND_MATCHING,
    KIND_TWO_SIDED,
    check_round,
    max_gap,
    potential,
    prefix_sums,
    twice_shifted_load,
)
from dynbal.records import RoundTrace


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
    loads = [Dyadic(1, 1), Dyadic(3, 2), 2]
    assert potential(loads) == brute_potential(loads)


@given(st.lists(st.integers(0, 1000), max_size=12))
def test_potential_matches_brute_force(loads):
    assert potential(loads) == brute_potential(loads)


@given(
    st.lists(
        st.builds(Dyadic, st.integers(0, 4096), st.integers(0, 8)),
        max_size=10,
    )
)
def test_potential_matches_brute_force_dyadic(loads):
    assert potential(loads) == brute_potential(loads)


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
    assert max_gap([Dyadic(1, 1), Dyadic(7, 2)]) == Dyadic(5, 2)


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
    loads = None
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
    loads = [Dyadic(1, 1), Dyadic(9, 2), 3, 0]
    report = check_round(
        LoadState("continuous", loads),
        LoadState("continuous", loads),
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
