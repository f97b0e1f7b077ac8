"""Graph construction, connectivity and edit-distance checks."""

from fractions import Fraction
from itertools import combinations, compress
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dynbal.adversaries import random_connected_graph
from dynbal.graphs import (
    Graph,
    all_pairs,
    complete_graph,
    cycle_graph,
    edge_set_connected,
    is_connected,
    line_of,
    nodes_within,
    path_graph,
    star_graph,
)
from dynbal.smoothing import SmoothingParams, k_smooth
from oracles import hamming_distance


def test_edges_are_canonicalised():
    g = Graph(3, [(2, 1), (1, 2), (0, 1)])
    assert g.edges == frozenset({(1, 2), (0, 1)})


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_adjacency_is_sorted():
    g = Graph(4, [(0, 3), (0, 1), (2, 0)])
    assert g.adj[0] == (1, 2, 3)
    assert g.adj[3] == (0,)


def test_connectivity_examples():
    assert is_connected(path_graph(5))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(complete_graph(6))


def test_edge_set_connected_matches_graph_check():
    path = path_graph(4)
    two_parts = Graph(4, [(0, 1), (2, 3)])
    cases = [
        (path, [(0, 2)], True),  # additions only: no walk needed
        (path, [(1, 2)], False),  # removes a bridge
        (path, [(1, 2), (0, 3)], True),  # removes a bridge, adds a bypass
        (two_parts, [(1, 2)], True),  # a disconnected base joined by an addition
        (two_parts, [(0, 2), (0, 1)], False),
        (Graph(3, [(0, 1)]), [(0, 2)], True),
    ]
    for base, pairs, expected in cases:
        proposal = Graph.toggled(base, pairs)
        flipped = Graph(base.n, base.edges ^ set(pairs))
        assert proposal.adj == flipped.adj
        removes_edge = any(base.has_edge(u, v) for u, v in pairs)
        assert removes_edge == bool(base.edges & set(pairs))
        assert edge_set_connected(proposal, removes_edge) == is_connected(flipped) == expected
        assert is_connected(Graph.toggled(base, pairs)) == expected


def test_a_toggled_graph_decides_its_own_connectivity():
    # Removing the middle edge of a path splits it; a toggled graph claims
    # nothing and walks its own rows.
    assert not is_connected(Graph.toggled(path_graph(4), [(1, 2)]))
    assert is_connected(Graph.toggled(path_graph(4), [(1, 2), (0, 3)]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.data())
def test_toggled_edges_are_built_on_first_read(n, data):
    base = Graph(n, data.draw(st.lists(st.sampled_from(all_pairs(n)))) if n > 1 else ())
    pairs = data.draw(st.lists(st.sampled_from(all_pairs(n)), unique=True)) if n > 1 else []
    g = Graph.toggled(base, pairs)
    checked = Graph(n, base.edges ^ set(pairs))
    assert (base.base, base.flips) == (None, ())
    assert g.base is base and g.flips == tuple(pairs)
    assert g._edges is None
    assert g.edges == checked.edges
    assert g == checked and hash(g) == hash(checked) and repr(g) == repr(checked)
    assert g.adj == checked.adj
    assert hamming_distance(base, g) == len(g.flips)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("mask", ["empty", "sparse", "complete"])
def test_graph_from_sorted_pairs_equals_checked_constructor(n, mask):
    """A graph kept as the mask of its sorted pairs builds what the checked
    constructor builds, and its membership test reads the mask."""
    npairs = n * (n - 1) // 2
    rng = Random(n)
    bits = {
        "empty": [0] * npairs,
        "sparse": [int(rng.random() < 0.2) for _ in range(npairs)],
        "complete": [1] * npairs,
    }[mask]
    pairs = list(compress(combinations(range(n), 2), bits))
    g = Graph.from_mask(n, bytes(bits))
    checked = Graph(n, pairs)
    assert (g._edges, g._adj, g._connected) == (None, None, None)
    assert [g.has_edge(u, v) for u, v in all_pairs(n)] == [bool(b) for b in bits]
    assert (g._edges, g._adj) == (None, None)
    assert g.edges == checked.edges and g.adj == checked.adj
    assert g == checked and hash(g) == hash(checked) and repr(g) == repr(checked)
    assert (g.base, g.flips) == (None, ())
    assert is_connected(g) == is_connected(checked)
    for u, v in all_pairs(n):
        assert checked.has_edge(u, v) == ((u, v) in pairs)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.data())
def test_lazily_toggled_rows_equal_toggled_adjacency(n, data):
    pairs = all_pairs(n)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(pairs), max_size=len(pairs)))
    base = Graph.from_mask(n, bytes(bits))
    flips = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    g = Graph.toggled(base, flips)
    assert g._adj is None
    assert g.adj == Graph(n, base.edges ^ set(flips)).adj


@pytest.mark.parametrize("k", [Fraction(1), Fraction(5, 2)])
@pytest.mark.parametrize("kind", ["path", "mask"])
def test_a_patched_row_equals_the_checked_row(k, kind):
    """`row` reads one row of a smoothed graph; an unbuilt one patches it
    without building the table.  A draw whose walk built the rows is read
    unbuilt too, so rows are patched for removals: above k = 1 on the line,
    and on random bases with extra edges, some draws remove an edge."""
    params, removals = SmoothingParams(k=k), 0
    for seed in range(30):
        rng = Random(seed)
        n = rng.randrange(2, 13)
        if kind == "path":
            base = path_graph(n)
            is_connected(base)
        else:
            base = random_connected_graph(n, Fraction(1, 3), rng)
        for _ in range(10):
            g = k_smooth(base, params, rng)
            removals += any(base.has_edge(u, v) for u, v in g.flips)
            rows = list(Graph(n, g.edges).adj)
            assert [g.row(u) for u in range(n)] == rows
            if g is not base:
                lazy = Graph.toggled(base, g.flips)
                assert [lazy.row(u) for u in range(n)] == rows
                assert lazy._adj is None
    assert removals > 10 or (kind, k) == ("path", 1)


def test_connectivity_is_cached_per_graph():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert g._connected is False
    h = path_graph(4)
    assert h._connected is None
    assert is_connected(h) and h._connected is True


def test_hamming_distance_examples():
    path = Graph(3, [(0, 1), (1, 2)])
    triangle = complete_graph(3)
    assert hamming_distance(path, triangle) == 1
    assert hamming_distance(path, path) == 0
    assert hamming_distance(Graph(3, [(0, 1), (1, 2)]), Graph(3, [(0, 1), (0, 2)])) == 2


def test_hamming_distance_needs_same_nodes():
    with pytest.raises(ValueError):
        hamming_distance(path_graph(3), path_graph(4))


def test_builders():
    assert path_graph(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert star_graph(4).edges == frozenset({(0, 1), (0, 2), (0, 3)})
    assert cycle_graph(4).edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert cycle_graph(2).edges == frozenset({(0, 1)})
    assert len(complete_graph(5).edges) == 10
    assert all(is_connected(b(6)) for b in (path_graph, star_graph, cycle_graph, complete_graph))


def test_line_of_order():
    g = line_of([1, 2, 0])
    assert g.edges == frozenset({(1, 2), (0, 2)})
    with pytest.raises(ValueError):
        line_of([0, 0, 1])


def test_all_pairs():
    assert all_pairs(3) == ((0, 1), (0, 2), (1, 2))
    assert len(all_pairs(6)) == 15


def test_nodes_within():
    g = path_graph(8)
    assert nodes_within(g, [0], 0) == {0}
    assert nodes_within(g, [0], 2) == {0, 1, 2}
    assert nodes_within(g, [3, 4], 1) == {2, 3, 4, 5}
    assert nodes_within(g, [0], 99) == set(range(8))


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 0), (2, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != complete_graph(3)


@st.composite
def random_graphs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    pairs = all_pairs(n)
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, mask) if keep])


@given(random_graphs(), random_graphs())
def test_hamming_is_a_metric_on_shared_nodes(g1, g2):
    if g1.n != g2.n:
        return
    d = hamming_distance(g1, g2)
    assert d == hamming_distance(g2, g1)
    assert (d == 0) == (g1 == g2)
