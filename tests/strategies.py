"""Hypothesis strategies that more than one test module draws from."""

from __future__ import annotations

from hypothesis import strategies as st

from dynbal.graphs import Graph, all_pairs


@st.composite
def connected_graphs(draw, max_n: int = 14, min_n: int = 1):
    """A random tree (each node hangs off an earlier one in a shuffled
    order) plus any set of extra edges, on min_n..max_n nodes."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(n)))
    edges = {(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)}
    pairs = all_pairs(n)
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {pair for pair, kept in zip(pairs, extra) if kept}
    return Graph(n, edges)
