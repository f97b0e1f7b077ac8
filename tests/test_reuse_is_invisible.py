"""Every reuse is an optimisation: scrambling identities changes no outcome.

Several layers reuse what they derived when they are handed the same
object again: `randMaxNeighbor`'s replay table, the gap-reduction memo, its
kept record and the gapless per-tuple maximum, the engine's kept verdicts
and shared check dicts, its kept trace rows, the sorting line's ascending
verdict, the trace writer's row texts, and a graph's lazy rows and
connectivity flag.  Here
the adversary hands out a fresh `Graph(n, g.edges)` every round and the
algorithm a fresh tuple in a fresh `RoundOutcome`, so no identity-keyed
reuse ever hits; every trial must still give the same outcome and write
the same trace CSV as the plain run.
"""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from dynbal import engine
from dynbal.adversaries import make_adversary
from dynbal.algorithms import make_algorithm
from dynbal.graphs import Graph
from dynbal.records import RoundOutcome
from test_golden import golden_configs, outcome_and_csv


@cache
def _fresh_graphs(cls):
    class FreshGraphs(cls):
        def next_graph(self, state, matching):
            g = super().next_graph(state, matching)
            return Graph(g.n, g.edges)

    return FreshGraphs


@cache
def _fresh_rounds(cls):
    class FreshRounds(cls):
        def play_round(self, graph, loads):
            out = super().play_round(graph, loads)
            return RoundOutcome(tuple(list(out.new_loads)), list(out.matching), out.shift)

    return FreshRounds


def _rebuilt(make, wrap):
    def factory(name, **params):
        made = make(name, **params)
        made.__class__ = wrap(type(made))  # still an instance of its class
        return made

    return factory


def _plain_and_scrambled(raw):
    plain = outcome_and_csv(raw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "make_adversary", _rebuilt(make_adversary, _fresh_graphs))
        patch.setattr(engine, "make_algorithm", _rebuilt(make_algorithm, _fresh_rounds))
        scrambled = outcome_and_csv(raw)
    return plain, scrambled


def test_golden_configs_ignore_identities():
    for raw in golden_configs():
        (plain, plain_csv), (scrambled, scrambled_csv) = _plain_and_scrambled(raw)
        assert scrambled == plain, raw
        assert scrambled_csv == plain_csv, raw


@st.composite
def golden_variants(draw):
    """A golden config with its size, smoothing, seed, check stride and
    trace level drawn afresh."""
    raw = dict(draw(st.sampled_from(golden_configs())))
    raw["n"] = draw(st.integers(2, 12))
    if raw["k"] != "0" or draw(st.booleans()):
        raw["k"] = draw(st.sampled_from(["0.5", "1", "2.5"]))
    raw["seed"] = draw(st.integers(0, 10**6))
    raw["checkStride"] = draw(st.integers(1, 3))
    raw["traceLevel"] = draw(
        st.sampled_from(["summary", "full"]) | st.builds(lambda s: {"sampled": s}, st.integers(1, 3))
    )
    return raw


@settings(max_examples=100, deadline=None)
@given(golden_variants())
def test_golden_variants_ignore_identities(raw):
    (plain, plain_csv), (scrambled, scrambled_csv) = _plain_and_scrambled(raw)
    assert scrambled == plain
    assert scrambled_csv == plain_csv
