"""The shared-exponent load representation, observed through the engine.

Continuous trials hold their loads as integer numerators over one exponent
that a round raises and the engine renormalises.  After every round that
exponent must be the canonical one (the largest exponent among the loads
written as reduced Dyadic values), and the total must be exactly the
initial one.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from dynbal import engine
from dynbal.config import config_from_dict
from dynbal.dyadic import Dyadic

ADVERSARIES = {
    "deterministic": [
        {"name": "static", "graph": "path"},
        {"name": "static", "graph": "cycle"},
        "resortDescending",
        {"name": "randomConnected", "extraEdgeProb": "0.2"},
    ],
    "randMaxNeighbor": [
        {"name": "static", "graph": "star"},
        "resortDescending",
        "sortingLine",
        {"name": "randomConnected", "extraEdgeProb": "0.2"},
    ],
}


@st.composite
def continuous_trials(draw):
    n = draw(st.integers(2, 10))
    bits = draw(st.integers(0, 6))
    loads = [Dyadic(draw(st.integers(0, 64 << bits)), bits).decimal_str() for _ in range(n)]
    algorithm = draw(st.sampled_from(sorted(ADVERSARIES)))
    return {
        "n": n,
        "mode": "continuous",
        "initialLoads": loads,
        "tau": "0",
        "k": draw(st.sampled_from(["0", "1"])),
        "adversary": draw(st.sampled_from(ADVERSARIES[algorithm])),
        "algorithm": algorithm,
        "roundBudget": draw(st.integers(1, 200)),
        "checks": ["conservation"],
        "seed": draw(st.integers(0, 10**6)),
    }


@settings(max_examples=60, deadline=None)
@given(continuous_trials())
def test_shared_exponent_is_canonical_and_total_is_conserved(raw):
    committed = []
    check_round = engine.check_round

    def spy(before, after, trace, **kwargs):
        committed.append((list(after.loads), after.exp))
        return check_round(before, after, trace, **kwargs)

    with mock.patch.object(engine, "check_round", spy):
        result = engine.run_trial(config_from_dict(raw))

    initial_total = sum(Fraction(w) for w in raw["initialLoads"])
    assert result.total == initial_total
    assert len(committed) == result.rounds_played
    for nums, exp in committed:
        assert exp == max(Dyadic(w, exp).exp for w in nums)
        assert Dyadic(sum(nums), exp) == initial_total
    assert sum(result.final_loads) == initial_total
    assert result.invariant_failures == 0
