"""The round loop held to a naive statement of what a trial is.

`oracles.reference_trial` plays the real adversary, sampler and algorithm,
but keeps its loads as Fractions, hands every round fresh objects and
derives the gap, the minimum gap, convergence, d_r, the verdicts and every
trace row afresh.  `engine.run_trial` keeps records, verdicts and trace
rows, and must give the same result (amount types included) and the same
trace CSV bytes: on every golden config but `continuousViaIntegral` (the
engine runs it as an integral sub-trial) and on drawn variants that add
what golden lacks: criterion 3's sorting line from `lineRamp` or an
explicit ramp with `prefixMonotone`, explicit loads, `stopOnConverge`
false, and small trials that run their algorithm's own budget.
"""

import io
from itertools import accumulate

from hypothesis import given, settings, strategies as st

from dynbal.config import config_from_dict
from dynbal.dyadic import decimal_text
from dynbal.engine import run_trial
from dynbal.io import TraceCsvWriter
from oracles import reference_trial
from test_golden import BASE_CHECKS, golden_configs

REFERENCE_CONFIGS = [
    raw for raw in golden_configs() if raw["algorithm"] != "continuousViaIntegral"
]

# Criterion 3's construction, the one config family prefixMonotone admits.
SORTING_LINE = {
    "mode": "integral",
    "initialLoads": "lineRamp",
    "k": "0",
    "tau": "1",
    "adversary": "sortingLine",
    "algorithm": "randMaxNeighbor",
    "checks": [*BASE_CHECKS, "prefixMonotone"],
    "roundBudget": 150,
}


def amount_types(result) -> list:
    return [type(a) for a in (result.total, result.final_gap, result.min_max_gap)] + [
        type(w) for w in result.final_loads
    ]


def assert_agrees(raw: dict) -> None:
    cfg = config_from_dict(raw)
    reference, reference_csv = reference_trial(cfg, cfg.seed)
    stream = io.StringIO()
    result = run_trial(cfg, trace_writer=TraceCsvWriter(stream, cfg.checks))
    assert result == reference, raw
    assert amount_types(result) == amount_types(reference), raw
    assert stream.getvalue() == reference_csv, raw


def test_golden_configs_match_the_reference_loop():
    assert len(REFERENCE_CONFIGS) == 120
    for raw in REFERENCE_CONFIGS:
        assert_agrees(raw)


@st.composite
def reference_configs(draw):
    """A golden config or the sorting line, with its size, seed, check
    stride, trace level and `stopOnConverge` drawn afresh.  A golden config
    may start from explicit loads and the line from an explicit ramp (steps
    of 0 or 1); one in three trials drops `roundBudget` and runs its
    algorithm's own budget, at n <= 3 (integral) or n = 2 (continuous),
    where that budget is a few thousand rounds at most."""
    line = draw(st.booleans())
    raw = dict(SORTING_LINE if line else draw(st.sampled_from(REFERENCE_CONFIGS)))
    integral = raw["mode"] == "integral"
    budgetless = draw(st.sampled_from([False, False, True]))
    n = raw["n"] = draw(st.integers(2, (3 if integral else 2) if budgetless else 8))
    if budgetless:
        del raw["roundBudget"]
    if not line and (raw["k"] != "0" or draw(st.booleans())):
        raw["k"] = draw(st.sampled_from(["0.5", "1", "2.5"]))
    if draw(st.booleans()):
        if line:
            steps = draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
            raw["initialLoads"] = list(accumulate(steps, initial=draw(st.integers(0, 3))))
        elif integral:
            raw["initialLoads"] = draw(st.lists(st.integers(0, 48), min_size=n, max_size=n))
        else:
            amounts = st.builds(decimal_text, st.integers(0, 16 << 3), st.integers(0, 3))
            raw["initialLoads"] = draw(st.lists(amounts, min_size=n, max_size=n))
    raw["seed"] = draw(st.integers(0, 10**6))
    raw["checkStride"] = draw(st.integers(1, 3))
    raw["traceLevel"] = draw(
        st.sampled_from(["summary", "full"]) | st.builds(lambda s: {"sampled": s}, st.integers(1, 3))
    )
    raw["stopOnConverge"] = draw(st.booleans())
    return raw


@settings(max_examples=60, deadline=None)
@given(reference_configs())
def test_drawn_configs_match_the_reference_loop(raw):
    assert_agrees(raw)
