"""Observation knobs never change a trial's outcome.

The trace level, the check stride, the enabled checks and whether a trace
writer is attached only decide what a trial reports about its rounds.
Random small configs over every algorithm, idling drivers and the
continuous-to-integral reduction included, must give the same outcome
with the knobs at their quietest and at random other settings.
"""

import io
from itertools import accumulate

from hypothesis import given, settings, strategies as st

from dynbal.config import config_from_dict
from dynbal.engine import run_trial
from dynbal.io import TraceCsvWriter

ADVERSARIES = [
    {"name": "static", "graph": "cycle"},
    "resortDescending",
    "sortingLine",
    {"name": "randomConnected", "extraEdgeProb": "0.2"},
]

# (algorithm, mode, tau, smoothing amounts)
SHAPES = [
    ("deterministic", "continuous", "0.0078125", ("0", "1")),
    ("randMaxNeighbor", "continuous", "0.5", ("0", "1")),
    ("randMaxNeighbor", "integral", "1", ("0", "1")),
    ("gapReduce", "integral", "2", ("1", "2.5")),
    ("gaplessGapReduce", "integral", "1", ("1", "2.5")),
    ("smoothedBalance", "integral", "1", ("1", "2.5")),
    ("gaplessBalance", "integral", "1", ("1", "2.5")),
    ("continuousViaIntegral", "continuous", "0.25", ("1", "2.5")),
]

# A large hitting constant shortens every gap-reduction call, so that
# short budgets reach the later calls of the drivers.
C1_ALGORITHMS = {
    "gapReduce",
    "gaplessGapReduce",
    "smoothedBalance",
    "gaplessBalance",
    "continuousViaIntegral",
}

BASE_CHECKS = ["conservation", "matchingBudget", "integrality"]
TWO_SIDED_CHECKS = ["potentialDrop", "coveringEdge", "shiftLowerBound", "splitPotential"]


# The sorting-line impossibility construction: the only shape whose
# configs accept prefixMonotone, on loads that ramp along node ids.
LINE_CONSTRUCTION = ("randMaxNeighbor", "integral", "1", ("0",))


@st.composite
def quiet_configs(draw, line_construction: bool = False) -> dict:
    """A small valid config with every observation knob at its quietest;
    with `line_construction`, one inside the sorting-line construction."""
    name, mode, tau, ks = LINE_CONSTRUCTION if line_construction else draw(st.sampled_from(SHAPES))
    algorithm = {"name": name}
    if name == "gaplessGapReduce":
        algorithm["psi"] = draw(st.integers(0, 16))
    if name in C1_ALGORITHMS:
        c1 = draw(st.sampled_from([None, "20", "100"]))
        if c1 is not None:
            algorithm["c1"] = c1
    n = draw(st.integers(2, 8))
    if line_construction:
        # Loads rising along node ids in steps of 0 or 1.
        steps = draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
        ramp = list(accumulate(steps, initial=draw(st.integers(0, 3))))
        loads = draw(st.sampled_from(["lineRamp", ramp]))
    else:
        loads = {"name": "uniformRandom", "maxValue": draw(st.integers(0, 48))}
        if mode == "continuous":
            loads["granularityBits"] = draw(st.integers(0, 3))
    return {
        "n": n,
        "mode": mode,
        "initialLoads": loads,
        "tau": tau,
        "k": draw(st.sampled_from(ks)),
        "adversary": "sortingLine" if line_construction else draw(st.sampled_from(ADVERSARIES)),
        "algorithm": algorithm,
        "roundBudget": draw(st.integers(0, 300)),
        "stopOnConverge": draw(st.booleans()),
        "seed": draw(st.integers(0, 10**6)),
    }


@st.composite
def knob_settings(draw, raw: dict, line_construction: bool = False) -> tuple[dict, bool]:
    """Random observation knobs for `raw`, and whether to attach a writer."""
    name = raw["algorithm"]["name"]
    allowed = list(BASE_CHECKS)
    if name == "deterministic":
        allowed += TWO_SIDED_CHECKS
    if line_construction:
        allowed.append("prefixMonotone")
    knobs = {
        "traceLevel": draw(
            st.sampled_from(["summary", "full"])
            | st.integers(1, 5).map(lambda s: {"sampled": s})
        ),
        "checkStride": draw(st.integers(1, 4)),
        "checks": draw(st.lists(st.sampled_from(allowed), unique=True)),
    }
    return knobs, draw(st.booleans())


def outcome(raw: dict, writer: bool) -> tuple:
    cfg = config_from_dict(raw)
    trace_writer = TraceCsvWriter(io.StringIO(), cfg.checks) if writer else None
    result = run_trial(cfg, trace_writer=trace_writer)
    return (
        result.rounds_played,
        result.converged_at,
        result.budget,
        result.aborted,
        result.final_loads,
        result.final_gap,
        result.min_max_gap,
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_observation_knobs_never_change_outcomes(data):
    raw = data.draw(quiet_configs())
    knobs, writer = data.draw(knob_settings(raw))
    assert outcome({**raw, **knobs}, writer) == outcome(raw, writer=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_observation_knobs_never_change_sorting_line_construction_outcomes(data):
    # prefixMonotone also re-asks the adversary for its next line after the
    # last round; that must not change the outcome either.
    raw = data.draw(quiet_configs(line_construction=True))
    knobs, writer = data.draw(knob_settings(raw, line_construction=True))
    assert outcome({**raw, **knobs}, writer) == outcome(raw, writer=False)
