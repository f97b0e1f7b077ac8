"""Every check kernel against rounds broken on purpose.

Each mutant is the deterministic round with one fault put in, played on a
small scenario where the fault shows.  `check_round`, with the six checks
criterion 2 runs, must fail exactly the kernels the mutant is aimed at,
while the true round on the same scenario passes all six.  The integral
checks get line mutants: the `randMaxNeighbor` round on the n = 8
`lineRamp` under the sorting line's first order, judged by the four
checks criterion 3 runs, which the true round passes.

A round that plays no pair fails two kernels at once, and no round fails
`shiftLowerBound` alone: on a shortest path from a lightest to a heaviest
node, whose edge gaps sum to at least the max gap, a covered edge has a
pair at least as wide within three hops of it, and one pair lies within
three hops of at most ten of the path's edges.  So a covering matching's
gaps sum to at least a tenth of the max gap, more than the fifteenth the
shift bound asks for.

`splitPotential` has no mutant: it reads only the loads before the round
(ROADMAP item 11), so its test is a strict xfail.
"""

from random import Random

import pytest

from dynbal.algorithms import RandMaxNeighbor, TwoSidedDeterministic
from dynbal.graphs import Graph, path_graph
from dynbal.loads import MODE_CONTINUOUS, MODE_INTEGRAL, LoadState, line_ramp
from dynbal.metrics import (
    ALL_CHECKS,
    CHECK_CONSERVATION,
    CHECK_COVERING_EDGE,
    CHECK_INTEGRALITY,
    CHECK_MATCHING_BUDGET,
    CHECK_POTENTIAL_DROP,
    CHECK_PREFIX_MONOTONE,
    CHECK_SHIFT_LOWER_BOUND,
    CHECK_SPLIT_POTENTIAL,
    KIND_MATCHING,
    KIND_TWO_SIDED,
    check_round,
    prefix_sums,
    twice_shifted_load,
)
from dynbal.records import RoundOutcome, RoundTrace
from oracles import interactive_round, split_evenly

CRITERION_2 = [
    CHECK_CONSERVATION,
    CHECK_POTENTIAL_DROP,
    CHECK_COVERING_EDGE,
    CHECK_SHIFT_LOWER_BOUND,
    CHECK_MATCHING_BUDGET,
    CHECK_SPLIT_POTENTIAL,
]


def true_round(graph, loads):
    alg = TwoSidedDeterministic()
    alg.start(loads, MODE_CONTINUOUS, Random(0), k=0, tau=0)
    return alg.play_round(graph, loads)


def moved_by(loads, matching):
    """The loads two bits finer after each pair of `matching` met."""
    new_loads = [w << 2 for w in loads]
    for u, v, _ in matching:
        moved = loads[v] - loads[u]
        new_loads[u] += moved
        new_loads[v] -= moved
    return tuple(new_loads)


# Each mutant plays on (graph, loads) at exponent 0 and returns the round it
# breaks: the loads it started from, their exponent, and its outcome.


def leaks_a_unit(graph, loads):
    outcome = true_round(graph, loads)
    new_loads = list(outcome.new_loads)
    new_loads[new_loads.index(max(new_loads))] -= 1
    return loads, 0, RoundOutcome(tuple(new_loads), outcome.matching, outcome.shift)


def skips_the_internal_stage(graph, loads):
    # The halves are never re-equalised, so from the second round on a
    # sender half no longer holds half its node; the third round is broken.
    state, exp = split_evenly(loads), 1
    for _ in range(3):
        before = tuple(s + a for s, a in state)
        state, outcome = interactive_round(state, graph)
        exp += 1
    return before, exp - 1, outcome


def drops_the_widest_pairs(graph, loads):
    outcome = true_round(graph, loads)
    widest = max(gap for _, _, gap in outcome.matching)
    kept = [pair for pair in outcome.matching if pair[2] != widest]
    return loads, 0, RoundOutcome(moved_by(loads, kept), kept, 2)


def plays_no_pair(graph, loads):
    return loads, 0, RoundOutcome(loads, [], 0)


def sends_twice(graph, loads):
    # Node 0 sends to its second neighbour as well as to the one it chose.
    outcome = true_round(graph, loads)
    matching = [*outcome.matching, (0, 2, abs(loads[0] - loads[2]))]
    return loads, 0, RoundOutcome(moved_by(loads, matching), matching, 2)


STAR_0 = Graph(3, [(0, 1), (0, 2)])
# A triangle 0-1-3 with node 2 hanging off node 0.
KITE = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 3)])

MUTANTS = {
    "leaks-a-unit": (leaks_a_unit, path_graph(4), (8, 0, 0, 0), [CHECK_CONSERVATION]),
    "skips-the-internal-stage": (skips_the_internal_stage, KITE, (0, 0, 3, 2), [CHECK_POTENTIAL_DROP]),
    "drops-the-widest-pairs": (drops_the_widest_pairs, path_graph(5), (0, 0, 1, 0, 2), [CHECK_COVERING_EDGE]),
    "plays-no-pair": (
        plays_no_pair,
        path_graph(4),
        (8, 0, 0, 0),
        [CHECK_COVERING_EDGE, CHECK_SHIFT_LOWER_BOUND],
    ),
    "sends-twice": (sends_twice, STAR_0, (8, 0, 0), [CHECK_MATCHING_BUDGET]),
}


def judge(graph, loads, exp, outcome):
    return check_round(
        LoadState(MODE_CONTINUOUS, loads, exp),
        LoadState(MODE_CONTINUOUS, outcome.new_loads, exp + outcome.shift),
        RoundTrace(1, graph, outcome.matching, twice_shifted_load(outcome.matching)),
        algorithm_kind=KIND_TWO_SIDED,
        enabled=CRITERION_2,
    )


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_its_kernels(name):
    mutant, graph, loads, kernels = MUTANTS[name]
    assert judge(graph, loads, 0, true_round(graph, loads)).ok
    report = judge(graph, *mutant(graph, loads))
    assert report.failed() == kernels, report.witnesses


CRITERION_3 = [CHECK_PREFIX_MONOTONE, CHECK_CONSERVATION, CHECK_INTEGRALITY, CHECK_MATCHING_BUDGET]
LINE = tuple(range(8))  # the sorting line's first order
RAMP = tuple(line_ramp(8))


def true_line_round(loads):
    alg = RandMaxNeighbor()
    alg.start(loads, MODE_INTEGRAL, Random(0), k=0, tau=1)
    return alg.play_round(path_graph(len(loads)), loads)


# Each line mutant plays from RAMP and returns the round it breaks: the
# loads it started from and its outcome.


def hands_back_shifted_loads(loads):
    outcome = true_line_round(loads)
    return loads, RoundOutcome(tuple(w << 1 for w in outcome.new_loads), outcome.matching, 1)


def moves_a_unit_forward(loads):
    # The check judges the loads a round starts from, so the broken round
    # is the one after the move.  No pair is reported, so the line stays.
    moved = list(loads)
    moved[LINE[-1]] -= 1
    moved[LINE[0]] += 1
    return tuple(moved), true_line_round(tuple(moved))


LINE_MUTANTS = {
    "hands-back-shifted-loads": (hands_back_shifted_loads, [CHECK_INTEGRALITY]),
    "moves-a-unit-forward": (moves_a_unit_forward, [CHECK_PREFIX_MONOTONE]),
}


def judge_on_line(loads, outcome):
    return check_round(
        LoadState(MODE_INTEGRAL, loads),
        LoadState(MODE_INTEGRAL, outcome.new_loads, outcome.shift),
        RoundTrace(1, path_graph(len(loads)), outcome.matching, twice_shifted_load(outcome.matching)),
        algorithm_kind=KIND_MATCHING,
        enabled=CRITERION_3,
        line_order=LINE,
        initial_prefix=tuple(prefix_sums(LINE, RAMP)),
    )


@pytest.mark.parametrize("name", LINE_MUTANTS)
def test_line_mutant_fails_its_kernels(name):
    mutant, kernels = LINE_MUTANTS[name]
    assert judge_on_line(RAMP, true_line_round(RAMP)).ok
    report = judge_on_line(*mutant(RAMP))
    assert report.failed() == kernels, report.witnesses


def test_every_kernel_but_split_potential_has_a_mutant():
    killed = {
        kernel
        for *_, kernels in [*MUTANTS.values(), *LINE_MUTANTS.values()]
        for kernel in kernels
    }
    assert set(ALL_CHECKS) - killed == {CHECK_SPLIT_POTENTIAL}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: splitPotential reads only the loads before the round, "
    "so no round can fail it",
)
def test_split_potential_has_a_mutant():
    failed = set()
    for mutant, graph, loads, _ in MUTANTS.values():
        failed.update(judge(graph, *mutant(graph, loads)).failed())
    assert CHECK_SPLIT_POTENTIAL in failed
