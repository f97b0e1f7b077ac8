"""Call schedules, budgets, and the continuous-to-integral reduction."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dynbal.algorithms import (
    GaplessBalance,
    SmoothedBalance,
    decompose_by_unit,
    gapless_schedule,
    make_algorithm,
    recombine_by_unit,
    smoothed_calls_budget,
)
from dynbal.loads import to_dyadics, total_load


def dyadic_fractions(max_num, max_exp, min_num=0):
    """Fractions num / 2**exp, the amounts configs hand the drivers."""
    return st.builds(
        lambda num, exp: Fraction(num, 1 << exp),
        st.integers(min_num, max_num),
        st.integers(0, max_exp),
    )


def test_smoothed_calls_budget_values():
    assert smoothed_calls_budget(1024, 1) == 28
    assert smoothed_calls_budget(2, 1) == 3
    assert smoothed_calls_budget(8, 8) == 0
    assert smoothed_calls_budget(0, 1) == 0
    assert smoothed_calls_budget(512, Fraction(2)) == 23
    assert smoothed_calls_budget(512, Fraction(1, 2)) == 28
    # T / tau = 1e400 has no float; its log is still taken.
    assert smoothed_calls_budget(10**400, 1) == 3685


@pytest.mark.parametrize("c1", [0, -1, Fraction(-1, 2)])
@pytest.mark.parametrize(
    "name, params",
    [
        ("smoothedBalance", {}),
        ("gaplessBalance", {}),
        ("gapReduce", {}),
        ("gaplessGapReduce", {"psi": 4}),
    ],
)
def test_nonpositive_hitting_constant_is_rejected(name, params, c1):
    # Every planned budget divides by c1: zero would divide by zero, and a
    # negative constant would plan no rounds at all.
    with pytest.raises(ValueError, match="hitting constant"):
        make_algorithm(name, c1=c1, **params)


def test_gapless_schedule_frozen():
    assert gapless_schedule(16, 1) == [16, 12, 9, 6, 4, 3, 2]
    assert gapless_schedule(2, 1) == [2]
    assert gapless_schedule(1, 1) == [1]


@given(st.integers(1, 10**5), st.integers(1, 64))
def test_gapless_schedule_terminates_below_target(total, tau):
    schedule = gapless_schedule(total, tau)
    stop = -((-4 * tau) // 3)
    assert schedule[-1] <= stop
    assert all(a > b for a, b in zip(schedule, schedule[1:]))
    # Only the last entry may sit at or below the stop threshold.
    assert all(psi > stop for psi in schedule[:-1])


def test_smoothed_balance_skips_when_already_converged():
    alg = SmoothedBalance()
    loads = (4, 4, 5, 4)
    alg.start(loads, "integral", Random(0), k=Fraction(1), tau=1)
    assert alg.consume_idle_rounds(loads, 7) == 7
    assert alg.calls_started == 0


def test_smoothed_balance_planned_rounds():
    alg = SmoothedBalance(c1=Fraction(2))
    alg.start([1024] + [0] * 15, "integral", Random(0), k=Fraction(1), tau=1)
    assert alg.calls_budget == 28
    assert alg.planned_rounds() == 28 * (16 + 3014)


def test_gapless_balance_runs_the_whole_schedule():
    # tau-converged input: every call is spawned but each fast-forwards
    # without moving anything.
    alg = GaplessBalance()
    loads = (3, 3, 3, 4)
    alg.start(loads, "integral", Random(0), k=Fraction(1), tau=1)
    expected_schedule = gapless_schedule(13, 1)
    left = alg.planned_rounds()
    calls = []
    while left:
        skipped = alg.consume_idle_rounds(loads, left)
        assert skipped > 0, "converged input must only fast-forward"
        calls.append(skipped)
        left -= skipped
    assert alg.calls_started == len(expected_schedule)
    # Each call coasts through its own budget, none through a later one's.
    assert calls == [alg._per_call] * len(expected_schedule)


def assert_stays_finished(alg, loads):
    started, last_call = alg.calls_started, alg.current
    for budget in (1, 9):
        assert alg.consume_idle_rounds(loads, budget) == budget
        assert alg.calls_started == started
        assert alg.current is last_call


def test_finished_call_chains_stay_finished():
    smoothed = SmoothedBalance()
    loads = (4, 4, 5, 4)
    smoothed.start(loads, "integral", Random(0), k=Fraction(1), tau=1)
    assert_stays_finished(smoothed, loads)
    assert smoothed.current is None

    gapless = GaplessBalance()
    loads = (3, 3, 3, 4)
    gapless.start(loads, "integral", Random(0), k=Fraction(1), tau=1)
    left = gapless.planned_rounds()
    while left:
        left -= gapless.consume_idle_rounds(loads, left)
    assert gapless.calls_started == len(gapless.schedule)
    assert_stays_finished(gapless, loads)


# ----------------------------------------------------------------------
# continuous loads via a base unit
# ----------------------------------------------------------------------


def test_decompose_examples():
    unit = Fraction(1, 8)
    loads = [Fraction(3, 8), Fraction(5, 16), 0]
    q, r, exp, step = decompose_by_unit(loads, unit)
    assert q == [3, 2, 0]
    assert to_dyadics(r, exp) == [0, Fraction(1, 16), 0]
    assert Fraction(step, 1 << exp) == unit
    rebuilt = recombine_by_unit(q, r, step)
    assert to_dyadics(rebuilt, exp) == loads


def test_decompose_rejects_zero_unit():
    with pytest.raises(ValueError):
        decompose_by_unit([1], Fraction(0))


def test_decompose_rejects_non_dyadic_amounts():
    # A unit or load with no finite binary expansion has no numerator.
    with pytest.raises(ValueError, match="no finite binary expansion"):
        decompose_by_unit([1], Fraction(1, 3))
    with pytest.raises(ValueError, match="no finite binary expansion"):
        decompose_by_unit([Fraction(1, 10)], Fraction(1, 4))


@settings(max_examples=200)
@given(st.lists(dyadic_fractions(4096, 8), min_size=1, max_size=8), st.integers(0, 5))
def test_decompose_recombine_roundtrip(loads, unit_exp):
    unit = Fraction(1, 1 << unit_exp)
    q, r, exp, step = decompose_by_unit(loads, unit)
    assert all(isinstance(x, int) and x >= 0 for x in q)
    assert all(0 <= rem < step for rem in r)
    assert to_dyadics(recombine_by_unit(q, r, step), exp) == loads


@settings(max_examples=200)
@given(
    st.lists(dyadic_fractions(10**6, 12), min_size=1, max_size=10),
    dyadic_fractions(4096, 12, min_num=1),
)
def test_numerator_decompose_matches_fraction_reference(loads, tau):
    # The unit continuousViaIntegral uses, tau / 2.
    unit = tau / 2
    q, r, exp, step = decompose_by_unit(loads, unit)
    scale = Fraction(1, 1 << exp)
    assert step * scale == unit
    for w, q_i, r_i in zip(loads, q, r):
        assert w == q_i * unit + r_i * scale
        assert 0 <= r_i * scale < unit
    # Recombination gives back the original numerators over exp.
    assert recombine_by_unit(q, r, step) == [w / scale for w in loads]


@given(st.lists(dyadic_fractions(1024, 6), min_size=1, max_size=8))
def test_recombined_totals_survive_integral_rebalancing(loads):
    # Whatever the integral run does to the quotients, conservation of the
    # integer total plus frozen remainders conserves the real total.
    unit = Fraction(1, 4)
    q, r, exp, step = decompose_by_unit(loads, unit)
    shuffled = list(reversed(q))  # stand-in for any total-preserving run
    rebuilt = recombine_by_unit(shuffled, r, step)
    moved = Fraction(step * (sum(shuffled) - sum(q)), 1 << exp)
    assert Fraction(total_load(rebuilt), 1 << exp) == total_load(loads) + moved
