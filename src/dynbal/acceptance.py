"""The acceptance battery: one verdict per headline guarantee.

Every criterion builds plain scenario configs and drives the public engine,
so a passing battery exercises the same code paths users hit.  The "full"
scale runs the guarantees at their stated sizes; "fast" shrinks trial
counts and round budgets for a quick smoke signal with the same logic.

The statistical criteria pin their trial counts and the 90% success floor;
the exact criteria (convergence, invariants, impossibility) run at zero
tolerance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .config import config_from_dict
from .dyadic import decimal_text
from .engine import derive_stream, run_experiment, run_trial
from .loads import to_scaled, total_load
from .smoothing import UNIFORMITY_BASES, sampler_total_variation

DETERMINISTIC_CHECKS = [
    "conservation",
    "potentialDrop",
    "coveringEdge",
    "shiftLowerBound",
    "matchingBudget",
    "splitPotential",
]

STAT_SUCCESS_FLOOR = 0.90
UNIFORMITY_TOLERANCE = 0.02

SCALES = {
    "fast": {
        "det_sizes": [(4, 64), (8, 64)],
        "impossibility_seeds": 3,
        "impossibility_rounds": 10_000,
        "contraction_n": 8,
        "contraction_trials": 30,
        "driver_n": 8,
        "driver_total": 256,
        "driver_trials": 15,
        "uniformity_samples": 40_000,
        "reduction_trials": 15,
    },
    "full": {
        "det_sizes": [(4, 64), (4, 256), (8, 64), (8, 256), (16, 64), (16, 256)],
        "impossibility_seeds": 10,
        "impossibility_rounds": 100_000,
        "contraction_n": 16,
        "contraction_trials": 100,
        "driver_n": 16,
        "driver_total": 1024,
        "driver_trials": 50,
        "uniformity_samples": 100_000,
        "reduction_trials": 50,
    },
}


@dataclass
class CriterionOutcome:
    number: int
    name: str
    passed: bool
    detail: str
    note: bool = False


# ----------------------------------------------------------------------
# criteria 1 + 2: deterministic convergence and its invariants
# ----------------------------------------------------------------------


def deterministic_runs(scale: str):
    """Two-sided deterministic trials over sizes and adversaries.

    Shared by criteria 1 (convergence within the default budget) and 2
    (the full invariant battery holds with zero violations).
    """
    adversaries = [
        {"name": "static", "graph": "path"},
        {"name": "static", "graph": "star"},
        "resortDescending",
        {"name": "randomConnected", "extraEdgeProb": "0.1"},
    ]
    results = []
    for n, total in SCALES[scale]["det_sizes"]:
        (share,), exp = to_scaled([Fraction(total, n)])
        tau = decimal_text(share, exp)
        for adversary in adversaries:
            cfg = config_from_dict(
                {
                    "n": n,
                    "initialLoads": {"name": "singleSource", "total": total},
                    "mode": "continuous",
                    "tau": tau,
                    "k": "0",
                    "adversary": adversary,
                    "algorithm": "deterministic",
                    "checks": DETERMINISTIC_CHECKS,
                    "seed": 2026,
                }
            )
            results.append(run_trial(cfg))
    return results


def criterion_1_and_2(scale: str) -> tuple[CriterionOutcome, CriterionOutcome]:
    results = deterministic_runs(scale)
    converged = sum(1 for r in results if r.converged)
    failures = sum(r.invariant_failures for r in results)
    c1 = CriterionOutcome(
        1,
        "deterministic convergence within the default budget",
        converged == len(results),
        f"{converged}/{len(results)} runs converged (zero tolerance)",
    )
    c2 = CriterionOutcome(
        2,
        "deterministic invariant battery",
        failures == 0,
        f"{failures} violations across {len(results)} runs (zero tolerance)",
    )
    return c1, c2


# ----------------------------------------------------------------------
# criterion 3: the sorting-line impossibility
# ----------------------------------------------------------------------


def criterion_3(scale: str) -> CriterionOutcome:
    """Without smoothing, the sorting-line adversary pins the gap forever.

    Loads 1..8 on eight nodes: the line order keeps every prefix sum at or
    under its initial value, so the front node never exceeds 1 while the
    back node never drops under 8 - the max gap stays >= 7 in every round.
    """
    params = SCALES[scale]
    seeds = params["impossibility_seeds"]
    rounds = params["impossibility_rounds"]
    cfg = config_from_dict(
        {
            "n": 8,
            "initialLoads": "lineRamp",
            "mode": "integral",
            "tau": "1",
            "k": "0",
            "adversary": "sortingLine",
            "algorithm": "randMaxNeighbor",
            "roundBudget": rounds,
            "checks": ["prefixMonotone", "conservation", "integrality", "matchingBudget"],
            "trials": seeds,
            "seed": 0,
        }
    )
    result = run_experiment(cfg)
    worst_gap_floor = min(trial.min_max_gap for trial in result.trials)
    failures = result.total_invariant_failures
    ok = worst_gap_floor >= 7 and failures == 0
    return CriterionOutcome(
        3,
        "sorting-line impossibility (gap floor 7)",
        ok,
        f"min max-gap {worst_gap_floor} over {seeds} seeds x {rounds} rounds, "
        f"{failures} invariant violations",
    )


# ----------------------------------------------------------------------
# criterion 4: one gap-reduction call contracts the spread
# ----------------------------------------------------------------------


def criterion_4(scale: str) -> CriterionOutcome:
    n = SCALES[scale]["contraction_n"]
    trials = SCALES[scale]["contraction_trials"]
    cfg = config_from_dict(
        {
            "n": n,
            "initialLoads": [0] * (n // 2) + [64] * (n // 2),
            "mode": "integral",
            "tau": "48",  # success == the call reaches 3/4 of the initial gap
            "k": "1",
            "adversary": "sortingLine",
            "algorithm": "gapReduce",
            "trials": trials,
            "seed": 7000,
        }
    )
    result = run_experiment(cfg)
    floor = int(trials * STAT_SUCCESS_FLOOR + 0.5)
    ok = result.successes >= floor and result.aborted_trials == 0
    return CriterionOutcome(
        4,
        "single gap-reduction call contracts 64 -> 48",
        ok,
        f"{result.successes}/{trials} trials reached gap <= 48 (floor {floor}, "
        f"wilson [{result.wilson_low:.3f}, {result.wilson_high:.3f}])",
    )


# ----------------------------------------------------------------------
# criterion 5: the full drivers converge against the sorting line
# ----------------------------------------------------------------------


def criterion_5(scale: str) -> CriterionOutcome:
    n = SCALES[scale]["driver_n"]
    total = SCALES[scale]["driver_total"]
    trials = SCALES[scale]["driver_trials"]
    parts = []
    ok = True
    for algorithm, seed0 in (("smoothedBalance", 8000), ("gaplessBalance", 9000)):
        cfg = config_from_dict(
            {
                "n": n,
                "initialLoads": {"name": "singleSource", "total": total},
                "mode": "integral",
                "tau": "1",
                "k": "1",
                "adversary": "sortingLine",
                "algorithm": algorithm,
                "trials": trials,
                "seed": seed0,
            }
        )
        result = run_experiment(cfg)
        floor = int(trials * STAT_SUCCESS_FLOOR + 0.5)
        ok = ok and result.successes >= floor and result.aborted_trials == 0
        parts.append(f"{algorithm} {result.successes}/{trials} (floor {floor})")
    return CriterionOutcome(
        5,
        "smoothing defeats the sorting line within the planned budget",
        ok,
        "; ".join(parts),
    )


# ----------------------------------------------------------------------
# criterion 6: the sampler is uniform on enumerable balls
# ----------------------------------------------------------------------


def criterion_6(scale: str) -> CriterionOutcome:
    samples = SCALES[scale]["uniformity_samples"]
    worst = 0.0
    combos = 0
    for name, build in UNIFORMITY_BASES.items():
        for t in (1, 2):
            rng = derive_stream(6000, f"uniformity:{name}:{t}")
            tv, _ = sampler_total_variation(build(4), t, samples, rng)
            worst = max(worst, tv)
            combos += 1
    ok = worst <= UNIFORMITY_TOLERANCE
    return CriterionOutcome(
        6,
        "smoothing sampler uniformity",
        ok,
        f"worst TV {worst:.4f} over {combos} base/t combos at {samples} samples "
        f"(tolerance {UNIFORMITY_TOLERANCE})",
    )


# ----------------------------------------------------------------------
# criterion 7: continuous loads via the integral reduction
# ----------------------------------------------------------------------


def criterion_7(scale: str) -> CriterionOutcome:
    trials = SCALES[scale]["reduction_trials"]
    cfg = config_from_dict(
        {
            "n": 8,
            "initialLoads": {"name": "uniformRandom", "maxValue": 8, "granularityBits": 5},
            "mode": "continuous",
            "tau": "0.25",
            "k": "1",
            "adversary": "randomConnected",
            "algorithm": "continuousViaIntegral",
            "checks": ["conservation", "integrality", "matchingBudget"],
            "trials": trials,
            "seed": 10_000,
        }
    )
    results = run_experiment(cfg).trials
    successes = sum(r.converged and r.final_gap <= Fraction(1, 4) for r in results)
    conserved = sum(total_load(r.final_loads) == r.total for r in results)
    failures = sum(r.invariant_failures for r in results)
    floor = int(trials * STAT_SUCCESS_FLOOR + 0.5)
    ok = successes >= floor and conserved == trials and failures == 0
    return CriterionOutcome(
        7,
        "continuous-via-integral reaches tau with exact conservation",
        ok,
        f"{successes}/{trials} converged (floor {floor}), {conserved}/{trials} conserved "
        f"exactly, {failures} invariant violations",
    )


# ----------------------------------------------------------------------
# criterion 8: explicitly out of scope
# ----------------------------------------------------------------------


def criterion_8(scale: str) -> CriterionOutcome:
    return CriterionOutcome(
        8,
        "asymptotic round-complexity scaling",
        True,
        "not measured here: budgets encode the scaling, the battery checks "
        "behaviour at fixed sizes only",
        note=True,
    )


# ----------------------------------------------------------------------
# the battery
# ----------------------------------------------------------------------


def evaluate(scale: str = "fast") -> list[CriterionOutcome]:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    c1, c2 = criterion_1_and_2(scale)
    return [
        c1,
        c2,
        criterion_3(scale),
        criterion_4(scale),
        criterion_5(scale),
        criterion_6(scale),
        criterion_7(scale),
        criterion_8(scale),
    ]


def run_battery(scale: str = "fast", stream=None) -> bool:
    stream = stream or sys.stdout
    all_ok = True
    for outcome in evaluate(scale):
        status = "note" if outcome.note else ("pass" if outcome.passed else "FAIL")
        print(
            f"[{status}] criterion {outcome.number}: {outcome.name} - {outcome.detail}",
            file=stream,
        )
        all_ok = all_ok and outcome.passed
    return all_ok
