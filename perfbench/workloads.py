"""The benchmark's workloads: named trial sets built from a workload seed.

Each workload is a list of `Trial`s.  A trial is a scenario config (plain
JSON, parsed by `dynbal.config.config_from_dict`) plus the seed it runs on
and whether it writes a trace CSV.  CSV trials go through
`dynbal.engine.run_trial` with a writer from `dynbal.io.open_trace_writer`;
the others go through `dynbal.engine.run_experiment` with one seed and
`threads=1`.

Two scales exist: "full" is what the benchmark times, "smoke" is a tiny
version of the same shapes for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("deterministic_exact", "smoothed_drivers", "sorting_line_horizon")
SCALES = ("full", "smoke")

# The workload seed whose outcomes are pinned in pinned.json.
DEFAULT_SEED = 0

CRITERION_2_CHECKS = [
    "conservation",
    "potentialDrop",
    "coveringEdge",
    "shiftLowerBound",
    "matchingBudget",
    "splitPotential",
]
DRIVER_CHECKS = ["conservation", "matchingBudget", "integrality"]
CRITERION_3_CHECKS = ["prefixMonotone", "conservation", "integrality", "matchingBudget"]

# Shape sizes per scale.
SIZES = {
    "full": {
        "det_n": 40,
        "det_total": 4096,
        "det_max_value": 4096,
        "driver_n": 128,
        "driver_total": 16384,
        "cvi_n": 64,
        "cvi_max_value": 64,
        "line_summary_seeds": 3,
        "line_summary_rounds": 20_000,
        "line_full_rounds": 20_000,
    },
    "smoke": {
        "det_n": 8,
        "det_total": 64,
        "det_max_value": 64,
        "driver_n": 16,
        "driver_total": 256,
        "cvi_n": 8,
        "cvi_max_value": 8,
        "line_summary_seeds": 2,
        "line_summary_rounds": 300,
        "line_full_rounds": 200,
    },
}


@dataclass(frozen=True)
class Trial:
    label: str
    config: dict
    seed: int
    csv: bool = False


def build(workload: str, seed: int, scale: str = "full") -> list[Trial]:
    """The trial set of `workload` at workload seed `seed`."""
    size = SIZES[scale]
    if workload == "deterministic_exact":
        return _deterministic_exact(seed, size)
    if workload == "smoothed_drivers":
        return _smoothed_drivers(seed, size)
    if workload == "sorting_line_horizon":
        return _sorting_line_horizon(seed, size)
    raise ValueError(f"unknown workload {workload!r}")


def _deterministic_exact(seed: int, size: dict) -> list[Trial]:
    base = {
        "n": size["det_n"],
        "mode": "continuous",
        "tau": "1",
        "k": "0",
        "algorithm": "deterministic",
        "checks": CRITERION_2_CHECKS,
        "traceLevel": {"sampled": 1},
        "seed": seed,
    }
    return [
        Trial(
            "static-path",
            {
                **base,
                "initialLoads": {"name": "singleSource", "total": size["det_total"]},
                "adversary": {"name": "static", "graph": "path"},
            },
            seed,
            csv=True,
        ),
        # Random loads: from a single source this adversary keeps
        # presenting the very same path as the static trial.
        Trial(
            "resort-descending",
            {
                **base,
                "initialLoads": {
                    "name": "uniformRandom",
                    "maxValue": size["det_max_value"],
                    "granularityBits": 4,
                },
                "adversary": "resortDescending",
            },
            seed,
            csv=True,
        ),
    ]


def _smoothed_drivers(seed: int, size: dict) -> list[Trial]:
    driver = {
        "n": size["driver_n"],
        "initialLoads": {"name": "singleSource", "total": size["driver_total"]},
        "mode": "integral",
        "tau": "1",
        "adversary": "sortingLine",
        "checks": DRIVER_CHECKS,
        "seed": seed,
    }
    return [
        Trial("smoothed-balance", {**driver, "k": "1", "algorithm": "smoothedBalance"}, seed),
        # k = 2.5 exercises the randomised rounding of the smoothing amount.
        Trial("gapless-balance", {**driver, "k": "2.5", "algorithm": "gaplessBalance"}, seed),
        Trial(
            "continuous-via-integral",
            {
                "n": size["cvi_n"],
                "initialLoads": {
                    "name": "uniformRandom",
                    "maxValue": size["cvi_max_value"],
                    "granularityBits": 5,
                },
                "mode": "continuous",
                "tau": "0.25",
                "k": "1",
                "adversary": "randomConnected",
                "algorithm": "continuousViaIntegral",
                "seed": seed,
            },
            seed,
        ),
    ]


def _sorting_line_horizon(seed: int, size: dict) -> list[Trial]:
    # tau 1 is never reached (criterion 3: the gap stays >= 7), so every
    # trial plays exactly its round budget.
    base = {
        "n": 8,
        "initialLoads": "lineRamp",
        "mode": "integral",
        "tau": "1",
        "k": "0",
        "adversary": "sortingLine",
        "algorithm": "randMaxNeighbor",
        "checks": CRITERION_3_CHECKS,
    }
    count = size["line_summary_seeds"]
    trials = []
    # Each workload seed owns a disjoint block of trial seeds.
    for i in range(count):
        trial_seed = seed * count + i
        trials.append(
            Trial(
                f"summary-{i}",
                {**base, "roundBudget": size["line_summary_rounds"], "seed": trial_seed},
                trial_seed,
            )
        )
    trials.append(
        Trial(
            "full-trace",
            {**base, "roundBudget": size["line_full_rounds"], "traceLevel": "full", "seed": seed},
            seed,
            csv=True,
        )
    )
    return trials
