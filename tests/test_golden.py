"""Golden outcomes: pinned results of small trials across every valid
algorithm x adversary x mode combination and every trace level.

Each entry of golden_outcomes.json is a scenario config and seed with the
outcome it must reproduce bit for bit: rounds played, convergence round,
invariant failures, abort reason, and sha256 digests of the final loads,
of the result's amounts (total, final gap, smallest gap and their types),
and of the trace CSV.  A trial that raises pins its exception instead.
Refactors must leave every entry unchanged.

Regenerate (only for an intended outcome change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from dynbal.config import config_from_dict
from dynbal.engine import run_trial
from dynbal.io import TraceCsvWriter, render_amount

GOLDEN_FILE = Path(__file__).with_name("golden_outcomes.json")

TWO_SIDED_CHECKS = ["potentialDrop", "coveringEdge", "shiftLowerBound", "splitPotential"]
BASE_CHECKS = ["conservation", "matchingBudget", "integrality"]

ADVERSARIES = [
    {"name": "static", "graph": "cycle"},
    "resortDescending",
    "sortingLine",
    {"name": "randomConnected", "extraEdgeProb": "0.2"},
]

SIZES = [5, 8, 12, 8]

TRACE_LEVELS = ["summary", {"sampled": 1}, "full"]

CONTINUOUS_LOADS = {"name": "uniformRandom", "maxValue": 16, "granularityBits": 3}
INTEGRAL_LOADS = {"name": "uniformRandom", "maxValue": 48}

# (algorithm, mode, smoothing amounts, extra config keys)
SHAPES = [
    ("deterministic", "continuous", ("0", "1"), {"tau": "0.0078125", "roundBudget": 120}),
    ("randMaxNeighbor", "continuous", ("0", "1"), {"tau": "0.5", "roundBudget": 150}),
    ("randMaxNeighbor", "integral", ("0", "1"), {"tau": "1", "roundBudget": 150}),
    ("gapReduce", "integral", ("1",), {"tau": "2", "roundBudget": 300}),
    (
        {"name": "gaplessGapReduce", "psi": 8},
        "integral",
        ("1",),
        {"tau": "1", "roundBudget": 300},
    ),
    ("smoothedBalance", "integral", ("1",), {"tau": "1", "roundBudget": 400}),
    ("gaplessBalance", "integral", ("2.5",), {"tau": "1", "roundBudget": 400}),
    ("continuousViaIntegral", "continuous", ("1",), {"tau": "0.25", "roundBudget": 400}),
]


def golden_configs() -> list[dict]:
    """The pinned (config, seed) pairs, in file order."""
    configs = []
    seed = 100
    for algorithm, mode, ks, extra in SHAPES:
        name = algorithm if isinstance(algorithm, str) else algorithm["name"]
        for n, adversary in zip(SIZES, ADVERSARIES):
            # No prefixMonotone: it needs loads that ramp along the line,
            # and these are uniformRandom.
            checks = list(BASE_CHECKS)
            if name == "deterministic":
                checks += TWO_SIDED_CHECKS
            for k in ks:
                for trace_level in TRACE_LEVELS:
                    seed += 1
                    configs.append(
                        {
                            "n": n,
                            "mode": mode,
                            "initialLoads": CONTINUOUS_LOADS
                            if mode == "continuous"
                            else INTEGRAL_LOADS,
                            "k": k,
                            "adversary": adversary,
                            "algorithm": algorithm,
                            "checks": checks,
                            "traceLevel": trace_level,
                            "seed": seed,
                            **extra,
                        }
                    )
    return configs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(raw: dict) -> dict:
    cfg = config_from_dict(raw)
    stream = io.StringIO()
    writer = TraceCsvWriter(stream, cfg.checks)
    try:
        result = run_trial(cfg, trace_writer=writer)
    except Exception as exc:  # a crash is pinned like any other outcome
        return {"error": f"{type(exc).__name__}: {exc}"}
    amounts = [result.total, result.final_gap, result.min_max_gap]
    return {
        "rounds_played": result.rounds_played,
        "converged_at": result.converged_at,
        "invariant_failures": result.invariant_failures,
        "aborted": result.aborted,
        "final_loads_sha256": _sha256(",".join(render_amount(w) for w in result.final_loads)),
        "amounts_sha256": _sha256(
            ",".join(f"{type(a).__name__}:{render_amount(a)}" for a in amounts)
        ),
        "csv_sha256": _sha256(stream.getvalue()),
    }


def _entries() -> list[dict]:
    return json.loads(GOLDEN_FILE.read_text())["entries"]


@pytest.mark.parametrize("index", range(len(golden_configs())))
def test_golden_outcome(index):
    entry = _entries()[index]
    assert entry["config"] == golden_configs()[index]
    assert outcome(entry["config"]) == entry["outcome"]


def write_golden() -> None:
    entries = [{"config": raw, "outcome": outcome(raw)} for raw in golden_configs()]
    GOLDEN_FILE.write_text(json.dumps({"entries": entries}, indent=1) + "\n")


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
