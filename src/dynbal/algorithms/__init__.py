"""Balancing algorithms and the registry scenarios select them from."""

from __future__ import annotations

from .base import KIND_MATCHING, KIND_TWO_SIDED, BalancingAlgorithm
from .deterministic import TwoSidedDeterministic
from .drivers import (
    GaplessBalance,
    SmoothedBalance,
    decompose_by_unit,
    gapless_schedule,
    recombine_by_unit,
    smoothed_calls_budget,
)
from .gapreduce import (
    GapReduce,
    GaplessGapReduce,
    gap_reduce_round_budget,
    gapless_round_budget,
)
from .randomized import RandMaxNeighbor

# continuousViaIntegral is listed for validation but dispatched by the
# engine, which wraps a whole integral trial.
CONTINUOUS_VIA_INTEGRAL = "continuousViaIntegral"

ALGORITHMS = {
    cls.name: cls
    for cls in (
        TwoSidedDeterministic,
        RandMaxNeighbor,
        GapReduce,
        GaplessGapReduce,
        SmoothedBalance,
        GaplessBalance,
    )
}

ALGORITHM_NAMES = tuple(ALGORITHMS) + (CONTINUOUS_VIA_INTEGRAL,)


def make_algorithm(name: str, **params) -> BalancingAlgorithm:
    try:
        cls = ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}") from None
    return cls(**params)
