"""Per-node load vectors and the initial-load generators scenarios pick by name.

A trial holds its loads as one list of Python ints plus one exponent shared
by the whole vector: node i carries loads[i] / 2**exp.  The balancing rules
only ever take repeated half-sums of integer loads, so a round that halves
raises the exponent by a bit or two and every load stays an integer
numerator.  Integral mode is simply exp == 0.  Amounts at different
exponents compare by cross-shifting: a / 2**ea < b / 2**eb exactly when
a << eb < b << ea.  Dyadic values appear only at the boundary: `to_scaled`
takes parsed or generated loads in, `to_dyadics` renders numerators out.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .dyadic import Dyadic

MODE_INTEGRAL = "integral"
MODE_CONTINUOUS = "continuous"
MODES = (MODE_INTEGRAL, MODE_CONTINUOUS)


@dataclass
class LoadState:
    """A snapshot of every node's load: loads[i] / 2**exp."""

    mode: str
    loads: list
    exp: int = 0

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.exp < 0:
            raise ValueError("the shared exponent must be non-negative")
        if self.mode == MODE_INTEGRAL and self.exp:
            raise ValueError("integral mode needs the shared exponent 0")
        for i, w in enumerate(self.loads):
            if not isinstance(w, int):
                raise ValueError(f"loads must be integer numerators, node {i} has {w!r}")
            if w < 0:
                raise ValueError(f"node {i} has negative load {w}")


def total_load(loads) -> object:
    """Exact total, in the scale of the loads given."""
    return sum(loads)


def to_scaled(values) -> tuple[list[int], int]:
    """Dyadic values as numerators over their largest exponent."""
    exp = max((w.exp for w in values), default=0)
    return [w.num << (exp - w.exp) for w in values], exp


def to_dyadics(nums, exp: int) -> list[Dyadic]:
    return [Dyadic(w, exp) for w in nums]


def renormalise(nums: list[int], exp: int) -> tuple[list[int], int]:
    """Drop the factors of two all numerators share, down to exponent 0.

    The result's exponent is the largest exponent of the values in
    canonical Dyadic form.
    """
    acc = 0
    for w in nums:
        acc |= w
    drop = (acc & -acc).bit_length() - 1 if acc else exp
    if drop > exp:
        drop = exp
    if not drop:
        return nums, exp
    return [w >> drop for w in nums], exp - drop


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def line_ramp(n: int) -> list[int]:
    """Loads 1..n in node order: node i starts with i + 1 units."""
    return list(range(1, n + 1))


def single_source(n: int, total: int) -> list[int]:
    """All `total` units on node 0, everything else empty."""
    if total < 0:
        raise ValueError("total load must be non-negative")
    return [total] + [0] * (n - 1)


def uniform_random(n: int, max_value: int, rng: Random, granularity_bits: int = 0) -> list:
    """Independent uniform loads on [0, max_value].

    With granularity_bits == 0 the draws are integers; otherwise they are
    dyadics on a 2**-granularity_bits grid, for continuous-mode scenarios.
    """
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    if granularity_bits == 0:
        return [rng.randint(0, max_value) for _ in range(n)]
    scale = max_value << granularity_bits
    return [Dyadic(rng.randint(0, scale), granularity_bits) for _ in range(n)]
