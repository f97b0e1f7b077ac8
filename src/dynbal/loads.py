"""Per-node load vectors and the initial-load generators scenarios pick by name.

A trial commits its loads as one `LoadState` record: an immutable tuple of
Python ints plus one exponent shared by the whole vector, so node i carries
loads[i] / 2**exp.  A round that moves no load hands back the very tuple it
was given and the trial keeps the very record, with what metrics.py
derived from it; only a round that moves load commits a new one.  The
balancing rules only ever take repeated half-sums of integer loads, so a
round that halves raises the exponent by a bit or two and every load stays
an integer numerator.  Integral mode is simply exp == 0.  Amounts at different
exponents compare by cross-shifting: a / 2**ea < b / 2**eb exactly when
a << eb < b << ea.  Loads come in as ints and dyadic `Fraction`s, which
`to_scaled` turns into numerators; `Dyadic` is output-only, and
`to_dyadics` renders numerators out as a trial's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .dyadic import Dyadic

MODE_INTEGRAL = "integral"
MODE_CONTINUOUS = "continuous"
MODES = (MODE_INTEGRAL, MODE_CONTINUOUS)


# The integrality verdict of a record no check has judged yet (a verdict
# that holds is None).
UNJUDGED = object()


@dataclass(slots=True)
class LoadState:
    """One committed load vector, loads[i] / 2**exp, and what was derived
    from it: `phi` (the potential), `gap` (the max gap) and `integrality`
    (the check's witness), each unset until first derived.  `loads` is made
    a tuple of what it is given (the very tuple, if it is one), so what is
    derived from it stays true; its loads and exponent are never reassigned."""

    mode: str
    loads: tuple
    exp: int = 0
    phi: object = field(default=None, compare=False, repr=False)
    gap: object = field(default=None, compare=False, repr=False)
    integrality: object = field(default=UNJUDGED, compare=False, repr=False)

    def __post_init__(self):
        self.loads = tuple(self.loads)


def total_load(loads) -> object:
    """Exact total, in the scale of the loads given."""
    return sum(loads)


def to_scaled(values) -> tuple[list[int], int]:
    """Ints and dyadic Fractions as numerators over their largest exponent.

    Raises ValueError for a value whose denominator is not a power of two."""
    exps = []
    for w in values:
        den = w.denominator
        if den & (den - 1):
            raise ValueError(f"{w} has no finite binary expansion")
        exps.append(den.bit_length() - 1)
    exp = max(exps, default=0)
    return [w.numerator << (exp - e) for w, e in zip(values, exps)], exp


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
    Fractions on a 2**-granularity_bits grid, for continuous-mode scenarios.
    """
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    if granularity_bits == 0:
        return [rng.randint(0, max_value) for _ in range(n)]
    scale = max_value << granularity_bits
    return [Fraction(rng.randint(0, scale), 1 << granularity_bits) for _ in range(n)]
