"""Exact dyadic rationals: integers scaled by a power of two.

Every load the balancing rules can produce is a repeated half-sum of the
integer initial loads, so values of the form num / 2**exp are closed under
all the arithmetic the simulator needs, and every comparison stays exact:
the invariant checks can demand equality and zero-tolerance inequalities
instead of floating-point slack.

Inside a trial the loads are integer numerators over one exponent shared
by the whole vector (see `dynbal.loads`), so Dyadic is the boundary type:
it parses exact decimal input (configs, initial-load generators, tau) and
renders output (trace rows, invariant witnesses, trial result amounts).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

DECIMAL_RE = re.compile(r"^[+-]?\d+(?:\.\d+)?$")

DyadicLike = Union["Dyadic", int]


class Dyadic:
    """A rational num / 2**exp held in canonical form (num odd, or exp == 0).

    Instances are immutable by convention and hash/compare by value, so a
    Dyadic equal to an integer compares and hashes like that integer.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        if num == 0:
            exp = 0
        elif exp > 0 and num % 2 == 0:
            trailing = (num & -num).bit_length() - 1
            shift = trailing if trailing < exp else exp
            num >>= shift
            exp -= shift
        self.num = num
        self.exp = exp

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_fraction(cls, value: Fraction) -> "Dyadic":
        den = value.denominator
        if den & (den - 1):
            raise ValueError(f"{value} has no finite binary expansion")
        return cls(value.numerator, den.bit_length() - 1)

    @classmethod
    def from_decimal(cls, text: Union[str, int]) -> "Dyadic":
        """Parse an exact decimal literal such as "3", "0.375" or "-1.5".

        Raises ValueError for literals that are not dyadic (e.g. "0.1").
        """
        if isinstance(text, int):
            return cls(text)
        stripped = text.strip()
        if not DECIMAL_RE.match(stripped):
            raise ValueError(f"not a decimal literal: {text!r}")
        return cls.from_fraction(Fraction(stripped))

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    @property
    def is_integer(self) -> bool:
        return self.exp == 0

    def to_int(self) -> int:
        if self.exp:
            raise ValueError(f"{self} is not an integer")
        return self.num

    def floor(self) -> int:
        return self.num >> self.exp if self.exp else self.num

    def ceil(self) -> int:
        if self.exp == 0:
            return self.num
        return -((-self.num) >> self.exp)

    def decimal_str(self) -> str:
        """Render the exact finite decimal expansion (no rounding)."""
        if self.exp == 0:
            return str(self.num)
        digits = str(abs(self.num) * 5 ** self.exp).rjust(self.exp + 1, "0")
        head, tail = digits[: -self.exp], digits[-self.exp :].rstrip("0")
        sign = "-" if self.num < 0 else ""
        return f"{sign}{head}.{tail}" if tail else f"{sign}{head}"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def half(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    def __add__(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        elif not isinstance(other, Dyadic):
            return NotImplemented
        if self.exp >= other.exp:
            return Dyadic(self.num + (other.num << (self.exp - other.exp)), self.exp)
        return Dyadic((self.num << (other.exp - self.exp)) + other.num, other.exp)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        elif not isinstance(other, Dyadic):
            return NotImplemented
        return self + Dyadic(-other.num, other.exp)

    def __rsub__(self, other):
        if isinstance(other, int):
            return Dyadic(other) - self
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return Dyadic(self.num * other, self.exp)
        if isinstance(other, Dyadic):
            return Dyadic(self.num * other.num, self.exp + other.exp)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __abs__(self):
        return Dyadic(abs(self.num), self.exp)

    def __bool__(self):
        return self.num != 0

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------

    def _compare(self, other) -> int:
        """Return negative/zero/positive like a three-way comparison."""
        if isinstance(other, int):
            lhs, rhs = self.num, other << self.exp
        elif isinstance(other, Dyadic):
            if self.exp >= other.exp:
                lhs, rhs = self.num, other.num << (self.exp - other.exp)
            else:
                lhs, rhs = self.num << (other.exp - self.exp), other.num
        elif isinstance(other, Fraction):
            lhs = self.num * other.denominator
            rhs = other.numerator << self.exp
        else:
            return NotImplemented
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other):
        result = self._compare(other)
        return result == 0 if result is not NotImplemented else NotImplemented

    def __lt__(self, other):
        result = self._compare(other)
        return result < 0 if result is not NotImplemented else NotImplemented

    def __le__(self, other):
        result = self._compare(other)
        return result <= 0 if result is not NotImplemented else NotImplemented

    def __gt__(self, other):
        result = self._compare(other)
        return result > 0 if result is not NotImplemented else NotImplemented

    def __ge__(self, other):
        result = self._compare(other)
        return result >= 0 if result is not NotImplemented else NotImplemented

    def __hash__(self):
        return hash(self.num) if self.exp == 0 else hash(self.as_fraction())

    def __repr__(self):
        return f"Dyadic({self.num}, {self.exp})"

    def __str__(self):
        return self.decimal_str()


def as_dyadic(value: DyadicLike) -> Dyadic:
    if isinstance(value, Dyadic):
        return value
    if isinstance(value, int):
        return Dyadic(value)
    raise TypeError(f"cannot treat {value!r} as a dyadic rational")


def half_sum(a: DyadicLike, b: DyadicLike) -> Dyadic:
    """Exact (a + b) / 2, the continuous pairwise balancing step."""
    return (as_dyadic(a) + as_dyadic(b)).half()


def integral_half_sum(a: int, b: int) -> tuple[int, int]:
    """Split a + b as evenly as integers allow: the lighter side gets the floor.

    Returns the (floor, ceil) pair; the caller assigns floor to the lighter
    node.  Total load is conserved exactly.
    """
    if a < 0 or b < 0:
        raise ValueError("loads must be non-negative")
    low = (a + b) // 2
    return low, a + b - low
