"""Exact dyadic rationals: integers scaled by a power of two.

Every load the balancing rules can produce is a repeated half-sum of the
integer initial loads, so values of the form num / 2**exp are closed under
all the arithmetic the simulator needs, and every comparison stays exact:
the invariant checks can demand equality and zero-tolerance inequalities
instead of floating-point slack.

Inside a trial the loads are integer numerators over one exponent shared
by the whole vector (see `dynbal.loads`), so Dyadic is the boundary type:
it parses exact decimal input (configs, initial-load generators, tau),
compares and hashes exactly, adds (to sum a result's reported loads) and
renders output (trace rows, invariant witnesses, trial result amounts).

Rendering.  num / 2**exp equals num * 5**exp / 10**exp, so its decimal
text is the digits of num * 5**exp with a point exp places from the right.
A trace's amounts gain about one digit per halving round (thousands of
digits in long continuous runs), and CPython turns an int into decimal
text in quadratic time and refuses ints over `sys.int_info`'s digit limit
(4300 by default).  The product is therefore formed in `decimal`
(libmpdec), whose numbers are already decimal, so their text costs linear
time and has no length limit.  The context holds the largest precision
and exponent range libmpdec allows and traps `Inexact` and `Rounded`: any
rounding raises instead of changing a digit.  Two bounded caches serve the
trace's access pattern: powers of five for the last 8 exponents (a
trace's exponent moves by a few bits per round, so 5**exp is usually one
small multiply away from a cached power), and the text of the last 8
amounts rendered, keyed in canonical form (a row's d_r often equals the
max_gap of the same row or the row before).  Small integers, the common
case, skip both and use `str`.
"""

from __future__ import annotations

import decimal
import re
from fractions import Fraction
from functools import lru_cache
from typing import Union

DECIMAL_RE = re.compile(r"^[+-]?\d+(?:\.\d+)?$")

_CTX = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
        decimal.Inexact,
        decimal.Rounded,
    ],
)
_FIVE = decimal.Decimal(5)

# Direct-mapped cache of (exp, 5**exp): the slot is exp mod 8, so any 8
# consecutive exponents fit at once.  Each slot is replaced by one list
# store of an immutable pair, which needs no lock.
_POW5_SLOTS = 8
_pow5 = [(exp, decimal.Decimal(5**exp)) for exp in range(_POW5_SLOTS)]

# `str` serves ints below 2**2048 (at most 617 digits): that is under every
# digit limit `sys.set_int_max_str_digits` accepts (at least 640) and is
# where str's quadratic cost is still smaller than libmpdec's conversion.
_STR_SAFE = 1 << 2048

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
        # libmpdec parses exactly and has no digit limit, unlike int(str).
        num, den = decimal.Decimal(stripped).as_integer_ratio()
        if den & (den - 1):
            raise ValueError(f"{stripped} has no finite binary expansion")
        return cls(num, den.bit_length() - 1)

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

    def decimal_str(self) -> str:
        """Render the exact finite decimal expansion (no rounding)."""
        return decimal_text(self.num, self.exp)

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


def decimal_text(num: int, exp: int = 0) -> str:
    """Exact decimal text of num / 2**exp, of any length.

    The amount is first put in canonical form, as `Dyadic` holds it, so an
    amount given over a finer exponent shares the text cache's entry."""
    if exp and not num & 1:
        shift = (num & -num).bit_length() - 1 if num else exp
        if shift > exp:
            shift = exp
        num >>= shift
        exp -= shift
    if exp == 0 and -_STR_SAFE < num < _STR_SAFE:
        return str(num)
    return _render(num, exp)


def _power_of_five(exp: int) -> decimal.Decimal:
    slot = exp % _POW5_SLOTS
    cached_exp, power = _pow5[slot]
    if cached_exp == exp:
        return power
    # Step up from the nearest cached power below: slot - step is the slot
    # of exp - step (a negative index wraps around the list).
    for step in range(1, _POW5_SLOTS):
        near_exp, near = _pow5[slot - step]
        if near_exp == exp - step:
            power = _CTX.multiply(near, 5**step)
            break
    else:
        power = _CTX.power(_FIVE, exp)
    _pow5[slot] = (exp, power)
    return power


@lru_cache(maxsize=8)
def _render(num: int, exp: int) -> str:
    if exp == 0:
        return str(decimal.Decimal(num))
    product = _CTX.multiply(decimal.Decimal(abs(num)), _power_of_five(exp))
    digits = str(product).rjust(exp + 1, "0")
    head, tail = digits[:-exp], digits[-exp:].rstrip("0")
    sign = "-" if num < 0 else ""
    return f"{sign}{head}.{tail}" if tail else f"{sign}{head}"


def as_dyadic(value: DyadicLike) -> Dyadic:
    if isinstance(value, Dyadic):
        return value
    if isinstance(value, int):
        return Dyadic(value)
    raise TypeError(f"cannot treat {value!r} as a dyadic rational")


def integral_half_sum(a: int, b: int) -> tuple[int, int]:
    """Split a + b as evenly as integers allow: the lighter side gets the floor.

    Returns the (floor, ceil) pair; the caller assigns floor to the lighter
    node.  Total load is conserved exactly.
    """
    if a < 0 or b < 0:
        raise ValueError("loads must be non-negative")
    low = (a + b) // 2
    return low, a + b - low
