"""Exactness tests for the dyadic number type, checked against Fraction,
and for the one decimal parser that reads amounts in (`config`'s): the
text `decimal_text` renders parses back to the same `Fraction`."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynbal import dyadic
from dynbal.config import ConfigError, _decimal_fraction
from dynbal.dyadic import Dyadic, decimal_text, integral_half_sum
from dynbal.io import render_amount


def parse(text, what="tau"):
    """Parse as config reads tau and explicit loads: dyadic values only."""
    return _decimal_fraction(text, what, dyadic=True)


def dyadics(max_num=10**6, max_exp=16):
    return st.builds(
        Dyadic,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=0, max_value=max_exp),
    )


# ----------------------------------------------------------------------
# canonical form
# ----------------------------------------------------------------------


def test_canonical_strips_common_twos():
    assert (Dyadic(6, 1).num, Dyadic(6, 1).exp) == (3, 0)
    assert (Dyadic(12, 2).num, Dyadic(12, 2).exp) == (3, 0)
    assert (Dyadic(12, 1).num, Dyadic(12, 1).exp) == (6, 0)
    assert (Dyadic(-12, 3).num, Dyadic(-12, 3).exp) == (-3, 1)


def test_zero_is_canonical():
    z = Dyadic(0, 9)
    assert (z.num, z.exp) == (0, 0)
    assert not z


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


@given(dyadics())
def test_canonical_form_invariant(d):
    assert d.exp == 0 or d.num % 2 == 1


# ----------------------------------------------------------------------
# half sums
# ----------------------------------------------------------------------


def test_integral_half_sum_examples():
    assert integral_half_sum(2, 9) == (5, 6)
    assert integral_half_sum(4, 4) == (4, 4)
    assert integral_half_sum(0, 3) == (1, 2)


def test_integral_half_sum_rejects_negative():
    with pytest.raises(ValueError):
        integral_half_sum(-1, 3)


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_integral_half_sum_conserves_and_orders(a, b):
    low, high = integral_half_sum(a, b)
    assert low + high == a + b
    assert 0 <= high - low <= 1


# ----------------------------------------------------------------------
# arithmetic vs the Fraction oracle
# ----------------------------------------------------------------------
# Dyadic keeps only the arithmetic its readers use: addition (summing
# reported loads).  Trials subtract and multiply on integer numerators.


@given(dyadics(), dyadics())
def test_add_sub_mul_match_fraction(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a + b).as_fraction() == fa + fb
    assert sum([a, b]).as_fraction() == fa + fb


@given(dyadics(), st.integers(-1000, 1000))
def test_mixed_int_arithmetic(a, k):
    fa = a.as_fraction()
    assert (a + k).as_fraction() == fa + k
    assert (k + a).as_fraction() == k + fa


@given(dyadics(), dyadics())
def test_ordering_matches_fraction(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)
    assert (a == b) == (fa == fb)
    assert (a >= b) == (fa >= fb)


@given(dyadics(), st.integers(-1000, 1000))
def test_ordering_against_ints(a, k):
    fa = a.as_fraction()
    assert (a < k) == (fa < k)
    assert (k < a) == (k < fa)
    assert (a == k) == (fa == k)


def test_comparison_against_fraction():
    assert Dyadic(1, 1) < Fraction(2, 3)
    assert Dyadic(3, 2) == Fraction(3, 4)
    assert Dyadic(7, 3) > Fraction(6, 7)


@given(dyadics())
def test_hash_consistent_with_int_equality(d):
    if d.exp == 0:
        assert hash(d) == hash(d.num)
    assert hash(d) == hash(Dyadic(d.num, d.exp))


# ----------------------------------------------------------------------
# decimal parsing and rendering
# ----------------------------------------------------------------------


def test_decimal_parse_examples():
    assert parse("0.375") == Fraction(3, 8)
    assert parse("5.5") == Fraction(11, 2)
    assert parse("-1.25") == Fraction(-5, 4)
    assert parse(" 2.50 ") == Fraction(5, 2)
    assert parse("7") == 7
    assert parse(7) == 7
    assert all(type(parse(text)) is Fraction for text in ("0.375", "7", 7))


def test_decimal_parse_rejects_non_dyadic():
    with pytest.raises(ConfigError, match=r"^load 2: 0\.1 has no finite binary expansion$"):
        parse("0.1", "load 2")
    # Without the dyadic rule the same text is an exact tenth.
    assert _decimal_fraction("0.1", "k") == Fraction(1, 10)


def test_decimal_parse_rejects_garbage():
    for bad in ("abc", "1/2", "1e3", "", "1.2.3", "0x10", "1.", ".5", True, None, [1]):
        with pytest.raises(ConfigError, match="tau must be an exact decimal string"):
            parse(bad)


def test_decimal_render_examples():
    assert Dyadic(1, 1).decimal_str() == "0.5"
    assert Dyadic(3, 3).decimal_str() == "0.375"
    assert Dyadic(-5, 2).decimal_str() == "-1.25"
    assert Dyadic(7).decimal_str() == "7"
    assert str(Dyadic(11, 1)) == "5.5"


@given(dyadics())
def test_decimal_roundtrip(d):
    assert parse(d.decimal_str()) == Fraction(d.num, 2**d.exp)


def reference_decimal(num: int, exp: int) -> str:
    """The int formula: digits of |num| * 5**exp with the point exp places in.

    Its int-to-str conversion is subject to Python's digit limit; callers
    lift the limit around it with `unlimited_int_digits`.
    """
    if exp == 0:
        return str(num)
    digits = str(abs(num) * 5**exp).rjust(exp + 1, "0")
    head, tail = digits[:-exp], digits[-exp:].rstrip("0")
    sign = "-" if num < 0 else ""
    return f"{sign}{head}.{tail}" if tail else f"{sign}{head}"


def unlimited_reference(pairs) -> list[str]:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [reference_decimal(num, exp) for num, exp in pairs]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "num, exp",
    [(1, 7000), (-(3 << 9000 | 1), 9000), (-(1 << 20000), 0), (7 << 15000 | 1, 0)],
    ids=["one-over-2^7000", "negative-over-2^9000", "negative-int", "positive-int"],
)
def test_decimal_render_past_int_digit_limit(num, exp):
    # Each text is longer than the default limit of 4300 digits for int
    # to str conversion.
    (expected,) = unlimited_reference([(num, exp)])
    assert len(expected) > sys.int_info.default_max_str_digits
    assert Dyadic(num, exp).decimal_str() == expected
    assert render_amount(Dyadic(num, exp)) == expected
    if exp == 0:
        assert render_amount(num) == expected
    # The text parses back exactly, past the limit int(str) would enforce.
    assert parse(expected) == Fraction(num, 2**exp)


@st.composite
def render_walks(draw, max_exp=6000):
    """(num, exp) pairs whose exponents step by a few bits, jump, or repeat.

    Steps reach the power cache's stepping path, jumps its full power, and
    repeats the text memo.
    """
    pairs = []
    exp = draw(st.integers(0, max_exp))
    for _ in range(draw(st.integers(1, 12))):
        move = draw(st.sampled_from(("step", "jump", "repeat")))
        if move == "repeat" and pairs:
            pairs.append(draw(st.sampled_from(pairs)))
            continue
        if move == "step":
            exp = min(max(exp + draw(st.integers(-3, 9)), 0), max_exp)
        else:
            exp = draw(st.integers(0, max_exp))
        bound = 1 << draw(st.integers(0, exp + 64))
        pairs.append((draw(st.integers(-bound, bound)), exp))
    return pairs


@settings(max_examples=150, deadline=None)
@given(render_walks())
def test_decimal_render_matches_int_formula(pairs):
    canonical = [(Dyadic(num, exp).num, Dyadic(num, exp).exp) for num, exp in pairs]
    expected = unlimited_reference(canonical)
    for (num, exp), text in zip(pairs, expected):
        d = Dyadic(num, exp)
        assert d.decimal_str() == text
        assert decimal_text(num, exp) == text
        assert parse(text) == Fraction(num, 2**exp)


def test_decimal_text_keys_its_text_cache_in_canonical_form():
    # The trace writer hands d_r over one bit finer than the loads, so a
    # d_r equal to a max_gap must reach the cache as the same key.
    dyadic._render.cache_clear()
    assert decimal_text(3, 1) == "1.5"
    assert decimal_text(12, 3) == decimal_text(3 << 40, 41) == "1.5"
    info = dyadic._render.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    assert decimal_text(-8, 2) == "-2" and decimal_text(0, 5) == "0"


def test_decimal_parse_rejects_floats():
    # A JSON 0.5 is already rounded to binary; amounts must be strings.
    for what in ("tau", "k"):
        with pytest.raises(ConfigError, match=f"{what} must be an exact decimal string, got 0.5"):
            _decimal_fraction(0.5, what, dyadic=what == "tau")
