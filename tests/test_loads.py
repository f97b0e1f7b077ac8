"""Load totals, the shared-exponent helpers and the initial-load generators."""

from random import Random

import pytest

from dynbal.dyadic import Dyadic
from dynbal.loads import (
    LoadState,
    line_ramp,
    renormalise,
    single_source,
    to_dyadics,
    to_scaled,
    total_load,
    uniform_random,
)


def test_total_load_examples():
    assert total_load([1, 2, 3]) == 6
    assert total_load([]) == 0
    assert total_load([Dyadic(1, 1), Dyadic(1, 1)]) == 1
    assert total_load(LoadState("integral", [4, 4]).loads) == 8


def test_scaled_roundtrip_and_renormalise():
    values = [Dyadic(3, 2), Dyadic(1, 1), Dyadic(5)]
    nums, exp = to_scaled(values)
    assert (nums, exp) == ([3, 2, 20], 2)
    assert to_dyadics(nums, exp) == values
    assert renormalise([4, 8, 12], 3) == ([1, 2, 3], 1)
    assert renormalise([6, 2], 1) == ([3, 1], 0)
    assert renormalise([3, 2], 4) == ([3, 2], 4)
    assert renormalise([0, 0], 5) == ([0, 0], 0)


def test_line_ramp():
    assert line_ramp(4) == [1, 2, 3, 4]
    assert line_ramp(1) == [1]


def test_single_source():
    assert single_source(4, 64) == [64, 0, 0, 0]
    with pytest.raises(ValueError):
        single_source(3, -1)


def test_uniform_random_integers():
    draws = uniform_random(100, 8, Random(1))
    assert all(isinstance(w, int) and 0 <= w <= 8 for w in draws)
    assert len(set(draws)) > 1


def test_uniform_random_dyadic_grid():
    draws = uniform_random(50, 4, Random(2), granularity_bits=3)
    assert all(isinstance(w, Dyadic) for w in draws)
    assert all(0 <= w <= 4 for w in draws)
    assert any(not w.is_integer for w in draws)


def test_uniform_random_is_seed_deterministic():
    assert uniform_random(10, 9, Random(7)) == uniform_random(10, 9, Random(7))
