from __future__ import annotations

from fractions import Fraction
from math import comb

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from severi.exact import (
    ExactScalar,
    LinearWeight,
    WEIGHT_3D1_MINUS_2,
    WEIGHT_D1,
    WEIGHT_ONE,
    binom,
    format_exact,
    is_integral,
    parse_exact,
)


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (7, 1, 7),
        (5, -1, 0),
        (11, 2, 55),
        (2, 2, 1),  # boundary case hit by the degree-2 recursion step
        (0, 0, 1),
        (-1, 0, 0),
        (-3, -2, 0),
        (4, 5, 0),
    ],
)
def test_binom_values_and_out_of_range_convention(n, k, expected):
    assert binom(n, k) == expected


def test_binom_pascal_symmetry_and_integrality_up_to_60():
    # Pascal needs n >= 1: at n = 0 both row -1 terms are 0 by the
    # out-of-range convention while C(0,0) = 1.
    for n in range(61):
        for k in range(n + 1):
            value = binom(n, k)
            if n >= 1:
                assert value == binom(n - 1, k - 1) + binom(n - 1, k)
            assert value == binom(n, n - k)
            assert is_integral(value) and value >= 0
            assert value == comb(n, k)


def test_binom_returns_exact_scalar():
    assert isinstance(binom(10, 4), ExactScalar)


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


@given(a=rationals, b=rationals, c=rationals)
def test_field_axioms_on_random_sample(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(p=st.integers(-10**6, 10**6), q=st.integers(1, 10**4), g=st.integers(1, 999))
def test_normalization_is_idempotent(p, q, g):
    x = ExactScalar(p * g, q * g)
    assert x == ExactScalar(p, q)
    assert x.denominator >= 1
    from math import gcd

    assert gcd(x.numerator, x.denominator) == 1


@pytest.mark.parametrize(
    "a,b,d1,expected",
    [(3, -2, 1, 1), (0, 1, 7, 1), (9, -2, 2, 16)],
)
def test_eval_weight_examples(a, b, d1, expected):
    assert LinearWeight(a, b)(d1) == expected


def test_weight_scaling_and_composition():
    for d1 in range(1, 20):
        assert WEIGHT_3D1_MINUS_2(d1) == 3 * WEIGHT_D1(d1) - 2 * WEIGHT_ONE(d1)
    assert WEIGHT_3D1_MINUS_2(4) == 10


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(24), "24"),
        (Fraction(-60), "-60"),
        (Fraction(5, 4), "5/4"),
        (Fraction(-9, 2), "-9/2"),
        (Fraction(0), "0"),
    ],
)
def test_format_parse_round_trip(value, text):
    assert format_exact(value) == text
    assert parse_exact(text) == value


def test_round_trip_beyond_the_int_str_digit_limit():
    # 5001 digits: above Python's default 4300-digit conversion limit,
    # which N0 passes at d = 572.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    big = 7 * 10**5000 + 1
    for value in (Fraction(big), Fraction(-big, 3)):
        text = format_exact(value)
        assert len(text.split("/")[0].lstrip("-")) == 5001
        assert parse_exact(text) == value
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
