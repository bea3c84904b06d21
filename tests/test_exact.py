from __future__ import annotations

from fractions import Fraction

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
    exact_div,
    format_exact,
    parse_exact,
)


def test_exact_div_returns_the_quotient_of_a_multiple():
    assert exact_div(36 * 225, 36) == 225
    assert exact_div(-36 * 7 * 10**400, 36) == -7 * 10**400


@pytest.mark.parametrize("n", [1, 35, 37, -1, 36 * 10**400 + 18])
def test_exact_div_raises_on_a_non_multiple_of_36(n):
    with pytest.raises(ArithmeticError):
        exact_div(n, 36)


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
