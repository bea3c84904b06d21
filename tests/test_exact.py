from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from severi.exact import (
    ExactScalar,
    InexactDivision,
    exact_div,
    format_exact,
    json_exact,
    json_string,
    parse_exact,
)


def test_exact_div_returns_the_quotient_of_a_multiple():
    assert exact_div(36 * 225, 36, 4) == 225
    assert exact_div(-36 * 7 * 10**400, 36, 1) == -7 * 10**400


@pytest.mark.parametrize("n", [1, 35, 37, -1, 36 * 10**400 + 18])
def test_exact_div_raises_on_a_non_multiple_of_36(n):
    with pytest.raises(ArithmeticError):
        exact_div(n, 36, 1)


def test_inexact_division_names_the_degree_and_keeps_the_exact_quotient():
    with pytest.raises(InexactDivision) as info:
        exact_div(36 * 225 + 12, 36, 4)
    assert info.value.degree == 4
    assert info.value.quotient == Fraction(36 * 225 + 12, 36)
    assert str(info.value) == "division by 36 failed at d=4: remainder 12"


# 5001 digits, 7 * 10**5000 + 1, written without an int-to-str conversion:
# above Python's default 4300-digit limit, which N0 passes at d = 572.
PAST_LIMIT = "7" + "0" * 4999 + "1"


def test_parse_rejects_malformed_text():
    malformed = ["12/x", PAST_LIMIT + "/x", PAST_LIMIT + ".5", "--" + PAST_LIMIT,
                 PAST_LIMIT + "/"]
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(PAST_LIMIT):
        # Past the limit only format_exact's own output is read; below it
        # Fraction's grammar, which allows surrounding spaces, still holds.
        malformed.append(" " + PAST_LIMIT)
    for text in malformed:
        with pytest.raises(ValueError):
            parse_exact(text)


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
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    big = 7 * 10**5000 + 1
    for value in (Fraction(big), Fraction(-big, 3)):
        text = format_exact(value)
        assert len(text.split("/")[0].lstrip("-")) == 5001
        assert parse_exact(text) == value
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_conversion_past_the_digit_limit_leaves_the_limit_alone(monkeypatch):
    # The limit is process-wide: lifting it would switch the guard off for
    # every other thread and could overwrite a host program's own setting.
    def refuse(maxdigits):
        raise AssertionError("the process-wide digit limit was changed")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    big = 7 * 10**5000 + 1
    for value, text in ((Fraction(big), PAST_LIMIT),
                        (Fraction(-big, 3), "-" + PAST_LIMIT + "/3")):
        assert format_exact(value) == text
        assert parse_exact(text) == value


@given(st.none() | st.text())
@example("")
@example("plain 1/2")
@example('a "quote"')
@example("back\\slash")
@example("del \x7f")
@example("newline \n \u00e9 \u2028")
def test_json_string_writes_what_json_dumps_writes(s):
    assert json_string(s) == json.dumps(s)


@given(st.none() | st.fractions())
@example(Fraction(-7, 3))
def test_json_exact_writes_what_json_dumps_writes_of_format_exact(x):
    assert json_exact(x) == json.dumps(None if x is None else format_exact(x))
