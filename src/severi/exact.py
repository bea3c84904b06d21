"""Exact scalar arithmetic, binomial coefficients, and affine weights.

Every quantity in this package is an arbitrary-precision rational
(``fractions.Fraction``): always in lowest terms, denominator positive,
value-equality semantics, no rounding anywhere.  ``ExactScalar`` is the
name the rest of the code uses for that value type.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import comb

ExactScalar = Fraction

ZERO = ExactScalar(0)


def binom(n: int, k: int) -> ExactScalar:
    """Binomial coefficient C(n, k) with the zero convention.

    Returns 0 whenever k < 0, n < 0, or k > n, so that every splitting
    sum in the engine is total even at degenerate small degrees (no
    point-distributions exist there).
    """
    if n < 0 or k < 0 or k > n:
        return ZERO
    return ExactScalar(comb(n, k))


def is_integral(x: ExactScalar) -> bool:
    return x.denominator == 1


@contextmanager
def _unlimited_int_digits():
    """Lift Python's int<->str digit limit (3.11+) for the enclosed block:
    N0 passes the default 4300 digits at d = 572."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def format_exact(x: ExactScalar) -> str:
    """Render exactly: plain decimal for integers, ``p/q`` otherwise."""
    with _unlimited_int_digits():
        return str(x)


def parse_exact(text: str) -> ExactScalar:
    """Parse the output of :func:`format_exact` (also accepts ``p/q``)."""
    with _unlimited_int_digits():
        return ExactScalar(text)


@dataclass(frozen=True)
class LinearWeight:
    """Integer-affine weight u(d1) = a*d1 + b.

    Affine weights are all the T-operator ever needs (the weights in
    actual use are 3*d1-2, d1, and 1), and restricting to them makes
    linearity a finitely checkable property.
    """

    a: int
    b: int

    def __call__(self, d1: int) -> ExactScalar:
        return ExactScalar(self.a * d1 + self.b)


# Weights used by the invariant formulas and the audit suites.
WEIGHT_D1 = LinearWeight(1, 0)
WEIGHT_ONE = LinearWeight(0, 1)
WEIGHT_3D1_MINUS_2 = LinearWeight(3, -2)
