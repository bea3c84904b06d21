"""Exact scalar arithmetic, exact integer division, and affine weights.

Every value this package returns is an arbitrary-precision rational
(``fractions.Fraction``): always in lowest terms, denominator positive,
value-equality semantics, no rounding anywhere.  ``ExactScalar`` is the
name the rest of the code uses for that value type.  Internally the
engine's recursions and splitting sums run on plain ``int`` and convert
to ``ExactScalar`` only where a value can be fractional.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

ExactScalar = Fraction


def exact_div(n: int, m: int) -> int:
    """The quotient n / m, which must be an integer.

    Raises ``ArithmeticError`` on a nonzero remainder (a raise, not an
    ``assert``, so that ``python -O`` keeps the check).
    """
    quotient, remainder = divmod(n, m)
    if remainder:
        raise ArithmeticError(f"not a multiple of {m} (remainder {remainder})")
    return quotient


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

    def __call__(self, d1: int) -> int:
        return self.a * d1 + self.b


# Weights used by the invariant formulas and the audit suites.
WEIGHT_D1 = LinearWeight(1, 0)
WEIGHT_ONE = LinearWeight(0, 1)
WEIGHT_3D1_MINUS_2 = LinearWeight(3, -2)
