"""Exact scalar arithmetic, exact integer division, and binomial rows.

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
from fractions import Fraction
from math import comb

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


def binomial_row(n: int, k: int, count: int) -> list[int]:
    """[C(n, 3 d1 - k) for d1 in 1..count], for n >= 0 and 0 <= k <= 3.

    One ``math.comb`` starts the row; each next entry steps three places,
    C(n, j+3) = C(n, j) (n-j)(n-j-1)(n-j-2) / ((j+1)(j+2)(j+3)), and the
    division is exact because both sides are equal by that identity.
    """
    row = [comb(n, 3 - k)] if count else []
    for j in range(3 - k, 3 * count - k - 2, 3):
        num = (n - j) * (n - j - 1) * (n - j - 2)
        row.append(row[-1] * num // ((j + 1) * (j + 2) * (j + 3)))
    return row


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

