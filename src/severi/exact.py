"""Exact scalar arithmetic, exact integer division, and binomial rows.

Every value this package returns is an arbitrary-precision rational
(``fractions.Fraction``): always in lowest terms, denominator positive,
value-equality semantics, no rounding anywhere.  ``ExactScalar`` is the
name the rest of the code uses for that value type.  Internally the
engine's recursions and splitting sums run on plain ``int`` and convert
to ``ExactScalar`` only where a value can be fractional.

Binomials come two ways: half Pascal rows (``pascal_half``, then
addition-only ``pascal_step``) for the engine's recursions and splitting
sums, and ``binomial_row`` (a multiplicative recurrence) for the audit's
direct T sum only.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb
from operator import add

ExactScalar = Fraction


class InexactDivision(ArithmeticError):
    """n / m left a remainder at ``degree``; ``quotient`` is the exact n / m."""

    def __init__(self, n: int, m: int, degree: int | None) -> None:
        super().__init__(f"division by {m} failed at d={degree}: remainder {n % m}")
        self.quotient, self.degree = Fraction(n, m), degree


def exact_div(n: int, m: int, degree: int | None = None) -> int:
    """The quotient n / m, which must be an integer.

    Raises ``InexactDivision`` (an ``ArithmeticError``) on a nonzero
    remainder (a raise, not an ``assert``, so ``python -O`` keeps it).
    """
    quotient, remainder = divmod(n, m)
    if remainder:
        raise InexactDivision(n, m, degree)
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


def pascal_half(n: int) -> list[int]:
    """[C(n, k) for k in 0..n // 2], one multiplicative pass (empty if n < 0)."""
    row = [1] if n >= 0 else []
    for k in range(n // 2):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def pascal_step(half: list[int], n: int) -> list[int]:
    """The half row of C(n + 1, .) from that of C(n, .), by additions only."""
    row = [1, *map(add, half, half[1:])]
    if half and n % 2:
        row.append(2 * half[-1])
    return row


def pascal_full(half: list[int], n: int) -> list[int]:
    """The full row C(n, .) from its half row, by symmetry."""
    return half + half[::-1][1 - n % 2:]


def _lift_digit_limit(convert, value):
    """convert(value), retried with Python's int<->str digit limit (3.11+)
    lifted if it raises: N0 passes the default 4300 digits at d = 572."""
    try:
        return convert(value)
    except ValueError:
        if not hasattr(sys, "set_int_max_str_digits"):
            raise
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(value)
    finally:
        sys.set_int_max_str_digits(saved)


def format_exact(x: ExactScalar) -> str:
    """Render exactly: plain decimal for integers, ``p/q`` otherwise."""
    return _lift_digit_limit(str, x)


def parse_exact(text: str) -> ExactScalar:
    """Parse the output of :func:`format_exact` (also accepts ``p/q``)."""
    return _lift_digit_limit(ExactScalar, text)
