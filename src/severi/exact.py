"""Exact scalar arithmetic, exact integer division, and binomial rows.

Every value this package returns is an arbitrary-precision rational
(``fractions.Fraction``): always in lowest terms, denominator positive,
value-equality semantics, no rounding anywhere.  ``ExactScalar`` is the
name the rest of the code uses for that value type.  Internally the
engine's recursions and splitting sums run on plain ``int`` and convert
to ``ExactScalar`` only where a value can be fractional.

Binomial rows come two ways: ``pascal_row`` builds C(n, .) by a
multiplicative recurrence, and ``pascal_step`` derives C(n + 1, .) from
C(n, .) by additions only.  Both compute the first half of a row and
mirror it, so the mirrored half shares its ints with the first; callers
see only full rows.  The engine steps its row window with additions and
seeds it with ``pascal_row`` only after a non-sequential query; the
audit's direct T sum builds every row with ``pascal_row``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import add
from typing import Iterable, TextIO

ExactScalar = Fraction


class InexactDivision(ArithmeticError):
    """n / m left a remainder at ``degree``; ``quotient`` is the exact n / m."""

    def __init__(self, n: int, m: int, degree: int) -> None:
        super().__init__(f"division by {m} failed at d={degree}: remainder {n % m}")
        self.quotient, self.degree = Fraction(n, m), degree


def exact_div(n: int, m: int, degree: int) -> int:
    """The quotient n / m, which must be an integer at ``degree``.

    Raises ``InexactDivision`` (an ``ArithmeticError``) on a nonzero
    remainder (a raise, not an ``assert``, so ``python -O`` keeps it).
    """
    quotient, remainder = divmod(n, m)
    if remainder:
        raise InexactDivision(n, m, degree)
    return quotient


def is_integral(x: ExactScalar) -> bool:
    return x.denominator == 1


def pascal_row(n: int) -> list[int]:
    """The row C(n, .): one multiplicative pass over the first half, then
    mirrored by symmetry (empty if n < 0)."""
    half = [1] if n >= 0 else []
    for k in range(n // 2):
        half.append(half[-1] * (n - k) // (k + 1))
    return half + half[::-1][1 - n % 2:]


def pascal_step(row: list[int]) -> list[int]:
    """The row C(n + 1, .) from the row C(n, .): additions on the first
    half only, then mirrored by symmetry."""
    half = [1, *map(add, row, row[1:len(row) // 2 + 1])]
    return half + half[::-1][1 - len(row) % 2:]


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


def json_string(s: str | None) -> str:
    """``json.dumps(s)``: ``null`` for None, printable ASCII without ``"`` or
    ``\\`` quoted as it stands, anything else through a lazy ``json``."""
    if s is None:
        return "null"
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json
    return json.dumps(s)


BATCH_CHARS = 1 << 16


def emit(pieces: Iterable[str], out: TextIO | None) -> str | None:
    """The joined ``pieces`` if ``out`` is None, else written to the text
    stream ``out`` in batches of at least BATCH_CHARS characters (the last
    may be shorter): neither the whole text nor a write per piece."""
    if out is None:
        return "".join(pieces)
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= BATCH_CHARS:
            out.write("".join(batch))
            batch, size = [], 0
    if batch:
        out.write("".join(batch))


def parse_exact(text: str) -> ExactScalar:
    """Parse the output of :func:`format_exact` (also accepts ``p/q``)."""
    return _lift_digit_limit(ExactScalar, text)
