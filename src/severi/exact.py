"""Exact scalar arithmetic, exact integer division, and binomial rows.

Every value this package returns is an arbitrary-precision rational
(``fractions.Fraction``): always in lowest terms, denominator positive,
value-equality semantics, no rounding anywhere.  ``ExactScalar`` is the
name the rest of the code uses for that value type.  Internally the
engine's recursions and splitting sums run on plain ``int`` and convert
to ``ExactScalar`` only where a value can be fractional.

Binomial rows come one way: ``pascal_step`` derives C(n + 1, .) from
C(n, .) by additions only (Pascal's rule), from the empty row C(-1, .)
on.  It computes the first half of a row and mirrors it, so the
mirrored half shares its ints with the first; callers see only full
rows.  Only the audit builds them, for its second paths: one chain of
rows carried across its degrees, each row built once.  The engine never
steps a row; it builds its own half row by exact ratios.

Text conversion never reads or changes Python's process-wide int<->str
digit limit (3.11+): a part too long for ``str`` and ``int`` is written
and read through ``Decimal``, which that limit does not bound.
"""

from __future__ import annotations

from decimal import Decimal
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


def pascal_step(row: list[int]) -> list[int]:
    """The row C(n + 1, .) from the row C(n, .): additions on the first
    half only, then mirrored by symmetry."""
    half = [1, *map(add, row, row[1:len(row) // 2 + 1])]
    return half + half[::-1][1 - len(row) % 2:]


def format_exact(x: ExactScalar) -> str:
    """Render exactly: plain decimal for integers, ``p/q`` otherwise.
    Past the digit limit (``N0`` from d = 572) each part goes through
    ``Decimal``."""
    try:
        return str(x)
    except ValueError:
        text = str(Decimal(x.numerator))
        return text if x.denominator == 1 else text + "/" + str(Decimal(x.denominator))


def json_exact(x: ExactScalar | None) -> str:
    """``json_string`` of ``format_exact``, or ``null`` for None: digits,
    ``-`` and ``/`` only, quoted as they stand."""
    return "null" if x is None else f'"{format_exact(x)}"'


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
    may be shorter): neither the whole text nor a write per piece, which on
    an unbuffered stdout (``PYTHONUNBUFFERED``, ``python -u``) is a system
    call per line, about 1,290 for ``audit --d-max 100``."""
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
    """Parse the output of :func:`format_exact` (also accepts ``p/q``).
    Past the digit limit only that output, ``-digits/digits``, is read,
    through ``Decimal``."""
    try:
        return ExactScalar(text)
    except ValueError:
        num, slash, den = text.partition("/")
        if not num.removeprefix("-").isdecimal() or slash and not den.isdecimal():
            raise
        return ExactScalar(int(Decimal(num)), int(Decimal(den or 1)))
