"""Anchor comparisons, cross-formula identity checks, integrality scans,
and known-discrepancy probes.

The probes deserve a word: two closed forms in circulation are
numerically inconsistent with values that are anchored independently
(the degree-3 rational cusp count 24, and the genus identities that the
two-path checks confirm).  The audit's job is to compute exactly what
those forms say and keep the disagreement reproducible -- a probe FAILs
only if the recorded discrepancy drifts or silently vanishes, which
would mean the evaluator no longer matches the form it is supposed to
evaluate.  Reports are deterministic: same engine version and degree
range, byte-identical body.  ``AuditReport.to_json`` writes the JSON
document directly from a template of its fixed schema, byte-identical to
``json.dumps(..., indent=2)`` of the same report as nested dicts.
"""

from __future__ import annotations

from enum import Enum
from operator import mul
from typing import Iterator, NamedTuple, TextIO

from ._version import __version__
from .exact import (
    ExactScalar, InexactDivision, emit, exact_div, format_exact, is_integral,
    json_exact, json_string, pascal_step,
)
from .engine import InvariantEngine, InvariantKind, _check_degree


class CheckKind(str, Enum):
    ANCHOR = "ANCHOR"
    IDENTITY = "IDENTITY"
    INTEGRALITY = "INTEGRALITY"
    DISCREPANCY_PROBE = "DISCREPANCY_PROBE"


class CheckStatus(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INFO = "INFO"


class AuditCheck(NamedTuple):
    """One comparison: id code, degree, kind, expected/actual, status."""

    id: str
    degree: int
    kind: CheckKind
    actual: ExactScalar
    expected: ExactScalar | None = None
    status: CheckStatus = CheckStatus.PASS
    detail: str | None = None


class AuditReport:
    """Ordered check list plus summary; rendering is canonical."""

    def __init__(self, d_max: int, checks: list[AuditCheck]) -> None:
        if not checks:
            raise ValueError("an audit report must contain at least one check")
        self.d_max = d_max
        self.checks = checks
        self.engine_version = __version__

    @property
    def summary(self) -> dict[str, int]:
        statuses = [check.status for check in self.checks]
        return {status.value: statuses.count(status) for status in CheckStatus}

    @property
    def has_blocking_failure(self) -> bool:
        """True if any ANCHOR, IDENTITY or INTEGRALITY check failed (drives
        exit 1).  Only N0, N1, K0, K1 and G0, the counts that must be
        integral, have INTEGRALITY checks that can fail; a discrepancy
        probe's FAIL never blocks."""
        return any(
            check.status is CheckStatus.FAIL
            and check.kind in (CheckKind.ANCHOR, CheckKind.IDENTITY, CheckKind.INTEGRALITY)
            for check in self.checks
        )

    def to_json(self, out: TextIO | None = None) -> str | None:
        """The report as a JSON document, newline included: the bytes that
        ``json.dumps(..., indent=2)`` writes for it as nested dicts.  Returned
        if ``out`` is None, else written to the text stream ``out`` in
        batches of about 64 KiB (``exact.emit``)."""
        return emit(self._json_pieces(), out)

    def _json_pieces(self) -> Iterator[str]:
        """The document in pieces, its values and enum names formatted as
        ``_text_lines`` formats them."""
        yield (
            f'{{\n  "engine_version": {json_string(self.engine_version)},\n'
            f'  "d_max": {self.d_max},\n  "checks": [\n'
        )
        kinds = {kind: kind.value for kind in CheckKind}
        statuses = {status: status.value for status in CheckStatus}
        separator = ""
        for id_, degree, kind, actual, expected, status, detail in self.checks:
            text, same = json_exact(actual), expected is not None and expected == actual
            yield (
                f'{separator}    {{\n      "id": {json_string(id_)},\n'
                f'      "degree": {degree},\n'
                f'      "kind": "{kinds[kind]}",\n'
                f'      "expected": {text if same else json_exact(expected)},\n'
                f'      "actual": {text},\n'
                f'      "status": "{statuses[status]}",\n'
                f'      "detail": {json_string(detail)}\n'
                "    }"
            )
            separator = ",\n"
        summary = ",\n".join(f'    "{key}": {n}' for key, n in self.summary.items())
        yield f'\n  ],\n  "summary": {{\n{summary}\n  }}\n}}\n'

    def to_text(self, out: TextIO | None = None) -> str | None:
        """The report as text, a line per check; returned or written as by
        ``to_json``."""
        return emit(self._text_lines(), out)

    def _text_lines(self) -> Iterator[str]:
        """The report in lines.  A value is formatted once where expected
        equals actual, decided by comparing the two, never by the status.
        The enum names are read once per render, each (status, kind) prefix
        built from the members' values: ``format`` of a str-mixin enum
        changed in 3.12."""
        yield f"severi audit (engine {self.engine_version}, degrees up to {self.d_max})"
        yield "\n\n"
        prefixes = {
            (status, kind): f"[{status.value}] {kind.value:<17} d="
            for status in CheckStatus for kind in CheckKind
        }
        for id_, degree, kind, actual, expected, status, detail in self.checks:
            text = format_exact(actual)
            line = f"{prefixes[status, kind]}{degree:<3} {id_:<28} actual={text}"
            if expected is not None:
                line += " expected=" + (text if expected == actual else format_exact(expected))
            if detail:
                line += f" ({detail})"
            yield line + "\n"
        counts = self.summary
        yield (
            f"\nsummary: {counts['PASS']} PASS, {counts['FAIL']} FAIL, "
            f"{counts['INFO']} INFO\n"
        )


def _compared(
    check_id: str, d: int, kind: CheckKind, expected: ExactScalar, actual: ExactScalar
) -> AuditCheck:
    """A check that passes if and only if the two values are equal."""
    status = CheckStatus.PASS if actual == expected else CheckStatus.FAIL
    return AuditCheck(check_id, d, kind, actual, expected, status)


# Anchor table: the classical degree-3 cusp count plus the hand-derived
# low-degree values the engine must reproduce exactly.  The floor-diagram
# counter in tests/floor_diagrams.py reproduces N0(1..5) and N1(3..5) by a
# method that shares no formula with the engine.
_ANCHORS: tuple[tuple[InvariantKind, int, int], ...] = (
    (InvariantKind.N0, 1, 1),
    (InvariantKind.N0, 2, 1),
    (InvariantKind.N0, 3, 12),
    (InvariantKind.N0, 4, 620),
    (InvariantKind.N0, 5, 87304),
    (InvariantKind.N1, 3, 1),
    (InvariantKind.N1, 4, 225),
    (InvariantKind.N1, 5, 87192),
    (InvariantKind.K0, 3, 24),
    (InvariantKind.K1, 3, 0),
    (InvariantKind.K1, 4, 840),
    (InvariantKind.G0, 3, 3),
    (InvariantKind.G1, 4, 576),
)

# Recorded discrepancy artifacts.  The closed-form cusp count evaluates
# to -60 at degree 3 against the anchor 24; the ramification-identity
# residual is nonzero at every degree.  Values were frozen from an
# independent straight-line evaluation of the respective forms.
RECORDED_K0_PRINTED_D3 = ExactScalar(-60)
RECORDED_RAMIFICATION_RESIDUALS: dict[int, ExactScalar] = {
    4: ExactScalar(2015, 2),
    5: ExactScalar(349216),
    6: ExactScalar(208311060),
    7: ExactScalar(200981112640),
    8: ExactScalar(295875803724200),
    9: ExactScalar(633268756795852800),
    10: ExactScalar(1894364316632897685120),
    11: ExactScalar(7667723864947258454073600),
    12: ExactScalar(40879222502403733748761507200),
}


def run_anchor_suite(
    engine: InvariantEngine, d_max: int, checks: list[AuditCheck]
) -> None:
    """Compare engine outputs against the anchor table, filtered to
    anchors of degree <= d_max.  Any mismatch is a FAIL.  Like every
    suite, it appends each check to ``checks`` as soon as it is made, and
    trusts ``d_max``: :func:`run_full_audit` checks it and owns the list."""
    for kind, d, expected in _ANCHORS:
        if d <= d_max:
            checks.append(_compared(
                f"anchor_{kind.value.lower()}_d{d}", d, CheckKind.ANCHOR,
                ExactScalar(expected), engine.value(kind, d),
            ))


# The integrality scan's check ids, in this order: the final counts N0,
# N1, K0, K1 and G0, where a non-integral value FAILs, then G1, OMEGA
# and M, whose integrality is only reported, as INFO.
_MUST_BE_INTEGRAL = tuple(f"integrality_{kind}" for kind in ("n0", "n1", "k0", "k1", "g0"))
_INTEGRALITY_REPORTED = tuple(f"integrality_{kind}" for kind in ("g1", "omega", "m"))


def _t_direct(u: list[int], b: list[int], d: int, row: list[int]) -> int:
    """T(d) = sum (3 d1 - 2) d1 d2 C(3d-1, 3 d1 - 1) N0(d1) N1(d2), summed
    term by term over the ordered pairs, as the paper prints it: a term is
    C(3d-1, 3 d1 - 1) u(d1) b(d2), with ``row`` C(3d-1, .) and the audit's
    own lists u(k) = (3k - 2) k N0(k) and b(k) = k N1(k) below d.  The
    engine's T is read back from its stored N1 by recursion (1), 4 T =
    36 N1 - 3 C(d,3) N0 (see ``InvariantEngine.t_op``), and the N1 loop
    sums T by a different formula over different binomials: the ratio
    rule moves it onto the engine's pair row, the half row C(3d-2,
    3 d1 - 1) with the middle pair at half weight, where it is folded onto
    the unordered pairs and divided by 3 (see ``InvariantEngine.n1``).  So
    the two paths share neither a binomial nor a formula's text, nor the
    code that builds their rows: the engine builds its pair row by exact
    ratios, and only the audit calls ``exact.pascal_step``, which builds a
    row by Pascal's rule."""
    return sum(map(mul, map(mul, row[2:3 * d - 3:3], u[1:d]), b[d - 1:0:-1]))


def _k1_via_c2(n1: ExactScalar, omega: ExactScalar, t: int, d: int) -> ExactScalar:
    """Second path for ``k1``, from the Chern-class identity
    K1 + 12 omega + T(1) = 3 N1 + 3 d omega + 3 T(d1) - T(1), where T(u)
    is the splitting convolution weighted by u:

        K1 = 3 N1 + (3d - 12) omega + T(3 d1 - 2),

    with ``n1`` and ``omega`` the engine's public values at d and ``t`` the
    direct T(d).  ``engine.k1`` evaluates 12 (N1 - omega), the paper's K1
    with T eliminated by the recursion 36 N1 = 3 C(d,3) N0 + 4 T, which
    is 9 N1 = 3d omega + T.  So the two paths agree if and only if the
    direct T satisfies that recursion with the engine's N1: the
    ``k1_two_path`` check audits the recursion of N1 on the engine's
    stored N1 against the audit's own T through K1's form, as
    ``t_linearity`` does through ``t_op``'s form, and a wrong omega reaches
    it through this path."""
    a, b = omega.as_integer_ratio()
    return ExactScalar((3 * n1.numerator + t) * b + (3 * d - 12) * a, b)


def _splitting_sums(
    a: list[int], d: int, rows: list[list[int]]
) -> tuple[int, int, int, int]:
    """(2m, 2 NODES, RCOUNT, LR) at degree d: the sums over ordered pairs
    d1 + d2 = d of w d1 d2 C(n, 3 d1 - k) N0(d1) N0(d2), with (n, k, w) =
    (3d-4, 2, 1), (3d-2, 1, 1), (3d-3, 2, 1) and (3d-3, 2, d2), from the
    audit's list a(k) = k N0(k) below d and ``rows``, C(3d-4, .) ..
    C(3d-1, .).  (d1, d2) and (d2, d1) share one pair product, the
    binomial of (d2, d1) read at 3 d1 by C(n, j) = C(n, n - j); a middle
    pair d1 = d2 counts once."""
    r4, r3, r2 = rows[:3]
    two_m = two_nodes = rcount = lr = 0
    for d1 in range(1, d // 2 + 1):
        d2, k, mirror = d - d1, 3 * d1, 2 * d1 < d
        p, twice = a[d1] * a[d2], 1 + mirror
        two_m += twice * r4[k - 2] * p
        two_nodes += twice * r2[k - 1] * p
        rcount += (r3[k - 2] + mirror * r3[k - 1]) * p
        lr += (d2 * r3[k - 2] + mirror * d1 * r3[k - 1]) * p
    return two_m, two_nodes, rcount, lr


def _g0_from_splitting_sum(
    n0: ExactScalar, sums: tuple[int, int, int, int], d: int
) -> ExactScalar:
    """Second path for ``g0``, (K0 - 2m + 2) / 2 with the paper's assembly
    K0 = 3 N0 - 3 d m + 3 LR - RCOUNT - NODES over ``sums``, the direct
    (2m, 2 NODES, RCOUNT, LR), and ``n0``, the engine's public N0(d).  The
    engine evaluates it over its own NODES, the moment s_1 of its pair
    row, and 2m and LR, read from NODES by their closed forms: the two
    paths share N0 and the formula's text, but no intermediate value."""
    two_m, two_nodes, rcount, lr = sums
    two_k0 = 6 * n0.numerator - 3 * d * two_m + 6 * lr - 2 * rcount - two_nodes
    return ExactScalar(two_k0 - 2 * two_m + 4, 4)


def run_identity_suite(
    engine: InvariantEngine, d_max: int, checks: list[AuditCheck]
) -> None:
    """Two-path equalities, the component-count identity, the engine's T
    against a direct sum, and integrality scans, for 3 <= d <= d_max.

    Each public value of a degree is read once, through the engine's
    public methods, and serves every check of that degree: ``engine.n1``
    first, which fills the engine to d.  The second paths read only those
    values and the suite's own lists a(k) = k N0(k), u(k) = (3k - 2) a(k)
    and b(k) = k N1(k), one entry per degree from 1 on, appended once the
    degree's checks are made, so they hold the degrees below d.  The
    suite's Pascal rows are one chain carried across degrees: it starts
    at the empty row C(-1, .), three ``pascal_step`` calls extend it to
    C(3d-1, .) at each degree, and only the last four rows, C(3d-4, .) ..
    C(3d-1, .), are kept, so each row is built once, by additions only.
    The chain's reach is counted in steps, not read from a row's length,
    so a step that builds rows too long fails a check.  The direct T and
    the four direct splitting sums are computed once per degree over
    them.  The T feeds ``t_linearity``, against the T that ``engine.t_op``
    reads back from the stored N1 by recursion (1), and ``k1_two_path``,
    which compares the engine's K1 = 12 (N1 - omega) with 3 N1 +
    (3d - 12) omega + T over the direct T.  Both check recursion (1) on
    the engine's N1, each through its own form: a wrong stored N1 fails
    both, a fault in ``t_op``'s form ``t_linearity`` alone, and one in
    K1's form or omega ``k1_two_path``.
    ``rcount_equals_nodes`` compares the engine's NODES, the moment s_1
    that it sums over its pair row, with the audit's direct RCOUNT, the
    count of reducible fibres summed over its own Pascal row C(3d-3, .):
    for d >= 2 the two are equal, and they share the public N0 and no
    intermediate value.
    ``g0_two_path`` compares ``engine.g0``, from the paper's assembly of
    K0 over the engine's NODES, 2m and LR, with the same assembly over
    the direct sums.  The engine reads 2m and LR from its NODES by their
    closed forms, and K0 reads LR through ``engine.lr``, so this is also
    the check of 2m and of the public LR.  Appends to ``checks`` and
    trusts ``d_max``, as :func:`run_anchor_suite` does."""
    a, u, b, rows = [0], [0], [0], [[]]
    for d in range(1, d_max + 1):
        for _ in range(3):  # to C(3d-4, .) .. C(3d-1, .)
            rows = [*rows[-3:], pascal_step(rows[-1])]
        n1, n0 = engine.n1(d), engine.n0(d)
        if d > 2:
            k1, k0, g0, g1 = engine.k1(d), engine.k0(d), engine.g0(d), engine.g1(d)
            omega, m, t = engine.omega(d), engine.m_invariant(d), engine.t_op(d)
            nodes = engine.reducible_fibre_count(d)
            direct, sums = _t_direct(u, b, d, rows[3]), _splitting_sums(a, d, rows)
            for check_id, one, other in (
                ("k1_two_path", k1, _k1_via_c2(n1, omega, direct, d)),
                ("rcount_equals_nodes", nodes, ExactScalar(sums[2])),
                ("g0_two_path", g0, _g0_from_splitting_sum(n0, sums, d)),
                ("t_linearity", t, ExactScalar(direct)),
            ):
                checks.append(_compared(check_id, d, CheckKind.IDENTITY, one, other))
            for check_id, value in zip(_MUST_BE_INTEGRAL, (n0, n1, k0, k1, g0)):
                status = CheckStatus.PASS if is_integral(value) else CheckStatus.FAIL
                checks.append(
                    AuditCheck(check_id, d, CheckKind.INTEGRALITY, value, None, status))
            for check_id, value in zip(_INTEGRALITY_REPORTED, (g1, omega, m)):
                detail = "integral" if is_integral(value) else "non-integral"
                checks.append(AuditCheck(
                    check_id, d, CheckKind.INTEGRALITY, value, None, CheckStatus.INFO, detail
                ))
        a.append(d * n0.numerator)
        u.append((3 * d - 2) * a[d])
        b.append(d * n1.numerator)


def _probe(
    check_id: str, d: int, actual: ExactScalar, recorded: ExactScalar | None,
    detail: str,
) -> AuditCheck:
    """A discrepancy probe: FAIL if the value drifted from the recorded
    one, or, with none recorded, if it vanished; INFO otherwise.  Beyond
    the recorded range only a vanishing value is suspicious: the probe
    certifies that the inconsistency exists."""
    drifted = actual == 0 if recorded is None else actual != recorded
    status = CheckStatus.FAIL if drifted else CheckStatus.INFO
    return AuditCheck(
        check_id, d, CheckKind.DISCREPANCY_PROBE, actual, recorded, status, detail
    )


def _ramification_residual(engine: InvariantEngine, d: int) -> ExactScalar:
    """Residual of the candidate ramification identity

        2 g1 - 2 - K1  =?  (1/2)((3d - 9) omega - 9 N1 + T(3 d1 - 2)),

    under the "9" reading of its ambiguous middle coefficient, as printed,
    from the engine's public values.  With omega = (d-1)(d-2)/24 N0, the
    engine's forms of G1 and K1, each the paper's with T or N1 eliminated
    by the recursion of N1, give 2 (2 g1 - 2 - K1) = (3d - 8) omega.  The
    recursion, T - 9 N1 = -3d omega, makes the right side -(9/2) omega, so
    the residual is (3d + 1) omega / 2 (2015/2 at d = 4).

    The identity is evaluated in ints, as 48 times the residual over 48:
    g1 and K1 are scaled by 48, and omega, N1 and T, which the identity
    halves, by 24, each exactly (a public value whose denominator does
    not divide its scale is an ``InexactDivision``, as a corrupted engine's
    division is)."""
    g1, k1, omega, n1, t = (
        exact_div(scale * x.numerator, x.denominator, d) for scale, x in (
            (48, engine.g1(d)), (48, engine.k1(d)), (24, engine.omega(d)),
            (24, engine.n1(d)), (24, engine.t_op(d)),
        )
    )
    return ExactScalar(2 * g1 - 2 * 48 - k1 - ((3 * d - 9) * omega - 9 * n1 + t), 48)


def run_discrepancy_probes(
    engine: InvariantEngine, d_max: int, checks: list[AuditCheck]
) -> None:
    """Reproduce the two documented inconsistencies.

    Probes report INFO while the discrepancy reproduces exactly; they
    FAIL only on evaluator drift (a changed or vanished value), never
    because the inconsistency itself is present.  Appends to ``checks``
    and trusts ``d_max``, as :func:`run_anchor_suite` does."""
    checks.append(_probe(
        "k0_printed_vs_anchor", 3, engine.k0_printed(3), RECORDED_K0_PRINTED_D3,
        "closed form disagrees with assembly anchor 24",
    ))
    for d in range(4, d_max + 1):
        recorded = RECORDED_RAMIFICATION_RESIDUALS.get(d)
        if recorded is not None:
            detail = "nonzero residual reproduces recorded value"
        else:
            detail = "nonzero residual (no recorded value at this degree)"
        checks.append(_probe(
            "ramification_residual", d, _ramification_residual(engine, d),
            recorded, detail,
        ))


def run_full_audit(engine: InvariantEngine, d_max: int) -> AuditReport:
    """The audit's one entry point: it refuses a d_max below 3 or above the
    ceiling before any work, then runs the three suites in canonical order
    on the one check list it owns, as a single report.  An exact division
    with a remainder (a corrupted engine) ends the audit: every check made
    before the raise is kept, then one IDENTITY FAIL at that degree."""
    _check_degree(d_max)
    if d_max < 3:
        raise ValueError(f"audit requires d_max >= 3, got {d_max!r}")
    checks: list[AuditCheck] = []
    try:
        for suite in (run_anchor_suite, run_identity_suite, run_discrepancy_probes):
            suite(engine, d_max, checks)
    except InexactDivision as exc:
        checks.append(AuditCheck(
            id="exact_division", degree=exc.degree, kind=CheckKind.IDENTITY,
            actual=exc.quotient, status=CheckStatus.FAIL, detail=str(exc),
        ))
    return AuditReport(d_max=d_max, checks=checks)


__all__ = [
    "AuditCheck",
    "AuditReport",
    "CheckKind",
    "CheckStatus",
    "RECORDED_RAMIFICATION_RESIDUALS",
    "RECORDED_K0_PRINTED_D3",
    "run_full_audit",
]
