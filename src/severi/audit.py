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
from typing import Iterator, NamedTuple, TextIO

from ._version import __version__
from .exact import (
    ExactScalar, InexactDivision, emit, format_exact, is_integral, json_string,
    parse_exact,
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
        counts = {status.value: 0 for status in CheckStatus}
        for check in self.checks:
            counts[check.status.value] += 1
        return counts

    @property
    def has_blocking_failure(self) -> bool:
        """True if any ANCHOR or IDENTITY check failed (drives exit 1)."""
        return any(
            check.status is CheckStatus.FAIL
            and check.kind in (CheckKind.ANCHOR, CheckKind.IDENTITY)
            for check in self.checks
        )

    def to_json(self, out: TextIO | None = None) -> str | None:
        """The report as a JSON document, newline included: the bytes that
        ``json.dumps(..., indent=2)`` writes for it as nested dicts.  Returned
        if ``out`` is None, else written to the text stream ``out`` in
        batches of about 64 KiB (``exact.emit``)."""
        return emit(self._json_pieces(), out)

    def _json_pieces(self) -> Iterator[str]:
        yield (
            f'{{\n  "engine_version": {json_string(self.engine_version)},\n'
            f'  "d_max": {self.d_max},\n  "checks": [\n'
        )
        separator = ""
        for check in self.checks:
            yield (
                f'{separator}    {{\n      "id": {json_string(check.id)},\n'
                f'      "degree": {check.degree},\n'
                f'      "kind": "{check.kind.value}",\n'
                f'      "expected": {_json_exact(check.expected)},\n'
                f'      "actual": {_json_exact(check.actual)},\n'
                f'      "status": "{check.status.value}",\n'
                f'      "detail": {json_string(check.detail)}\n'
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
        yield f"severi audit (engine {self.engine_version}, degrees up to {self.d_max})"
        yield "\n\n"
        for check in self.checks:
            parts = [
                f"[{check.status.value}]",
                f"{check.kind.value:<17}",
                f"d={check.degree:<3}",
                f"{check.id:<28}",
                f"actual={format_exact(check.actual)}",
            ]
            if check.expected is not None:
                parts.append(f"expected={format_exact(check.expected)}")
            if check.detail:
                parts.append(f"({check.detail})")
            yield " ".join(parts) + "\n"
        counts = self.summary
        yield (
            f"\nsummary: {counts['PASS']} PASS, {counts['FAIL']} FAIL, "
            f"{counts['INFO']} INFO\n"
        )


def _json_exact(x: ExactScalar | None) -> str:
    return json_string(None if x is None else format_exact(x))


def _shared(d_max: int, checks: list[AuditCheck] | None) -> list[AuditCheck]:
    """Reject d_max below 3 or above the ceiling before any work, then
    return the list a suite appends each check to as soon as it is made:
    ``checks``, or a new list if None.  A suite that raises thus leaves
    the checks it made in a shared list."""
    _check_degree(d_max)
    if d_max < 3:
        raise ValueError(f"audit requires d_max >= 3, got {d_max!r}")
    return [] if checks is None else checks


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
    d: parse_exact(text)
    for d, text in {
        4: "2015/2",
        5: "349216",
        6: "208311060",
        7: "200981112640",
        8: "295875803724200",
        9: "633268756795852800",
        10: "1894364316632897685120",
        11: "7667723864947258454073600",
        12: "40879222502403733748761507200",
    }.items()
}


def run_anchor_suite(
    engine: InvariantEngine, d_max: int, checks: list[AuditCheck] | None = None
) -> AuditReport:
    """Compare engine outputs against the anchor table, filtered to
    anchors of degree <= d_max.  Any mismatch is a FAIL.  Like every
    suite, it appends to ``checks`` if given, and reports that list."""
    checks = _shared(d_max, checks)
    for kind, d, expected in _ANCHORS:
        if d <= d_max:
            checks.append(_compared(
                f"anchor_{kind.value.lower()}_d{d}", d, CheckKind.ANCHOR,
                ExactScalar(expected), engine.value(kind, d),
            ))
    return AuditReport(d_max=d_max, checks=checks)


# The kinds scanned for integrality, in this order: the final counts,
# where a non-integral value FAILs, then the kinds whose integrality is
# only reported, as INFO.
_MUST_BE_INTEGRAL = (
    InvariantKind.N0, InvariantKind.N1, InvariantKind.K0, InvariantKind.K1,
    InvariantKind.G0,
)
_INTEGRALITY_REPORTED = (InvariantKind.G1, InvariantKind.OMEGA, InvariantKind.M)


def run_identity_suite(
    engine: InvariantEngine, d_max: int, checks: list[AuditCheck] | None = None
) -> AuditReport:
    """Two-path equalities, the component-count identity, the stored T
    against a direct sum, and integrality scans, for 3 <= d <= d_max.

    ``t_linearity`` compares T stored by the N1 loop (``t_op``) with T
    summed term by term (``t_op_direct``).  ``k1_two_path`` compares
    ``k1`` with ``k1_via_c2``, which differ only in those two T paths and
    in two terms that are the same polynomial times N0:
    ((d-1)(d-2)(d-4)/8) N0 and (3d-12) omega, with omega =
    (d-1)(d-2)/24 N0.  So it adds only the omega closed form to what
    ``t_linearity`` checks.  The stored T takes C(3d-1, 3 d1 - 1) from
    the engine's Pascal row window, stepped by additions, and the direct
    T from a multiplicative ``exact.pascal_row`` built at every degree, so
    both checks also compare the two binomial constructions.  The window
    is seeded by ``pascal_row`` only after a non-sequential query (at
    d = 1, 2 and 3 in a full audit).  ``g0_two_path`` compares ``g0``,
    whose 2m takes C(3d-4, 3 d1 - 2) from the window, with
    ``g0_from_splitting_sum``, whose 2m walks that row in strides of
    three from C(3d-4, 1); both read the same K0."""
    checks = _shared(d_max, checks)
    pairs = (
        ("k1_two_path", engine.k1, engine.k1_via_c2),
        ("rcount_equals_nodes", engine.r_component_count, engine.reducible_fibre_count),
        ("g0_two_path", engine.g0, engine.g0_from_splitting_sum),
        ("t_linearity", engine.t_op, engine.t_op_direct),
    )
    for d in range(3, d_max + 1):
        for check_id, one, other in pairs:
            checks.append(_compared(check_id, d, CheckKind.IDENTITY, one(d), other(d)))
        for kind in _MUST_BE_INTEGRAL + _INTEGRALITY_REPORTED:
            value = engine.value(kind, d)
            integral = is_integral(value)
            if kind in _MUST_BE_INTEGRAL:
                status = CheckStatus.PASS if integral else CheckStatus.FAIL
                detail = None
            else:
                status = CheckStatus.INFO
                detail = "integral" if integral else "non-integral"
            checks.append(AuditCheck(
                id=f"integrality_{kind.value.lower()}", degree=d,
                kind=CheckKind.INTEGRALITY, actual=value,
                status=status, detail=detail,
            ))
    return AuditReport(d_max=d_max, checks=checks)


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


def run_discrepancy_probes(
    engine: InvariantEngine, d_max: int, checks: list[AuditCheck] | None = None
) -> AuditReport:
    """Reproduce the two documented inconsistencies.

    Probes report INFO while the discrepancy reproduces exactly; they
    FAIL only on evaluator drift (a changed or vanished value), never
    because the inconsistency itself is present.
    """
    checks = _shared(d_max, checks)
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
            "ramification_residual", d, engine.ramification_residual(d),
            recorded, detail,
        ))
    return AuditReport(d_max=d_max, checks=checks)


def run_full_audit(engine: InvariantEngine, d_max: int) -> AuditReport:
    """All three suites in canonical order as a single report.  An exact
    division with a remainder (a corrupted engine) ends it: the suites
    share one check list, so every check made before the raise is kept,
    then one IDENTITY FAIL at that degree."""
    checks = _shared(d_max, None)
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
    "run_anchor_suite",
    "run_discrepancy_probes",
    "run_full_audit",
    "run_identity_suite",
]
