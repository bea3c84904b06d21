"""A mutation gate on the audit: one-token faults in ``severi/engine.py``.

Each mutant is the engine's source with one token changed inside one
function, executed as a fresh module of the ``severi`` package.  An
engine built from it goes through the real ``run_full_audit`` at
d_max 12 and, if no FAIL counts there, at 30.  A mutant must end in a
blocking FAIL (the audit exits 1), or, where it sits in code that only a
discrepancy probe runs, in a probe FAIL.  Equivalent mutants are listed
with the reason the audit cannot tell them apart, and their audit bytes
are asserted unchanged, so neither list can go stale.
"""

from __future__ import annotations

import re
import types
from pathlib import Path

import pytest

from severi import InvariantEngine
from severi import engine as engine_module
from severi.audit import CheckKind, CheckStatus, run_full_audit

SOURCE = Path(engine_module.__file__).read_text(encoding="utf-8")
BLOCKING, PROBE = "blocking", "probe"

# (id, function, token, replacement, outcome, first d_max that catches it)
MUTANTS = [
    # The recursions and the row window.
    ("n0_weight", "n0", "(3 * d1 - dd)", "(3 * d1 - dd + 1)", BLOCKING, 12),
    ("n0_middle", "n0", "dd * dd // 4", "dd * dd // 2", BLOCKING, 12),
    ("n0_public_d30", "n0", "ExactScalar(n0[d])", "ExactScalar(n0[d] + (d == 30))",
     BLOCKING, 30),
    ("n1_t_weight", "n1", "4 * s", "5 * s", BLOCKING, 12),
    ("n1_t_row", "n1", "[2:3 * m:3]", "[1:3 * m:3]", BLOCKING, 12),
    ("t_direct_weight", "t_op_direct", "(3 * d1 - 2)", "(3 * d1 - 1)", BLOCKING, 12),
    # The splitting sums.
    ("paired_fold", "_paired_sum", "row[::-1]", "row[::1]", BLOCKING, 12),
    ("nodes_row", "_splitting_values", "c2[2::3],", "c2[1::3],", BLOCKING, 12),
    ("k0_printed_sum", "_splitting_values", "- 2 * s", "- 3 * s", PROBE, 12),
    ("k0_lr", "k0", "6 * lr", "4 * lr", BLOCKING, 12),
    ("k0_printed_den", "k0_printed", "[4], 2)", "[4], 1)", PROBE, 12),
    ("omega_den", "omega", "24)", "12)", BLOCKING, 12),
    # K1 and its second path.
    ("k1num_poly", "_k1_numerator", "(d - 4)", "(d - 3)", BLOCKING, 12),
    ("k1num_n1", "_k1_numerator", "24 * self._n1[d]", "25 * self._n1[d]", BLOCKING, 12),
    ("k1num_t", "_k1_numerator", "8 * t", "7 * t", BLOCKING, 12),
    ("k1_den", "k1", ", 8)", ", 4)", BLOCKING, 12),
    ("k1c2_n1", "k1_via_c2", "self.n1(d)", "self.n0(d)", BLOCKING, 12),
    ("k1c2_omega_read", "k1_via_c2", "a, b = self.omega", "b, a = self.omega",
     BLOCKING, 12),
    ("k1c2_omega_coeff", "k1_via_c2", "(3 * d - 12) * a", "(3 * d - 13) * a",
     BLOCKING, 12),
    ("k1c2_t_sign", "k1_via_c2", "+ t)", "- t)", BLOCKING, 12),
    ("k1c2_den", "k1_via_c2", "* a, b)", "* a, 2 * b)", BLOCKING, 12),
    # The genera.
    ("g0_two_m", "g0", "_splitting_values(d)[0]", "_splitting_values(d)[2]",
     BLOCKING, 12),
    ("g0_const", "g0", "(two_m - 2)", "(two_m - 1)", BLOCKING, 12),
    ("g0_den", "g0", "2 * b)", "b)", BLOCKING, 12),
    ("g0s_const", "g0_from_splitting_sum", "(two_m - 2)", "(two_m + 2)", BLOCKING, 12),
    ("g0s_k0_read", "g0_from_splitting_sum", "a, b = self.k0", "b, a = self.k0",
     BLOCKING, 12),
    ("g1_den", "g1", ", 48)", ", 24)", BLOCKING, 12),
    ("g1num_k1", "_g1_numerator", "3 * k1", "2 * k1", BLOCKING, 12),
    ("g1num_n1", "_g1_numerator", "108 *", "107 *", BLOCKING, 12),
    ("g1num_poly", "_g1_numerator", "(3 * d - 4)", "(3 * d - 5)", BLOCKING, 12),
    ("g1num_t", "_g1_numerator", "12 * self._t[d]", "11 * self._t[d]", BLOCKING, 12),
    ("g1num_const", "_g1_numerator", "+ 48", "+ 47", BLOCKING, 12),
    # The ramification residual, which only its probe runs.
    ("res_const", "ramification_residual", "g1 - 48", "g1 - 47", PROBE, 12),
    ("res_k1", "ramification_residual", "3 * k1", "2 * k1", PROBE, 12),
    ("res_n1", "ramification_residual", "108 *", "109 *", PROBE, 12),
    ("res_t", "ramification_residual", "12 * self._t[d]", "13 * self._t[d]", PROBE, 12),
    ("res_omega_coeff", "ramification_residual", "(9 - 3 * d)", "(8 - 3 * d)",
     PROBE, 12),
    ("res_omega_read", "ramification_residual", "a, b = self.omega",
     "b, a = self.omega", PROBE, 12),
    ("res_den", "ramification_residual", "24 * b", "12 * b", PROBE, 12),
]

# (id, function, token, replacement, why the audit cannot see it)
EQUIVALENT = [
    ("rcount_row", "_splitting_values", "c3[1::3],  # RCOUNT", "c3[2::3],  # RCOUNT",
     "C(3d-3, 3 d1 - 1) = C(3d-3, 3 d2 - 2), and the sum over ordered pairs "
     "is symmetric in d1 <-> d2"),
]

_FUNCTION = re.compile(r"^ *def (\w+)\(", re.MULTILINE)


def _mutant_engine(function: str, token: str, replacement: str) -> InvariantEngine:
    """An engine built from the source with ``token`` replaced in
    ``function``'s span, which must hold it exactly once."""
    starts = {m.group(1): m.start() for m in _FUNCTION.finditer(SOURCE)}
    start = starts[function]
    end = min([s for s in starts.values() if s > start] + [len(SOURCE)])
    span = SOURCE[start:end]
    assert span.count(token) == 1, (function, token)
    source = SOURCE[:start] + span.replace(token, replacement) + SOURCE[end:]
    module = types.ModuleType("severi._mutant_engine")
    module.__package__ = "severi"
    exec(compile(source, engine_module.__file__, "exec"), module.__dict__)
    return module.InvariantEngine()


def _outcome(report) -> str | None:
    if report.has_blocking_failure:
        return BLOCKING
    if any(
        check.status is CheckStatus.FAIL and check.kind is CheckKind.DISCREPANCY_PROBE
        for check in report.checks
    ):
        return PROBE
    return None


def test_the_unmutated_source_passes_the_audit():
    # The loader itself must not be what makes the mutants FAIL: the
    # identity mutant audits byte for byte as the engine does.
    report = run_full_audit(_mutant_engine("omega", "24)", "24)"), 30)
    assert report.to_text() == run_full_audit(InvariantEngine(), 30).to_text()
    assert report.summary["FAIL"] == 0


@pytest.mark.parametrize(
    "function, token, replacement, expected, caught_at",
    [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS],
)
def test_the_audit_catches_the_mutant(function, token, replacement, expected, caught_at):
    for d_max in (12, 30):
        engine = _mutant_engine(function, token, replacement)
        outcome = _outcome(run_full_audit(engine, d_max))
        if outcome is not None:
            break
    assert (outcome, d_max) == (expected, caught_at)


@pytest.mark.parametrize(
    "function, token, replacement, reason",
    [m[1:] for m in EQUIVALENT], ids=[m[0] for m in EQUIVALENT],
)
def test_an_equivalent_mutant_leaves_the_audit_bytes_unchanged(
    function, token, replacement, reason
):
    for d_max in (12, 30):
        mutant = run_full_audit(_mutant_engine(function, token, replacement), d_max)
        original = run_full_audit(InvariantEngine(), d_max)
        assert mutant.to_text() == original.to_text(), reason
        assert mutant.to_json() == original.to_json(), reason
