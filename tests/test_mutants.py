"""A mutation gate on the audit: one-token faults in ``severi/engine.py``,
``severi/exact.py`` and ``severi/audit.py``.

Each mutant is a module's source with one token changed inside one
function, executed as a fresh module of the ``severi`` package.  An
``exact`` mutant stands in for ``severi.exact`` in ``sys.modules`` while
fresh engine and audit modules are executed, so it reaches the engine's
divisions and the audit's own Pascal steps (the engine takes none), but
not the real modules.  An engine built from an ``engine`` mutant goes
through the real ``run_full_audit``; an ``audit`` mutant's own
``run_full_audit`` audits a real engine, and an ``exact`` mutant's fresh
audit module audits an engine of its fresh engine module.  Each runs at d_max 12
and, if no FAIL counts there, at 30.  A mutant must end in a blocking
FAIL (the audit exits 1), or, where it sits in code that only a
discrepancy probe runs, in a probe FAIL, or, where it breaks the audit's
own indexing, in an exception that ``run_full_audit`` does not report
as a check (the CLI exits 3).
Equivalent mutants are listed with the reason the audit cannot tell them
apart, and their audit bytes are asserted unchanged, so neither list can
go stale.  Audit-blind mutants change a public accessor that no audit
check compares with anything: their audit bytes are asserted unchanged
but for INFO rows, and the retyped oracle is asserted to tell them
apart.  Two are blind.  ``m_den``: the public M reaches only the INFO
row of its integrality, as G0 reads 2m from the triple of ``n0``'s loop.
``k0_printed_s0_i``: only the ``k0_printed_vs_anchor`` probe reads
K0_PRINTED, at d = 3, where the pair row has the one entry i = 1, so a
fault of the bracket's s_0 that vanishes there leaves the audit bytes
as they are.  Every
function of the three modules is named by some mutant or listed in
``UNMUTATED`` with the tests that pin it instead, so a new function
cannot escape the gate.
"""

from __future__ import annotations

import re
import sys
import types
from pathlib import Path

import pytest

import oracle
from severi import InvariantEngine
from severi import audit as audit_module
from severi import engine as engine_module
from severi import exact as exact_module
from severi.audit import CheckStatus, run_full_audit

MODULES = {"engine": engine_module, "exact": exact_module, "audit": audit_module}
SOURCES = {
    name: Path(module.__file__).read_text(encoding="utf-8")
    for name, module in MODULES.items()
}
BLOCKING, PROBE, RAISES = "blocking", "probe", "raises"

# (id, function, token, replacement, outcome, first d_max that catches it)
MUTANTS = [
    # The recursions over the half row: N0 from the moments s_1 and s_2 of
    # its pair products, each constant, and its divisor.
    ("n0_slope", "n0", "(3 * dd + 6) * s2", "(3 * dd + 5) * s2", BLOCKING, 12),
    ("n0_const", "n0", "2 * dd * dd", "3 * dd * dd", BLOCKING, 12),
    ("n0_div", "n0", "(3 * dd - 2), dd)", "(3 * dd - 1), dd)", BLOCKING, 12),
    ("n0_public_d30", "n0", "ExactScalar(n0[d])", "ExactScalar(n0[d] + (d == 30))",
     BLOCKING, 30),
    ("n1_t_weight", "n1", "4 * s", "5 * s", BLOCKING, 12),
    ("n1_comb", "n1", "3 * comb(dd, 3)", "39 * comb(dd, 3)", BLOCKING, 12),
    # T folded onto the unordered pairs over the pair row: the row's order,
    # each side of a pair's two products, and the ratio rule's factor.
    ("n1_t_row", "n1", "self._row(dd), pairs", "self._row(dd)[::-1], pairs",
     BLOCKING, 12),
    ("n1_t_mirror", "n1", "n1[1:h + 1]", "n1[0:h]", BLOCKING, 12),
    ("n1_t_pair", "n1", "u[1:h + 1]", "u[0:h]", BLOCKING, 12),
    ("n1_t_ratio", "n1", "(3 * dd - 1)", "(3 * dd - 2)", BLOCKING, 12),
    # T read back from the stored N1 by recursion (1): the N1 it reads,
    # and the binomial of the N0 term.
    ("t_op_read", "t_op", "36 * self._n1[d]", "36 * self._n1[d - 1]", BLOCKING, 12),
    ("t_op_comb", "t_op", "3 * comb(d, 3)", "3 * comb(d, 2)", BLOCKING, 12),
    # The pair row: the extension's factor (numerator and denominator),
    # its start C(n, 2), and the middle pair's halving, which every sum
    # over the row reads, and the parity that picks the degrees it halves.
    ("row_extend_num", "_row", "(n - k - 2))", "(n - k - 3))", BLOCKING, 12),
    ("row_extend_den", "_row", "(k + 3))", "(k + 4))", BLOCKING, 12),
    ("row_start", "_row", "n * (n - 1) // 2", "n * (n + 1) // 2", BLOCKING, 12),
    ("row_middle", "_row", "row[-1] //= 2", "row[-1] //= 1", BLOCKING, 12),
    ("row_middle_parity", "_row", "if d % 2 == 0:", "if d % 2 == 1:", BLOCKING, 12),
    # The scaled count list u = (3d-2) d N0, once from d = 20 on.
    ("list_u_d20", "n0", "dd * n)", "(dd + (dd == 20)) * n)", BLOCKING, 30),
    ("list_u", "n0", "(3 * dd - 2) * dd * n", "(3 * dd - 1) * dd * n", BLOCKING, 12),
    # N0's pair products, and their moments: the d1 d2 weight of s_1 and
    # s_2, and the second weight of s_2.
    ("pair_products", "n0", "n0[1:h + 1]", "n0[0:h]", BLOCKING, 12),
    ("m_weight", "n0", "i * (dd - i)", "i * (dd - i + 1)", BLOCKING, 12),
    ("n0_s2_weight", "n0", "s2 += w * q", "s2 += q", BLOCKING, 12),
    # The triple (NODES, 2m, B) that n0's loop stores: NODES is s_1, 2m is
    # read from it, the K0_PRINTED bracket from s_0 and s_1.  The 18 N0
    # term and the divisor of 2m, and s_0, the bracket's constants and its
    # divisor; then the assembly of K0_PRINTED.  A fault of s_0 that
    # breaks 3 | d s_0 makes the bracket's exact division raise in n0's
    # loop, so N0 itself fails; one that keeps it reaches K0_PRINTED only.
    ("m_n0", "n0", "18 * n", "17 * n", BLOCKING, 12),
    ("m_div", "n0", "3 * dd + 6, dd)", "3 * dd + 5, dd)", BLOCKING, 12),
    ("n0_s0", "n0", "s0 += q", "s0 += w", BLOCKING, 12),
    ("k0_printed_weight", "n0", "3 * (3 * dd + 2)", "3 * (3 * dd + 1)", PROBE, 12),
    ("k0_printed_s0", "n0", "(3 * dd - 1) * s0", "(3 * dd - 2) * s0", PROBE, 12),
    ("k0_printed_pair_den", "n0", "* s0, 3, dd)", "* s0, 1, dd)", PROBE, 12),
    ("k0_printed_sum", "k0_printed", "- 2 * bracket", "- 3 * bracket", PROBE, 12),
    ("k0_printed_den", "k0_printed", "two_m, 2)", "two_m, 1)", PROBE, 12),
    # The read of the triple, the reads of NODES, and LR's form in NODES
    # and N0: each coefficient, and the divisor.  K0 reads LR through the
    # public lr.
    ("moments_read", "_moments", "self._sums[d]", "self._sums[d - 1]", BLOCKING, 12),
    ("nodes_read", "reducible_fibre_count", "_moments(d)[0]", "_moments(d)[1]",
     BLOCKING, 12),
    ("lr_read", "lr", "_moments(d)[0]", "_moments(d)[1]", BLOCKING, 12),
    ("lr_nodes", "lr", "d * nodes", "(d + 1) * nodes", BLOCKING, 12),
    ("lr_n0", "lr", "6 * (d - 1)", "5 * (d - 1)", BLOCKING, 12),
    ("lr_div", "lr", "d + 2, d)", "d + 3, d)", BLOCKING, 12),
    # The paper's K0 assembly: each coefficient, and the halving.
    ("k0_n0", "k0", "6 * self._n0[d]", "5 * self._n0[d]", BLOCKING, 12),
    ("k0_m", "k0", "3 * d * two_m", "4 * d * two_m", BLOCKING, 12),
    ("k0_lr", "k0", "6 * lr", "5 * lr", BLOCKING, 12),
    ("k0_nodes", "k0", "4 * nodes", "5 * nodes", BLOCKING, 12),
    ("k0_div", "k0", "two_k0, 2, d)", "two_k0, 1, d)", BLOCKING, 12),
    ("omega_den", "omega", "24)", "12)", BLOCKING, 12),
    # K1 = 12 (N1 - omega): the N1 coefficient, the binomial C(d-1, 2)
    # (its top, its bottom), and the sign of the N0 term.
    ("k1_n1", "k1", "12 * self._n1[d]", "13 * self._n1[d]", BLOCKING, 12),
    ("k1_poly", "k1", "comb(d - 1, 2)", "comb(d - 2, 2)", BLOCKING, 12),
    ("k1_comb", "k1", "comb(d - 1, 2)", "comb(d - 1, 3)", BLOCKING, 12),
    ("k1_n0_sign", "k1", "- comb(d - 1, 2)", "+ comb(d - 1, 2)", BLOCKING, 12),
    # A stored N1 wrong at the audit's top degree only: k1_two_path
    # compares K1, which reads it, with the recursion over the direct T.
    ("n1_stored_d30", "n1", "36, dd))", "36, dd) + (dd == 30))", BLOCKING, 30),
    # The genera.
    ("g0_two_m", "g0", "self._moments(d)[1]", "self._moments(d + 1)[1]", BLOCKING, 12),
    ("g0_const", "g0", "two_m + 2,", "two_m + 1,", BLOCKING, 12),
    ("g0_den", "g0", ", 2)", ", 1)", BLOCKING, 12),
    ("g1_den", "g1", ", 96)", ", 48)", BLOCKING, 12),
    ("g1num_poly", "g1", "(11 * d - 32)", "(11 * d - 31)", BLOCKING, 12),
    ("g1num_t", "g1", "64 * t", "63 * t", BLOCKING, 12),
    ("g1num_const", "g1", "+ 96", "+ 95", BLOCKING, 12),
]

# The same, in severi/exact.py: the audit's Pascal step, the engine's
# exact division, and the audit's integrality test.
EXACT_MUTANTS = [
    ("step_seed", "pascal_step", "[1, *map", "[2, *map", BLOCKING, 12),
    ("step_add", "pascal_step", "map(add,", "map(max,", BLOCKING, 12),
    ("step_shift", "pascal_step", "row[1:", "row[0:", BLOCKING, 12),
    ("step_mirror", "pascal_step", "[1 - len(row) % 2:]", "[len(row) % 2:]",
     BLOCKING, 12),
    # A fault first made at d = 14, in the step from C(39, .) to C(40, .):
    # every entry from C(40, 2) on is wrong.  The audit carries its rows
    # across degrees, so a wrong row reaches every later one: even a
    # fault of the leading 1 of C(40, .), which no direct sum at d = 14
    # reads, blocks from d = 15 on.
    ("step_len40", "pascal_step", "[1, *map(add, row,",
     "[1, *map(add, row[:len(row) == 40] + row,", BLOCKING, 30),
    ("div_guard", "exact_div", "if remainder:", "if not remainder:", BLOCKING, 12),
    ("div_quotient", "exact_div", "return quotient", "return quotient + 1",
     BLOCKING, 12),
    ("div_numerator", "exact_div", "divmod(n, m)", "divmod(n + 1, m)", BLOCKING, 12),
    ("integral_test", "is_integral", "== 1", "== 2", BLOCKING, 12),
]

# The same, in severi/audit.py: the second paths of the two-path checks
# and the public values run_identity_suite feeds them, the audit's rows,
# the direct splitting sums (a row or a weight of each) and their
# assembly, the lists k N0(k), (3k - 2) k N0(k) and k N1(k) that
# run_identity_suite builds from the engine's public values, and the
# ramification probe's identity.
AUDIT_MUTANTS = [
    ("t_direct_weight", "run_identity_suite", "(3 * d - 2) * a[d]", "(3 * d - 1) * a[d]",
     BLOCKING, 12),
    ("t_direct_row", "_t_direct", "row[2:", "row[1:", BLOCKING, 12),
    # The chain of rows: seeded one row high, it keeps C(3d-3, .) ..
    # C(3d, .); with a fourth step per degree it drifts one row higher
    # at each degree; with a fifth row kept, the direct sums read rows one
    # lower.  Then the rows that the direct T and the splitting sums read.
    ("rows_seed", "run_identity_suite", "[0], [0], [0], [[]]", "[0], [0], [0], [[1]]",
     BLOCKING, 12),
    ("rows_step", "run_identity_suite", "range(3)", "range(4)", BLOCKING, 12),
    ("rows_window", "run_identity_suite", "rows[-3:]", "rows[-4:]", BLOCKING, 12),
    ("rows_t_read", "run_identity_suite", "d, rows[3])", "d, rows[2])", BLOCKING, 12),
    ("rows_sums_read", "run_identity_suite", "_splitting_sums(a, d, rows)",
     "_splitting_sums(a, d, rows[1:])", BLOCKING, 12),
    # Each step from the chain's first row: the rows stay shorter than
    # C(3d-4, .) .. C(3d-1, .), and the direct sums index past their end.
    ("rows_step_first", "run_identity_suite", "pascal_step(rows[-1])",
     "pascal_step(rows[0])", RAISES, 12),
    ("k1c2_n1", "run_identity_suite", "_k1_via_c2(n1,", "_k1_via_c2(n0,", BLOCKING, 12),
    ("k1c2_omega_read", "_k1_via_c2", "a, b = omega", "b, a = omega", BLOCKING, 12),
    ("k1c2_omega_coeff", "_k1_via_c2", "(3 * d - 12) * a", "(3 * d - 13) * a",
     BLOCKING, 12),
    ("k1c2_t_sign", "_k1_via_c2", "+ t)", "- t)", BLOCKING, 12),
    ("k1c2_den", "_k1_via_c2", "* a, b)", "* a, 2 * b)", BLOCKING, 12),
    ("sums_m_row", "_splitting_sums", "r4[k - 2]", "r4[k - 1]", BLOCKING, 12),
    ("sums_nodes_row", "_splitting_sums", "r2[k - 1]", "r2[k - 2]", BLOCKING, 12),
    ("sums_rcount_row", "_splitting_sums", "rcount += (r3[k - 2]",
     "rcount += (r3[k - 3]", BLOCKING, 12),
    ("sums_lr_weight", "_splitting_sums", "d2 * r3", "d1 * r3", BLOCKING, 12),
    ("sums_lr_mirror", "_splitting_sums", "mirror * d1 * r3", "mirror * d2 * r3",
     BLOCKING, 12),
    ("sums_middle", "_splitting_sums", "2 * d1 < d", "2 * d1 <= d", BLOCKING, 12),
    ("sums_pair", "_splitting_sums", "a[d1] * a[d2]", "a[d1] * a[d1]", BLOCKING, 12),
    ("g0s_n0_read", "run_identity_suite", "_g0_from_splitting_sum(n0,",
     "_g0_from_splitting_sum(n1,", BLOCKING, 12),
    ("g0s_m", "_g0_from_splitting_sum", "3 * d * two_m", "3 * (d - 1) * two_m",
     BLOCKING, 12),
    ("g0s_lr", "_g0_from_splitting_sum", "6 * lr", "5 * lr", BLOCKING, 12),
    ("g0s_rcount", "_g0_from_splitting_sum", "2 * rcount", "3 * rcount", BLOCKING, 12),
    ("g0s_nodes", "_g0_from_splitting_sum", "- two_nodes", "- 2 * two_nodes",
     BLOCKING, 12),
    ("g0s_const", "_g0_from_splitting_sum", "+ 4, 4)", "+ 2, 4)", BLOCKING, 12),
    ("rcount_vs_nodes_sum", "run_identity_suite", "ExactScalar(sums[2])",
     "ExactScalar(sums[1])", BLOCKING, 12),
    ("lists_start", "run_identity_suite", "a, u, b, rows = [0], [0], [0],",
     "a, u, b, rows = [0], [0], [0, 0],", BLOCKING, 12),
    ("lists_n0", "run_identity_suite", "a.append(d * n0", "a.append(d * n1", BLOCKING, 12),
    ("lists_n1", "run_identity_suite", "b.append(d * n1", "b.append(d * n0", BLOCKING, 12),
    # The ramification residual, which only its probe runs.
    ("res_g1", "_ramification_residual", "2 * g1", "3 * g1", PROBE, 12),
    ("res_const", "_ramification_residual", "- 2 * 48 - k1", "- 1 * 48 - k1", PROBE, 12),
    ("res_k1", "_ramification_residual", "- k1 -", "+ k1 -", PROBE, 12),
    ("res_omega_coeff", "_ramification_residual", "(3 * d - 9)", "(3 * d - 8)",
     PROBE, 12),
    ("res_omega_read", "_ramification_residual", "engine.omega(d)", "engine.n0(d)",
     PROBE, 12),
    ("res_n1", "_ramification_residual", "9 * n1", "8 * n1", PROBE, 12),
    ("res_t", "_ramification_residual", "+ t)", "- t)", PROBE, 12),
    ("res_den", "_ramification_residual", "(24, engine.t_op(d))", "(48, engine.t_op(d))",
     PROBE, 12),
    ("res_scale", "_ramification_residual", "t), 48)", "t), 96)", PROBE, 12),
]

# (id, function, token, replacement, why the audit cannot see it)
ENGINE_EQUIVALENT = [
    ("row_always", "_row", "if at != d:", "if True:",
     "the half row is built again at each read, into the same ints"),
    # The working-set rule: the T products held in a list.
    ("products_list", "n1", "self._row(dd), pairs)", "self._row(dd), [*pairs])",
     "the same ints; the working-set test pins it"),
]
EXACT_EQUIVALENT = [
    ("div_guard_one", "exact_div", "if remainder:", "if remainder > 1:",
     "on a correct engine every division is exact, so a guard that lets a "
     "remainder of 1 through changes nothing"),
]
AUDIT_EQUIVALENT = [
    ("lists_ahead", "_t_direct", "u[1:d]", "u[1:]",
     "the lists hold the degrees below d only, as run_identity_suite appends "
     "a degree's entries after its checks, so the slice to their end stops at d"),
    ("sums_m_mirror", "_splitting_sums", "r4[k - 2]", "r4[3 * d2 - 2]",
     "C(3d-4, 3 d2 - 2) = C(3d-4, 3 d1 - 2) since d1 + d2 = d"),
]

# (id, function, token, replacement, ids of the checks whose rows change,
# accessor): faults that reach only a public accessor that no audit check
# compares with anything, so no audit check can fail on them; only INFO
# rows may change.  The golden and live-oracle tests in
# tests/test_invariants.py pin their values.
AUDIT_BLIND = [
    ("m_den", "m_invariant", "_moments(d)[1], 2)", "_moments(d)[1], 1)",
     ("integrality_m",), "m_invariant"),
    ("k0_printed_s0_i", "n0", "s0 += q", "s0 += i * q", (), "k0_printed"),
]

# (module, function, why no mutant above names it): with the lists above,
# every function of the three modules, so that a new one joins the gate
# or says here why not.
UNMUTATED = [
    ("engine", "__init__", "its seeds: the golden values at d = 1 and "
     "TestClosedForms' test of the d = 1 seed pin them"),
    ("engine", "_check_degree", "the degree refusal tests pin it"),
    ("engine", "domain_status", "no check reads it; the domain tests pin it"),
    ("engine", "_domain_status", "no check reads it; the domain tests pin it, "
     "through domain_status and evaluate"),
    ("engine", "value", "the kind dispatcher; the golden tests pin each kind"),
    ("engine", "evaluate", "no check reads it; the domain tests pin it"),
    ("exact", "__init__", "InexactDivision's fields; TestCorruptedEngine pins them"),
    ("exact", "format_exact", "text conversion; the round-trip tests pin it, past "
     "the digit limit the 5001-digit round trip, the no-limit test and the N0 572 digest"),
    ("exact", "parse_exact", "text conversion; the round-trip tests pin it, past "
     "the digit limit the 5001-digit round trip, the no-limit test and the N0 572 digest"),
    ("exact", "json_exact", "rendering; its json.dumps property test and the "
     "audit and table digests pin it"),
    ("exact", "json_string", "rendering; its json.dumps property test pins it"),
    ("exact", "emit", "rendering; the streaming tests pin it"),
    ("audit", "__init__", "AuditReport's fields; TestReport pins them"),
    ("audit", "summary", "rendering; TestReport and the audit digests pin it"),
    ("audit", "has_blocking_failure", "the gate reads it to tell an outcome"),
    ("audit", "to_json", "rendering; the audit digests pin it"),
    ("audit", "_json_pieces", "rendering; the audit digests pin it"),
    ("audit", "to_text", "rendering; the audit digests pin it"),
    ("audit", "_text_lines", "rendering; the audit digests pin it"),
    ("audit", "_compared", "a check's status; TestAnchorSuite's mismatch test pins it"),
    ("audit", "_probe", "a probe's status; TestDiscrepancyProbes pins it"),
    ("audit", "run_anchor_suite", "which anchors run; TestAnchorSuite pins it"),
    ("audit", "run_discrepancy_probes", "which probes run; TestDiscrepancyProbes "
     "pins it"),
    ("audit", "run_full_audit", "the entry point; the d_max refusal tests and "
     "TestCorruptedEngine pin it"),
]

_FUNCTION = re.compile(r"^ *def (\w+)\(", re.MULTILINE)


def _module(name: str, mutation: tuple[str, str, str] | None = None):
    """A fresh module from ``name``'s source, with ``token`` replaced in
    ``function``'s span (which must hold it exactly once) if a mutation
    ``(function, token, replacement)`` is given."""
    source = SOURCES[name]
    if mutation is not None:
        function, token, replacement = mutation
        starts = {m.group(1): m.start() for m in _FUNCTION.finditer(source)}
        assert function in starts, f"severi/{name}.py has no function {function!r}"
        start = starts[function]
        end = min([s for s in starts.values() if s > start] + [len(source)])
        span = source[start:end]
        assert span.count(token) == 1, (function, token)
        source = source[:start] + span.replace(token, replacement) + source[end:]
    module = types.ModuleType(f"severi._mutant_{name}")
    module.__package__ = "severi"
    exec(compile(source, MODULES[name].__file__, "exec"), module.__dict__)
    return module


def _mutant_engine(function: str, token: str, replacement: str) -> InvariantEngine:
    """An engine with one mutation in its module."""
    return _module("engine", (function, token, replacement)).InvariantEngine()


def _exact_bound(function: str, token: str, replacement: str):
    """Fresh engine and audit modules, executed with one mutation of
    ``exact`` standing in for ``severi.exact``."""
    exact = _module("exact", (function, token, replacement))
    # One exception class, so that the audit still catches a failed
    # division that the mutant raises.
    exact.InexactDivision = exact_module.InexactDivision
    saved = sys.modules["severi.exact"]
    sys.modules["severi.exact"] = exact
    try:
        return _module("engine"), _module("audit")
    finally:
        sys.modules["severi.exact"] = saved


def _mutant_audit(function: str, token: str, replacement: str, name: str,
                  d_max: int):
    """A full audit at ``d_max`` with one mutation in module ``name``, and
    the audit module that made it: the real ``run_full_audit`` on an engine
    built from an engine mutant, an audit mutant's own ``run_full_audit``
    on a real engine, or, for an exact mutant, the fresh audit module's on
    an engine of the fresh engine module."""
    if name == "audit":
        audit = _module("audit", (function, token, replacement))
        return audit.run_full_audit(InvariantEngine(), d_max), audit
    if name == "exact":
        engine, audit = _exact_bound(function, token, replacement)
        return audit.run_full_audit(engine.InvariantEngine(), d_max), audit
    engine = _mutant_engine(function, token, replacement)
    return run_full_audit(engine, d_max), audit_module


def _outcome_at(function: str, token: str, replacement: str, name: str,
                d_max: int) -> str | None:
    """The mutant's outcome at ``d_max``: RAISES if the audit raises (at
    the CLI, exit 3; ``run_full_audit`` reports an ``InexactDivision`` as
    a check, so that one never reaches here), else ``_outcome`` of its
    report."""
    try:
        made = _mutant_audit(function, token, replacement, name, d_max)
    except Exception:
        return RAISES
    return _outcome(*made)


def _outcome(report, audit) -> str | None:
    """BLOCKING, PROBE or None, read with ``audit``'s own enums: a mutated
    audit module has classes of its own."""
    if report.has_blocking_failure:
        return BLOCKING
    if any(
        check.status is audit.CheckStatus.FAIL
        and check.kind is audit.CheckKind.DISCREPANCY_PROBE
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


def test_the_unmutated_exact_source_passes_the_audit():
    report, audit = _mutant_audit(
        "exact_div", "return quotient", "return quotient", "exact", 30
    )
    assert report.to_text() == run_full_audit(InvariantEngine(), 30).to_text()
    assert report.summary["FAIL"] == 0 and _outcome(report, audit) is None


def test_the_unmutated_audit_source_audits_like_the_module():
    report, audit = _mutant_audit(
        "_t_direct", "u[1:d]", "u[1:d]", "audit", 30
    )
    original = run_full_audit(InvariantEngine(), 30)
    assert audit is not audit_module and sys.modules["severi.audit"] is audit_module
    assert (report.to_text(), report.to_json()) == (original.to_text(), original.to_json())
    assert report.summary["FAIL"] == 0 and _outcome(report, audit) is None


def test_an_exact_mutant_reaches_the_fresh_engine_and_audit_and_nothing_else():
    # The mutant makes N0(2) = 2, so 2m of the same degree, divided in the
    # same loop, is not integral: a fresh engine's first degree raises.
    engine, _ = _exact_bound("exact_div", "return quotient", "return quotient + 1")
    with pytest.raises(exact_module.InexactDivision) as raised:
        engine.InvariantEngine().n0(3)
    assert raised.value.degree == 2
    assert InvariantEngine().n0(3) == 12
    _, audit = _exact_bound("pascal_step", "[1, *map", "[2, *map")
    assert audit.pascal_step([1]) != exact_module.pascal_step([1])
    assert sys.modules["severi.exact"] is exact_module
    assert audit_module.pascal_step is exact_module.pascal_step


_MUTANT_CASES = [
    (name, *m[1:])
    for name, mutants in (
        ("engine", MUTANTS), ("exact", EXACT_MUTANTS), ("audit", AUDIT_MUTANTS)
    )
    for m in mutants
]


@pytest.mark.parametrize(
    "name, function, token, replacement, expected, caught_at", _MUTANT_CASES,
    ids=[m[0] for m in MUTANTS + EXACT_MUTANTS + AUDIT_MUTANTS],
)
def test_the_audit_catches_the_mutant(
    name, function, token, replacement, expected, caught_at
):
    for d_max in (12, 30):
        outcome = _outcome_at(function, token, replacement, name, d_max)
        if outcome is not None:
            break
    assert (outcome, d_max) == (expected, caught_at)


@pytest.mark.parametrize(
    "name, function, token, replacement, reason",
    [("engine", *m[1:]) for m in ENGINE_EQUIVALENT]
    + [("exact", *m[1:]) for m in EXACT_EQUIVALENT]
    + [("audit", *m[1:]) for m in AUDIT_EQUIVALENT],
    ids=[m[0] for m in ENGINE_EQUIVALENT + EXACT_EQUIVALENT + AUDIT_EQUIVALENT],
)
def test_an_equivalent_mutant_leaves_the_audit_bytes_unchanged(
    name, function, token, replacement, reason
):
    for d_max in (12, 30):
        mutant, _ = _mutant_audit(function, token, replacement, name, d_max)
        original = run_full_audit(InvariantEngine(), d_max)
        assert mutant.to_text() == original.to_text(), reason
        assert mutant.to_json() == original.to_json(), reason


@pytest.mark.parametrize(
    "function, token, replacement, changed, accessor", [m[1:] for m in AUDIT_BLIND],
    ids=[m[0] for m in AUDIT_BLIND],
)
def test_an_audit_blind_mutant_is_caught_by_the_oracle_only(
    function, token, replacement, changed, accessor
):
    engine = _mutant_engine(function, token, replacement)
    mutant = run_full_audit(engine, 30)
    original = run_full_audit(InvariantEngine(), 30)
    assert mutant.summary["FAIL"] == 0
    assert len(mutant.checks) == len(original.checks)
    rows = [(m, o) for m, o in zip(mutant.checks, original.checks) if m != o]
    assert sorted({m.id for m, _ in rows}) == sorted(changed)
    assert all(m.status is o.status is CheckStatus.INFO for m, o in rows)
    if not changed:
        assert (mutant.to_text(), mutant.to_json()) == (original.to_text(), original.to_json())
    value, reference = getattr(engine, accessor), getattr(oracle, accessor)
    assert any(value(d) != reference(d) for d in range(1, 13))


def test_every_function_is_named_by_a_mutant_or_listed_as_unmutated():
    functions = {
        (name, function) for name, source in SOURCES.items()
        for function in _FUNCTION.findall(source)
    }
    mutated = {
        (name, m[1]) for name, mutants in (
            ("engine", MUTANTS + ENGINE_EQUIVALENT + AUDIT_BLIND),
            ("exact", EXACT_MUTANTS + EXACT_EQUIVALENT),
            ("audit", AUDIT_MUTANTS + AUDIT_EQUIVALENT),
        ) for m in mutants
    }
    unmutated = [(name, function) for name, function, _ in UNMUTATED]
    assert len(set(unmutated)) == len(unmutated)
    assert sorted(functions - mutated) == sorted(unmutated)
