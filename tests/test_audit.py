from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
from severi import InvariantEngine, __version__
from severi import audit as audit_module
from severi.engine import KIND_SPEC
from severi.exact import InexactDivision, format_exact
from severi.audit import (
    AuditCheck,
    AuditReport,
    CheckKind,
    CheckStatus,
    RECORDED_RAMIFICATION_RESIDUALS,
    RECORDED_K0_PRINTED_D3,
    run_anchor_suite,
    run_discrepancy_probes,
    run_full_audit,
    run_identity_suite,
)


def _appended(suite, engine, d_max):
    """The checks one suite appends to a fresh list."""
    checks = []
    suite(engine, d_max, checks)
    return checks


class TestAnchorSuite:
    def test_all_anchors_pass_at_d_max_five(self, engine):
        checks = _appended(run_anchor_suite, engine, 5)
        assert len(checks) == 13
        assert all(c.status is CheckStatus.PASS for c in checks)
        assert all(c.kind is CheckKind.ANCHOR for c in checks)

    def test_filtering_keeps_exactly_the_anchors_in_range(self, engine):
        checks = _appended(run_anchor_suite, engine, 3)
        assert {(c.id, c.degree) for c in checks} == {
            ("anchor_n0_d1", 1),
            ("anchor_n0_d2", 2),
            ("anchor_n0_d3", 3),
            ("anchor_n1_d3", 3),
            ("anchor_k0_d3", 3),
            ("anchor_k1_d3", 3),
            ("anchor_g0_d3", 3),
        }
        assert all(c.status is CheckStatus.PASS for c in checks)

    def test_every_check_carries_expected_and_actual(self, engine):
        for check in _appended(run_anchor_suite, engine, 5):
            assert check.expected is not None
            assert check.actual == check.expected

    @pytest.mark.parametrize("bad", [2, 1, 0])
    def test_precondition_surfaces_as_input_error(self, engine, bad):
        # The suites trust d_max: the audit's one entry point checks it.
        with pytest.raises(ValueError):
            run_full_audit(engine, bad)

    def test_mismatch_is_a_fail(self, engine):
        engine.k0 = lambda d: Fraction(23)  # simulate a regression
        checks = _appended(run_anchor_suite, engine, 3)
        failed = {c.id: c for c in checks if c.status is CheckStatus.FAIL}
        # g0 is assembled from k0, so its anchor breaks too.
        assert set(failed) == {"anchor_k0_d3", "anchor_g0_d3"}
        assert failed["anchor_k0_d3"].expected == 24
        assert failed["anchor_k0_d3"].actual == 23
        assert AuditReport(3, checks).has_blocking_failure


class TestIdentitySuite:
    def test_all_identities_pass_up_to_twelve(self, engine):
        checks = _appended(run_identity_suite, engine, 12)
        identities = [c for c in checks if c.kind is CheckKind.IDENTITY]
        assert len(identities) == 4 * 10
        assert all(c.status is CheckStatus.PASS for c in identities)

    def test_integrality_checks_pass_and_info_rows_present(self, engine):
        checks = _appended(run_identity_suite, engine, 6)
        hard = [
            c
            for c in checks
            if c.kind is CheckKind.INTEGRALITY and c.status is not CheckStatus.INFO
        ]
        assert hard and all(c.status is CheckStatus.PASS for c in hard)
        info = [c for c in checks if c.status is CheckStatus.INFO]
        assert {c.id for c in info} == {
            "integrality_g1",
            "integrality_omega",
            "integrality_m",
        }

    def test_a_non_integral_required_kind_is_a_fail(self, engine):
        engine.k0 = lambda d: Fraction(1, 2)  # simulate a regression
        failed = {
            (c.id, c.degree)
            for c in _appended(run_identity_suite, engine, 4)
            if c.kind is CheckKind.INTEGRALITY and c.status is CheckStatus.FAIL
        }
        # g0 is assembled from k0, so it turns non-integral too.
        assert failed == {
            (f"integrality_{name}", d) for name in ("k0", "g0") for d in (3, 4)
        }

    def test_an_integrality_fail_blocks_and_an_info_row_does_not(self):
        info = AuditCheck(
            "integrality_g1", 3, CheckKind.INTEGRALITY, Fraction(5, 4),
            status=CheckStatus.INFO, detail="non-integral",
        )
        fail = AuditCheck(
            "integrality_n1", 3, CheckKind.INTEGRALITY, Fraction(1, 2),
            status=CheckStatus.FAIL,
        )
        assert not AuditReport(3, [info]).has_blocking_failure
        assert AuditReport(3, [info, fail]).has_blocking_failure

    def test_g1_reported_non_integral_at_degree_three(self, engine):
        checks = _appended(run_identity_suite, engine, 3)
        g1_info = [c for c in checks if c.id == "integrality_g1"]
        assert len(g1_info) == 1
        assert g1_info[0].status is CheckStatus.INFO
        assert g1_info[0].actual == Fraction(5, 4)
        assert g1_info[0].detail == "non-integral"

    def test_k1_two_path_value_at_degree_four(self, engine):
        check = next(
            c for c in _appended(run_identity_suite, engine, 4)
            if c.id == "k1_two_path" and c.degree == 4
        )
        assert check.status is CheckStatus.PASS
        assert check.actual == 840 and check.expected == 840

    def test_a_stored_n1_off_by_one_fails_k1_two_path_and_t_linearity(self):
        # K1 = 12 (N1 - omega) reads the stored N1, and k1_two_path
        # compares it with the recursion of N1 over the direct T, which
        # reads N1 below d only.  t_op reads T back from the stored N1 by
        # the same recursion, so t_linearity, against the direct T, fails
        # too: T moves by 9, and G1 by 6, an integer.
        engine = InvariantEngine()
        engine.n1(6)
        engine._n1[6] += 1
        checks = _appended(run_identity_suite, engine, 6)
        failed = {(c.id, c.degree) for c in checks if c.status is CheckStatus.FAIL}
        assert failed == {("k1_two_path", 6), ("t_linearity", 6)}


def test_the_audit_reads_no_private_engine_attribute():
    # A two-path check is only as independent as its second path: the
    # audit reads the engine through its public methods, never its lists,
    # its splitting-sum cache or its row window.
    source = Path(audit_module.__file__).read_text(encoding="utf-8")
    assert "engine._" not in source


def test_the_engine_exposes_no_method_beyond_the_table_and_the_recursions():
    # Every public method evaluates a table column or is a recursion or a
    # dispatcher: the engine keeps no method that only the audit reads.
    public = {
        name for name in dir(InvariantEngine)
        if not name.startswith("_") and callable(getattr(InvariantEngine, name))
    }
    kind_methods = {spec.method for spec in KIND_SPEC.values()}
    assert public == kind_methods | {"n0", "n1", "t_op", "value", "evaluate"}


def _engine_with_corrupted_n0():
    # N0(4) off by one: 36 N1(4) is no longer a multiple of 36.
    engine = InvariantEngine()
    engine.n0(5)
    engine._n0[4] += 1
    return engine


class TestCorruptedEngine:
    def test_full_audit_reports_the_failed_exact_division(self):
        # The checks made before the raise stay in the report: the N0
        # anchors name the culprit, and anchor_n1_d3 passes.
        report = run_full_audit(_engine_with_corrupted_n0(), 12)
        assert [c.id for c in report.checks] == [
            *(f"anchor_n0_d{d}" for d in range(1, 6)), "anchor_n1_d3", "exact_division",
        ]
        failed = [c for c in report.checks if c.status is CheckStatus.FAIL]
        assert len(failed) == 2
        anchor, check = failed
        assert (anchor.id, anchor.degree) == ("anchor_n0_d4", 4)
        assert anchor.kind is CheckKind.ANCHOR
        assert (anchor.actual, anchor.expected) == (621, 620)
        assert (check.id, check.degree) == ("exact_division", 4)
        assert check.kind is CheckKind.IDENTITY
        assert check.actual.denominator != 1
        assert "remainder 12" in check.detail
        assert report.has_blocking_failure
        assert "[FAIL] IDENTITY" in report.to_text()

    def test_a_wrong_omega_fails_k1_two_path_and_the_residual_probe(self):
        # k1_via_c2, fed by the identity suite, and the residual read omega
        # through engine.omega; k1 has its N0 term, 12 omega, inline.  Of
        # the exit-1 checks only k1_two_path sees the change, and not at
        # d = 4, where 3d - 12 = 0.
        engine = InvariantEngine()
        omega = engine.omega
        engine.omega = lambda d: omega(d) + 1
        report = run_full_audit(engine, 8)
        failed = {(c.id, c.degree) for c in report.checks if c.status is CheckStatus.FAIL}
        assert failed == {("k1_two_path", d) for d in (3, 5, 6, 7, 8)} | {
            ("ramification_residual", d) for d in range(4, 9)
        }

    def test_a_wrong_lr_fails_the_k0_and_g0_checks(self):
        # No check compares LR itself, but k0 reads it through the public
        # lr, so LR + 1 moves K0 by 3 and G0 by 3/2: the K0 and G0 anchors,
        # g0_two_path and G0's integrality all FAIL.
        engine = InvariantEngine()
        lr = engine.lr
        engine.lr = lambda d: lr(d) + 1
        report = run_full_audit(engine, 8)
        failed = {(c.id, c.degree) for c in report.checks if c.status is CheckStatus.FAIL}
        assert failed == {("anchor_k0_d3", 3), ("anchor_g0_d3", 3)} | {
            (check_id, d) for check_id in ("g0_two_path", "integrality_g0")
            for d in range(3, 9)
        }
        assert report.has_blocking_failure


class TestDiscrepancyProbes:
    def test_printed_form_probe_reproduces_minus_sixty(self, engine):
        checks = _appended(run_discrepancy_probes, engine, 3)
        probe = next(c for c in checks if c.id == "k0_printed_vs_anchor")
        assert probe.status is CheckStatus.INFO
        assert probe.actual == -60
        assert probe.expected == RECORDED_K0_PRINTED_D3

    def test_ramification_residuals_reproduce_recorded_values(self, engine):
        checks = _appended(run_discrepancy_probes, engine, 12)
        residuals = [c for c in checks if c.id == "ramification_residual"]
        assert [c.degree for c in residuals] == list(range(4, 13))
        for check in residuals:
            assert check.status is CheckStatus.INFO
            assert check.actual == RECORDED_RAMIFICATION_RESIDUALS[check.degree]
            assert check.actual != 0

    def test_probe_beyond_recorded_range_reports_info(self, engine):
        checks = _appended(run_discrepancy_probes, engine, 13)
        tail = next(c for c in checks if c.degree == 13)
        assert tail.status is CheckStatus.INFO
        assert tail.expected is None and tail.actual != 0

    def test_probe_fails_on_silent_vanishing(self, engine):
        # If the evaluator started agreeing with the anchor the probe
        # must fail: it certifies the text of the closed form, not the
        # anchor.
        engine.k0_printed = lambda d: Fraction(24)
        checks = _appended(run_discrepancy_probes, engine, 3)
        probe = next(c for c in checks if c.id == "k0_printed_vs_anchor")
        assert probe.status is CheckStatus.FAIL
        assert not AuditReport(3, checks).has_blocking_failure  # probes never gate exit

    def test_probe_fails_on_residual_drift(self, engine):
        # The probe evaluates the identity from the public g1, so a g1
        # that drifts moves the residual.
        g1 = engine.g1
        engine.g1 = lambda d: g1(d) + 1
        checks = _appended(run_discrepancy_probes, engine, 4)
        probe = next(c for c in checks if c.id == "ramification_residual")
        assert probe.status is CheckStatus.FAIL

    def test_a_value_off_the_residual_scale_is_an_inexact_division(self, engine):
        # The residual scales g1 by 48 exactly: a g1 in sevenths can only
        # come from a corrupted engine, and fails as its divisions do.
        g1 = engine.g1
        engine.g1 = lambda d: g1(d) + Fraction(1, 7)
        with pytest.raises(InexactDivision) as raised:
            _appended(run_discrepancy_probes, engine, 4)
        assert raised.value.degree == 4

    def test_the_residual_is_three_d_plus_one_halves_of_omega(self, engine):
        # The formula of g1 has (6d - 8) omega where the identity has
        # (3d - 9) omega; omega comes from the oracle.
        for d in range(4, 41):
            expected = (3 * d + 1) * oracle.omega(d) / 2
            assert audit_module._ramification_residual(engine, d) == expected, d

    def test_each_recorded_residual_is_three_d_plus_one_halves_of_omega(self):
        assert sorted(RECORDED_RAMIFICATION_RESIDUALS) == list(range(4, 13))
        for d, recorded in RECORDED_RAMIFICATION_RESIDUALS.items():
            assert recorded == (3 * d + 1) * oracle.omega(d) / 2, d

    def test_probes_never_fail_merely_because_discrepancy_exists(self, engine):
        checks = _appended(run_discrepancy_probes, engine, 8)
        assert all(c.status is CheckStatus.INFO for c in checks)


class TestReport:
    def test_empty_report_is_invalid(self):
        with pytest.raises(ValueError):
            AuditReport(d_max=3, checks=[])

    def test_summary_matches_tallies(self, engine):
        report = run_full_audit(engine, 6)
        counts = {"PASS": 0, "FAIL": 0, "INFO": 0}
        for check in report.checks:
            counts[check.status.value] += 1
        assert report.summary == counts
        assert report.engine_version == __version__
        assert report.d_max == 6

    def test_text_rendering_is_deterministic(self):
        first = run_full_audit(InvariantEngine(), 7).to_text()
        second = run_full_audit(InvariantEngine(), 7).to_text()
        assert first == second
        assert first.endswith("\n")

    def test_json_shape_and_exact_strings(self, engine):
        obj = json.loads(run_full_audit(engine, 4).to_json())
        assert set(obj) == {"engine_version", "d_max", "checks", "summary"}
        assert obj["summary"]["FAIL"] == 0
        g1_rows = [
            c
            for c in obj["checks"]
            if c["id"] == "integrality_g1" and c["degree"] == 3
        ]
        assert g1_rows[0]["actual"] == "5/4"
        probe = next(
            c for c in obj["checks"] if c["id"] == "k0_printed_vs_anchor"
        )
        assert probe["actual"] == "-60" and probe["status"] == "INFO"

    @pytest.mark.parametrize(
        "make_report",
        [
            lambda: AuditReport(d_max=3, checks=[
                AuditCheck("no_expected", 3, CheckKind.ANCHOR, Fraction(24)),
                AuditCheck(
                    "escaped_detail", 4, CheckKind.DISCREPANCY_PROBE,
                    Fraction(-7, 2), Fraction(2015, 2), CheckStatus.FAIL,
                    'quote " backslash \\ newline \n \u00e9 \u2028',
                ),
            ]),
            lambda: run_full_audit(_engine_with_corrupted_n0(), 12),
            lambda: run_full_audit(InvariantEngine(), 6),
        ],
        ids=["hand-built", "exact-division-fail", "full-audit"],
    )
    def test_json_is_what_json_dumps_writes(self, make_report):
        report = make_report()
        tree = {
            "engine_version": report.engine_version,
            "d_max": report.d_max,
            "checks": [
                {
                    "id": check.id,
                    "degree": check.degree,
                    "kind": check.kind.value,
                    "expected": None
                    if check.expected is None
                    else format_exact(check.expected),
                    "actual": format_exact(check.actual),
                    "status": check.status.value,
                    "detail": check.detail,
                }
                for check in report.checks
            ],
            "summary": report.summary,
        }
        assert report.to_json() == json.dumps(tree, indent=2) + "\n"

    def test_full_audit_is_clean_and_non_blocking(self, engine):
        report = run_full_audit(engine, 12)
        assert report.summary["FAIL"] == 0
        assert not report.has_blocking_failure

    def test_failed_anchor_must_carry_expected_and_actual(self):
        # Contract on the check type itself, exercised through a fake.
        check = AuditCheck(
            id="anchor_k0_d3",
            degree=3,
            kind=CheckKind.ANCHOR,
            actual=Fraction(23),
            expected=Fraction(24),
            status=CheckStatus.FAIL,
        )
        assert check.expected is not None and check.actual is not None


class TestRenderedValues:
    """Each line prints its own check's two values.  A value is formatted
    once where expected equals actual, and the renderers decide that from
    the values, not from the status."""

    @staticmethod
    def _rendered(report):
        """(expected, actual) as each renderer printed them, per check:
        None for an expected value the text omits."""
        lines = report.to_text().splitlines()[2:2 + len(report.checks)]
        text = [
            (line.partition(" expected=")[2].split(" ")[0] or None,
             line.partition(" actual=")[2].split(" ")[0])
            for line in lines
        ]
        entries = json.loads(report.to_json())["checks"]
        return text, [(entry["expected"], entry["actual"]) for entry in entries]

    def test_every_line_prints_its_own_expected_value(self):
        # N1(6) off by one, as in the identity suite's test of it:
        # t_linearity and k1_two_path FAIL at d = 6, each with expected !=
        # actual.
        engine = InvariantEngine()
        engine.n1(6)
        engine._n1[6] += 1
        made = run_full_audit(engine, 6)
        # PASS and FAIL exchanged: a renderer that read equality off the
        # status would print a former FAIL's actual value as its expected.
        flip = {CheckStatus.PASS: CheckStatus.FAIL, CheckStatus.FAIL: CheckStatus.PASS}
        swapped = AuditReport(6, [
            check._replace(status=flip.get(check.status, check.status))
            for check in made.checks
        ])
        own = [
            (None if c.expected is None else format_exact(c.expected), format_exact(c.actual))
            for c in made.checks
        ]
        for report in (made, swapped):
            assert self._rendered(report) == (own, own)
        failed = {
            (c.id, c.degree): pair for c, pair in zip(made.checks, own)
            if c.status is CheckStatus.FAIL
        }
        for key in (("t_linearity", 6), ("k1_two_path", 6)):
            expected, actual = failed[key]
            assert expected != actual
        passed = [
            pair for c, pair in zip(made.checks, own)
            if c.status is CheckStatus.PASS and c.expected is not None
        ]
        assert passed and all(expected == actual for expected, actual in passed)
