from __future__ import annotations

import json
from fractions import Fraction

import pytest

from severi import InvariantEngine, __version__
from severi.exact import format_exact
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


class TestAnchorSuite:
    def test_all_anchors_pass_at_d_max_five(self, engine):
        report = run_anchor_suite(engine, 5)
        assert len(report.checks) == 13
        assert all(c.status is CheckStatus.PASS for c in report.checks)
        assert all(c.kind is CheckKind.ANCHOR for c in report.checks)

    def test_filtering_keeps_exactly_the_anchors_in_range(self, engine):
        report = run_anchor_suite(engine, 3)
        assert {(c.id, c.degree) for c in report.checks} == {
            ("anchor_n0_d1", 1),
            ("anchor_n0_d2", 2),
            ("anchor_n0_d3", 3),
            ("anchor_n1_d3", 3),
            ("anchor_k0_d3", 3),
            ("anchor_k1_d3", 3),
            ("anchor_g0_d3", 3),
        }
        assert all(c.status is CheckStatus.PASS for c in report.checks)

    def test_every_check_carries_expected_and_actual(self, engine):
        for check in run_anchor_suite(engine, 5).checks:
            assert check.expected is not None
            assert check.actual == check.expected

    @pytest.mark.parametrize("bad", [2, 1, 0])
    def test_precondition_surfaces_as_input_error(self, engine, bad):
        with pytest.raises(ValueError):
            run_anchor_suite(engine, bad)

    def test_mismatch_is_a_fail(self, engine):
        engine.k0 = lambda d: Fraction(23)  # simulate a regression
        report = run_anchor_suite(engine, 3)
        failed = {c.id: c for c in report.checks if c.status is CheckStatus.FAIL}
        # g0 is assembled from k0, so its anchor breaks too.
        assert set(failed) == {"anchor_k0_d3", "anchor_g0_d3"}
        assert failed["anchor_k0_d3"].expected == 24
        assert failed["anchor_k0_d3"].actual == 23
        assert report.has_blocking_failure


class TestIdentitySuite:
    def test_all_identities_pass_up_to_twelve(self, engine):
        report = run_identity_suite(engine, 12)
        identities = [c for c in report.checks if c.kind is CheckKind.IDENTITY]
        assert len(identities) == 4 * 10
        assert all(c.status is CheckStatus.PASS for c in identities)

    def test_integrality_checks_pass_and_info_rows_present(self, engine):
        report = run_identity_suite(engine, 6)
        hard = [
            c
            for c in report.checks
            if c.kind is CheckKind.INTEGRALITY and c.status is not CheckStatus.INFO
        ]
        assert hard and all(c.status is CheckStatus.PASS for c in hard)
        info = [c for c in report.checks if c.status is CheckStatus.INFO]
        assert {c.id for c in info} == {
            "integrality_g1",
            "integrality_omega",
            "integrality_m",
        }

    def test_a_non_integral_required_kind_is_a_fail(self, engine):
        engine.k0 = lambda d: Fraction(1, 2)  # simulate a regression
        report = run_identity_suite(engine, 4)
        failed = {
            (c.id, c.degree)
            for c in report.checks
            if c.kind is CheckKind.INTEGRALITY and c.status is CheckStatus.FAIL
        }
        # g0 is assembled from k0, so it turns non-integral too.
        assert failed == {
            (f"integrality_{name}", d) for name in ("k0", "g0") for d in (3, 4)
        }

    def test_g1_reported_non_integral_at_degree_three(self, engine):
        report = run_identity_suite(engine, 3)
        g1_info = [c for c in report.checks if c.id == "integrality_g1"]
        assert len(g1_info) == 1
        assert g1_info[0].status is CheckStatus.INFO
        assert g1_info[0].actual == Fraction(5, 4)
        assert g1_info[0].detail == "non-integral"

    def test_k1_two_path_value_at_degree_four(self, engine):
        report = run_identity_suite(engine, 4)
        check = next(
            c for c in report.checks if c.id == "k1_two_path" and c.degree == 4
        )
        assert check.status is CheckStatus.PASS
        assert check.actual == 840 and check.expected == 840

    def test_a_corrupted_t_basis_fails_both_two_path_t_checks(self):
        # k1 and the left side of t_linearity read the stored T; the
        # other sides sum T term by term, so tampering shows up in both.
        engine = InvariantEngine()
        engine.n1(6)
        engine._t[6] += 1
        report = run_identity_suite(engine, 6)
        failed = {(c.id, c.degree) for c in report.checks if c.status is CheckStatus.FAIL}
        assert failed == {("k1_two_path", 6), ("t_linearity", 6)}


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
        # k1_via_c2 and the residual read omega through engine.omega; k1
        # has its N0 term inline.  Of the exit-1 checks only k1_two_path
        # sees the change, and not at d = 4, where 3d - 12 = 0.
        engine = InvariantEngine()
        omega = engine.omega
        engine.omega = lambda d: omega(d) + 1
        report = run_full_audit(engine, 8)
        failed = {(c.id, c.degree) for c in report.checks if c.status is CheckStatus.FAIL}
        assert failed == {("k1_two_path", d) for d in (3, 5, 6, 7, 8)} | {
            ("ramification_residual", d) for d in range(4, 9)
        }


class TestDiscrepancyProbes:
    def test_printed_form_probe_reproduces_minus_sixty(self, engine):
        report = run_discrepancy_probes(engine, 3)
        probe = next(c for c in report.checks if c.id == "k0_printed_vs_anchor")
        assert probe.status is CheckStatus.INFO
        assert probe.actual == -60
        assert probe.expected == RECORDED_K0_PRINTED_D3

    def test_ramification_residuals_reproduce_recorded_values(self, engine):
        report = run_discrepancy_probes(engine, 12)
        residuals = [c for c in report.checks if c.id == "ramification_residual"]
        assert [c.degree for c in residuals] == list(range(4, 13))
        for check in residuals:
            assert check.status is CheckStatus.INFO
            assert check.actual == RECORDED_RAMIFICATION_RESIDUALS[check.degree]
            assert check.actual != 0

    def test_probe_beyond_recorded_range_reports_info(self, engine):
        report = run_discrepancy_probes(engine, 13)
        tail = next(c for c in report.checks if c.degree == 13)
        assert tail.status is CheckStatus.INFO
        assert tail.expected is None and tail.actual != 0

    def test_probe_fails_on_silent_vanishing(self, engine):
        # If the evaluator started agreeing with the anchor the probe
        # must fail: it certifies the text of the closed form, not the
        # anchor.
        engine.k0_printed = lambda d: Fraction(24)
        report = run_discrepancy_probes(engine, 3)
        probe = next(c for c in report.checks if c.id == "k0_printed_vs_anchor")
        assert probe.status is CheckStatus.FAIL
        assert not report.has_blocking_failure  # probes never gate exit

    def test_probe_fails_on_residual_drift(self, engine):
        engine.ramification_residual = lambda d: Fraction(0)
        report = run_discrepancy_probes(engine, 4)
        probe = next(c for c in report.checks if c.id == "ramification_residual")
        assert probe.status is CheckStatus.FAIL

    def test_probes_never_fail_merely_because_discrepancy_exists(self, engine):
        report = run_discrepancy_probes(engine, 8)
        assert all(c.status is CheckStatus.INFO for c in report.checks)


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

    def test_the_suites_append_to_a_shared_list(self, engine):
        checks = []
        report = run_anchor_suite(engine, 3, checks)
        run_discrepancy_probes(engine, 4, checks)
        assert report.checks is checks
        assert [c.id for c in checks][-3:] == [
            "anchor_g0_d3", "k0_printed_vs_anchor", "ramification_residual",
        ]

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
