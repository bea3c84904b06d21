from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracle
from conftest import golden_value
from severi import (
    BELOW_MIN_DEGREE,
    DEGENERATE_GEOMETRY,
    InvariantEngine,
    InvariantKind,
    KIND_ORDER,
    domain_status,
)
from severi import engine as engine_module
from severi.audit import run_full_audit
from severi.engine import MAX_DEGREE
from severi.tables import build_records, kind_named, select_kinds


class TestRationalCounts:
    def test_base_case_one_line_through_two_points(self, engine):
        assert engine.n0(1) == 1

    def test_degree_three_ordered_terms(self, engine):
        # (1,2) contributes 1*1*[1*4*C(5,1) - 1*2*C(5,2)] = 20 - 20 = 0
        # (2,1) contributes 1*1*[4*1*C(5,4) - 8*1*C(5,5)] = 20 - 8 = 12
        assert engine.n0(3) == 12

    @pytest.mark.parametrize("d,expected", [(4, 620), (5, 87304), (6, 26312976)])
    def test_against_frozen_oracle_values(self, engine, d, expected):
        assert engine.n0(d) == expected

    def test_matches_live_oracle_beyond_golden_range(self, engine):
        assert engine.n0(14) == oracle.n0(14)


class TestEllipticCounts:
    def test_no_elliptic_curves_below_degree_three(self, engine):
        assert engine.n1(1) == 0
        assert engine.n1(2) == 0

    def test_degree_three(self, engine):
        # Only the first term survives: (1/12) * C(3,3) * 12 = 1.
        assert engine.n1(3) == 1

    def test_degree_four(self, engine):
        # (1/12)*4*620 + (1/9)*1*3*C(11,2)*1*1 = 620/3 + 55/3 = 225.
        assert engine.n1(4) == 225

    def test_degree_five(self, engine):
        # (1/12)*10*87304 + (1/9)*4*C(14,2)*225 + (4/9)*6*C(14,5) = 87192.
        assert engine.n1(5) == 87192


class TestTOperator:
    def test_vanishes_when_no_elliptic_factor_exists(self, engine):
        assert engine.t_op(3) == 0

    def test_single_surviving_term_at_degree_four(self, engine):
        # (1,3): (3*1-2)*1*3*C(11,2)*N0(1)*N1(3) = 1*3*55 = 165.
        assert engine.t_op(4) == 165

    def test_stored_and_direct_sums_match_the_oracle(self, engine):
        for d in range(1, 41):
            assert engine.t_op(d) == engine.t_op_direct(d) == oracle.t_weighted(3, -2, d)


class TestDerivedInvariants:
    @pytest.mark.parametrize("d,expected", [(1, 0), (3, 1), (4, 155)])
    def test_omega(self, engine, d, expected):
        assert engine.omega(d) == expected

    @pytest.mark.parametrize("d,expected", [(1, 0), (2, 1), (3, 10)])
    def test_m_invariant(self, engine, d, expected):
        assert engine.m_invariant(d) == expected

    @pytest.mark.parametrize("d,expected", [(1, 0), (2, 3), (3, 42)])
    def test_reducible_fibre_count(self, engine, d, expected):
        assert engine.reducible_fibre_count(d) == expected

    @pytest.mark.parametrize("d,expected", [(1, 0), (2, 3), (3, 42)])
    def test_r_component_count(self, engine, d, expected):
        assert engine.r_component_count(d) == expected

    @pytest.mark.parametrize("d,expected", [(1, 0), (2, 3), (3, 54)])
    def test_lr(self, engine, d, expected):
        assert engine.lr(d) == expected

    def test_k0_anchor_and_pipeline_stages(self, engine):
        # 3*12 - 9*10 + 3*54 - 42 - 42 = 36 - 90 + 162 - 84 = 24.
        assert 3 * engine.n0(3) == 36
        assert 3 * 3 * engine.m_invariant(3) == 90
        assert 3 * engine.lr(3) == 162
        assert engine.r_component_count(3) == 42
        assert engine.reducible_fibre_count(3) == 42
        assert engine.k0(3) == 24

    def test_k0_degree_four(self, engine):
        assert engine.k0(4) == 2304

    @pytest.mark.parametrize("d,expected", [(1, 3), (2, 2), (3, -60)])
    def test_k0_printed(self, engine, d, expected):
        # At d=3 the ordered terms of the bracket are 41 and 55, so the
        # closed form gives 36 - 96 = -60 against the anchor 24.
        assert engine.k0_printed(d) == expected

    @pytest.mark.parametrize("d,expected", [(1, 0), (2, 0), (3, 0), (4, 840)])
    def test_k1(self, engine, d, expected):
        # d=3: 3*1 + (2*1*(-1)/8)*12 + 0 = 0 -- cuspidal cubics are
        # rational, so no 1-cuspidal elliptic cubic exists.
        # d=4: 3*225 + 0 + 165 = 840.
        assert engine.k1(d) == expected

    def test_k1_via_c2_matches_hand_values(self, engine):
        assert engine.k1_via_c2(3) == 0  # 3 + (-3)*1 + 0 - 0
        assert engine.k1_via_c2(4) == 840  # 675 + 0*155 + 3*165 - 2*165

    def test_g0_degree_three(self, engine):
        assert engine.g0(3) == Fraction(24 - 20 + 2, 2) == 3

    def test_g0_two_paths_agree(self, engine):
        # From d = 1: the stride-3 walk then starts on the rows n = -1, 2.
        for d in range(1, 13):
            assert engine.g0(d) == engine.g0_from_splitting_sum(d)

    def test_g1_degree_four(self, engine):
        # (840 - 1012.5 + 1240 + 82.5 + 2)/2 = 1152/2 = 576.
        assert engine.g1(4) == 576

    def test_g1_degenerate_at_degree_three(self, engine):
        # (0 - 9/2 + 5 + 0 + 2)/2 = 5/4, deliberately not an integer.
        assert engine.g1(3) == Fraction(5, 4)

    def test_ramification_residual_degree_four(self, engine):
        assert engine.ramification_residual(4) == Fraction(2015, 2)


class TestGoldenAgreement:
    NAME_TO_METHOD = {
        "n0": "n0",
        "n1": "n1",
        "omega": "omega",
        "m": "m_invariant",
        "nodes": "reducible_fibre_count",
        "rcount": "r_component_count",
        "lr": "lr",
        "k0": "k0",
        "k0_printed": "k0_printed",
        "k1": "k1",
        "k1_via_c2": "k1_via_c2",
        "g0": "g0",
        "g1": "g1",
        "ramification_residual": "ramification_residual",
    }

    def test_every_golden_entry(self, engine, golden):
        for name, method in self.NAME_TO_METHOD.items():
            for d_str, expected in golden[name].items():
                actual = getattr(engine, method)(int(d_str))
                assert actual == Fraction(expected), (name, d_str)

    def test_live_oracle_spot_checks_beyond_golden_range(self, engine):
        assert engine.k0(13) == oracle.k0(13)
        assert engine.g1(13) == oracle.g1(13)
        assert engine.ramification_residual(13) == oracle.ramification_residual(13)

    @pytest.mark.parametrize("name", [
        "n0", "n1", "omega", "m", "nodes", "rcount", "lr", "k0", "k0_printed", "k1",
        "k1_via_c2", "g0", "g1", "ramification_residual",
    ])
    def test_live_oracle_agrees_from_degree_13_to_40(self, engine, name):
        # Both parities of d, so the paired sums' middle term d1 = d2 is hit.
        method = getattr(engine, self.NAME_TO_METHOD[name])
        reference = getattr(oracle, "m_invariant" if name == "m" else name)
        for d in range(13, 41):
            assert method(d) == reference(d), (name, d)


def _assert_untouched(engine):
    """No count, scaled count or T entry was computed."""
    lists = (engine._n0, engine._a, engine._u, engine._n1, engine._v, engine._t)
    assert lists == ([0, 1], [0, 1], [0, 1], [0], [0], [0])


class TestInvariantProperties:
    def test_integrality_in_domain(self, engine):
        for d in range(1, 13):
            assert engine.n0(d).denominator == 1
            assert engine.n1(d).denominator == 1
        for d in range(3, 13):
            assert engine.k0(d).denominator == 1
            assert engine.k1(d).denominator == 1
            assert engine.g0(d).denominator == 1
            assert engine.n0(d) >= 0 and engine.n1(d) >= 0
            assert engine.k0(d) >= 0 and engine.k1(d) >= 0

    def test_component_count_identity(self, engine):
        # Every reducible fibre has exactly one component missing the
        # marked point (Pascal plus symmetry at the binomial level).
        for d in range(2, 13):
            assert engine.r_component_count(d) == engine.reducible_fibre_count(d)

    def test_k1_two_path_equality(self, engine):
        for d in range(3, 13):
            assert engine.k1(d) == engine.k1_via_c2(d)

    def test_strict_growth_from_degree_three(self, engine):
        for d in range(4, 13):
            assert engine.n0(d) > engine.n0(d - 1)
            assert engine.n1(d) > engine.n1(d - 1)

    def test_cold_and_warm_caches_agree_across_query_orders(self, golden):
        cold = InvariantEngine()
        warm = InvariantEngine()
        queries = [(kind, d) for kind in KIND_ORDER for d in range(1, 11)]
        random.Random(7).shuffle(queries)
        for kind, d in queries:
            warm.value(kind, d)
        for kind in KIND_ORDER:
            for d in range(1, 11):
                assert cold.value(kind, d) == warm.value(kind, d), (kind, d)

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_degree_must_be_positive(self, engine, bad):
        with pytest.raises(ValueError):
            engine.n0(bad)
        with pytest.raises(ValueError):
            engine.value(InvariantKind.K0, bad)

    def test_degree_above_the_ceiling_is_refused_before_any_work(self, engine):
        with pytest.raises(ValueError, match=str(MAX_DEGREE)):
            engine.n0(MAX_DEGREE + 1)
        with pytest.raises(ValueError, match=str(MAX_DEGREE)):
            engine.value(InvariantKind.K1, MAX_DEGREE + 1)
        _assert_untouched(engine)

    @pytest.mark.parametrize("entry_point", [build_records, run_full_audit])
    def test_library_entry_points_refuse_d_max_above_the_ceiling_up_front(
        self, engine, monkeypatch, entry_point
    ):
        monkeypatch.setattr(engine_module, "MAX_DEGREE", 8)
        with pytest.raises(ValueError, match="ceiling 8"):
            entry_point(engine, 9)
        _assert_untouched(engine)

    def test_degree_must_be_an_integer(self, engine):
        with pytest.raises(ValueError):
            engine.n0(3.0)
        with pytest.raises(ValueError):
            engine.n0(True)


class TestDomainStatus:
    def test_counts_are_always_in_domain(self):
        for d in (1, 2, 3, 10):
            for kind in (InvariantKind.N0, InvariantKind.N1, InvariantKind.OMEGA):
                assert domain_status(kind, d).in_domain

    def test_splitting_statistics_start_at_degree_two(self):
        for kind in (
            InvariantKind.M,
            InvariantKind.NODES,
            InvariantKind.RCOUNT,
            InvariantKind.LR,
            InvariantKind.K0_PRINTED,
        ):
            status = domain_status(kind, 1)
            assert not status.in_domain and status.reason == BELOW_MIN_DEGREE
            assert domain_status(kind, 2).in_domain

    def test_cuspidal_rational_count_degenerates_below_three(self):
        for d in (1, 2):
            status = domain_status(InvariantKind.K0, d)
            assert not status.in_domain and status.reason == DEGENERATE_GEOMETRY
        assert domain_status(InvariantKind.K0, 3).in_domain

    def test_elliptic_derived_invariants(self):
        for kind in (InvariantKind.K1, InvariantKind.G0):
            assert domain_status(kind, 2).reason == BELOW_MIN_DEGREE
            assert domain_status(kind, 3).in_domain
        assert domain_status(InvariantKind.G1, 2).reason == BELOW_MIN_DEGREE
        assert domain_status(InvariantKind.G1, 3).reason == DEGENERATE_GEOMETRY
        assert domain_status(InvariantKind.G1, 4).in_domain

    def test_a_kind_given_by_its_value_gets_the_same_flag(self, engine):
        for kind in KIND_ORDER:
            for d in range(1, 5):
                assert engine.evaluate(kind.value, d) == engine.evaluate(kind, d)
                assert engine.value(kind.value, d) == engine.value(kind, d)

    def test_an_unknown_kind_is_a_value_error(self, engine):
        with pytest.raises(ValueError):
            domain_status("BOGUS", 3)
        with pytest.raises(ValueError):
            engine.evaluate("BOGUS", 3)
        for name in ("BOGUS", "g1"):
            with pytest.raises(ValueError):
                engine.value(name, 3)

    def test_out_of_domain_queries_still_evaluate(self, engine):
        value, status = engine.evaluate(InvariantKind.G1, 3)
        assert value == Fraction(5, 4)
        assert not status.in_domain

    def test_evaluate_returns_value_with_status_for_every_kind(self, engine, golden):
        for kind in KIND_ORDER:
            value, status = engine.evaluate(kind, 3)
            assert isinstance(status.in_domain, bool)
            assert value == golden_value(
                golden, _GOLDEN_NAME[kind], 3
            )


class TestKindNames:
    def test_an_unknown_name_lists_the_known_ones(self):
        with pytest.raises(ValueError, match=r"invariant 'N2' \(known: N0, N1, K0, "):
            kind_named("N2")

    def test_a_selection_reports_the_unknown_name_once_stripped(self):
        with pytest.raises(ValueError, match="unknown invariant 'BOGUS'"):
            select_kinds("N0, BOGUS ")
        assert select_kinds(" m,n0 ,") == (InvariantKind.N0, InvariantKind.M)


_GOLDEN_NAME = {
    InvariantKind.N0: "n0",
    InvariantKind.N1: "n1",
    InvariantKind.K0: "k0",
    InvariantKind.K0_PRINTED: "k0_printed",
    InvariantKind.K1: "k1",
    InvariantKind.G0: "g0",
    InvariantKind.G1: "g1",
    InvariantKind.OMEGA: "omega",
    InvariantKind.M: "m",
    InvariantKind.NODES: "nodes",
    InvariantKind.RCOUNT: "rcount",
    InvariantKind.LR: "lr",
}
