from __future__ import annotations

import copy
import random
from fractions import Fraction
from math import comb

import pytest

import oracle
from conftest import audit_rows, audit_second_paths, golden_value
from severi import (
    BELOW_MIN_DEGREE,
    DEGENERATE_GEOMETRY,
    InvariantEngine,
    InvariantKind,
    KIND_ORDER,
    domain_status,
)
from severi import audit
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
        # The direct sum is the audit's, from its own lists and rows.
        for d in range(1, 41):
            direct = audit_second_paths(engine, d)[0]
            assert engine.t_op(d) == direct == oracle.t_weighted(3, -2, d)


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
    def test_rcount_kind(self, engine, d, expected):
        assert engine.value(InvariantKind.RCOUNT, d) == expected

    @pytest.mark.parametrize("d,expected", [(1, 0), (2, 3), (3, 54)])
    def test_lr(self, engine, d, expected):
        assert engine.lr(d) == expected

    def test_k0_anchor_and_pipeline_stages(self, engine):
        # 3*12 - 9*10 + 3*54 - 42 - 42 = 36 - 90 + 162 - 84 = 24.
        assert 3 * engine.n0(3) == 36
        assert 3 * 3 * engine.m_invariant(3) == 90
        assert 3 * engine.lr(3) == 162
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
        assert audit_second_paths(engine, 3)[1] == 0  # 3 + (-3)*1 + 0 - 0
        assert audit_second_paths(engine, 4)[1] == 840  # 675 + 0*155 + 3*165 - 2*165

    def test_g0_degree_three(self, engine):
        assert engine.g0(3) == Fraction(24 - 20 + 2, 2) == 3

    def test_g0_two_paths_agree(self, engine):
        # From d = 1: the stride-3 walk then starts on the rows n = -1, 2.
        for d in range(1, 13):
            assert engine.g0(d) == audit_second_paths(engine, d)[2]

    def test_g1_degree_four(self, engine):
        # (840 - 1012.5 + 1240 + 82.5 + 2)/2 = 1152/2 = 576.
        assert engine.g1(4) == 576

    def test_g1_degenerate_at_degree_three(self, engine):
        # (0 - 9/2 + 5 + 0 + 2)/2 = 5/4, deliberately not an integer.
        assert engine.g1(3) == Fraction(5, 4)

    def test_ramification_residual_degree_four(self, engine):
        assert audit._ramification_residual(engine, 4) == Fraction(2015, 2)


class TestGoldenAgreement:
    NAME_TO_METHOD = {
        "n0": "n0",
        "n1": "n1",
        "omega": "omega",
        "m": "m_invariant",
        "nodes": "reducible_fibre_count",
        "rcount": "reducible_fibre_count",
        "lr": "lr",
        "k0": "k0",
        "k0_printed": "k0_printed",
        "k1": "k1",
        "g0": "g0",
        "g1": "g1",
    }

    @classmethod
    def accessor(cls, name):
        """(engine, d) -> the value that ``name`` denotes in the golden file:
        an engine method, or for k1_via_c2 and ramification_residual the
        audit's second path and probe."""
        if name == "k1_via_c2":
            return lambda engine, d: audit_second_paths(engine, d)[1]
        if name == "ramification_residual":
            return audit._ramification_residual
        return lambda engine, d: getattr(engine, cls.NAME_TO_METHOD[name])(d)

    def test_every_golden_entry(self, engine, golden):
        for name in [*self.NAME_TO_METHOD, "k1_via_c2", "ramification_residual"]:
            accessor = self.accessor(name)
            for d_str, expected in golden[name].items():
                actual = accessor(engine, int(d_str))
                assert actual == Fraction(expected), (name, d_str)

    def test_live_oracle_spot_checks_beyond_golden_range(self, engine):
        assert engine.k0(13) == oracle.k0(13)
        assert engine.g1(13) == oracle.g1(13)
        residual = audit._ramification_residual(engine, 13)
        assert residual == oracle.ramification_residual(13)

    @pytest.mark.parametrize("name", [
        "n0", "n1", "omega", "m", "nodes", "rcount", "lr", "k0", "k0_printed", "k1",
        "k1_via_c2", "g0", "g1", "ramification_residual",
    ])
    def test_live_oracle_agrees_from_degree_13_to_40(self, engine, name):
        # Both parities of d, so the paired sums' middle term d1 = d2 is hit.
        accessor = self.accessor(name)
        reference = getattr(oracle, "m_invariant" if name == "m" else name)
        for d in range(13, 41):
            assert accessor(engine, d) == reference(d), (name, d)

    @pytest.mark.slow
    def test_every_kind_equals_the_oracle_up_to_degree_300(self, engine):
        # Past d = 60 the tier-1 tests compare the engine with digests it
        # recorded itself; this holds every kind, N0 from its moments
        # included, to the oracle's retyped sums over full binomials.
        for d in range(1, 301):
            for kind in KIND_ORDER:
                name = _GOLDEN_NAME[kind]
                reference = getattr(oracle, "m_invariant" if name == "m" else name)
                assert engine.value(kind, d) == reference(d), (kind, d)


def _proof_sums(d):
    """(P_0, P_1, P_2, Q_0, Q_1, Q_2) of the proof of the NODES and LR
    forms in the engine's ``_moments`` docstring at degree d, summed from
    the oracle: P_k = sum d2^k C(n, 3d1-3) p and Q_k = sum d2^k
    C(n, 3d1-2) p over ordered pairs, n = 3d-4 and p = d1 d2 N0(d1)
    N0(d2)."""
    n, sums = 3 * d - 4, [0] * 6
    for d1, d2 in oracle.splittings(d):
        p = d1 * d2 * oracle.n0(d1) * oracle.n0(d2)
        for k in range(3):
            sums[k] += d2 ** k * oracle.c(n, 3 * d1 - 3) * p
            sums[3 + k] += d2 ** k * oracle.c(n, 3 * d1 - 2) * p
    return sums


class TestClosedForms:
    """NODES = RCOUNT = (3d + 6) m - 9 N0 and LR = 3 d m - 3 N0, the forms
    in m, and (d + 2) LR = d NODES + 6 (d - 1) N0, the form in NODES that
    the engine evaluates, and K0 = 12 (N0 - m), which the paper's assembly
    over them gives, against sums that share no code with them; the
    steps of their proof in the ``_moments`` docstring, with the same
    sums; the identities that move N0, T and the K0_PRINTED bracket onto
    the engine's half row, with the ratio rule that builds it; NODES, 2m
    and the bracket from the two moments S_0 and S_1 of one pair product,
    twice those of the engine's pair row; N0 from its moments s_1 and s_2;
    the seed of the sums at d = 1; and K1 = 12 (N1 - omega) and
    96 (G1 - 1) = 64 T + (d-1)(d-2)(11d-32) N0, the paper's K1 and G1
    with T, or N1 and K1, eliminated by the recursion of N1."""

    def test_the_half_row_identities_hold_from_degree_2_to_60(self):
        # Each sum over R(d1) = C(3d-2, 3 d1 - 1) against the oracle's own
        # value, summed over its own binomials, as the docstrings of n0
        # and n1 derive it, and the ratio rule that gives the bracket's
        # pair weight in k0_printed's docstring.
        for d in range(2, 61):
            n = 3 * d - 2

            def r(i):
                return oracle.c(n, 3 * i - 1)

            def a(k):
                return k * oracle.n0(k)

            n0_sum = t_sum = 0
            for i, j in oracle.splittings(d):
                k = 3 * i - 1
                assert r(i) == r(j), (d, i)
                assert (3 * d - 2) * oracle.c(n - 1, k) == (3 * j - 1) * r(i)
                assert 3 * j * oracle.c(n, k - 1) == (3 * i - 1) * r(i)
                # The extension by one entry.
                assert oracle.c(n, k + 3) * (k + 1) * (k + 2) * (k + 3) == (
                    r(i) * (n - k) * (n - k - 1) * (n - k - 2)
                )
                n0_sum += ((3 * d + 6) * i * j - 2 * d * d) * r(i) * a(i) * a(j)
                t_sum += r(i) * (3 * i - 2) * i * oracle.n0(i) * oracle.n1(j)
            assert 2 * (3 * d - 3) * (3 * d - 2) * oracle.n0(d) == n0_sum, d
            assert 3 * oracle.t_weighted(3, -2, d) == (3 * d - 1) * t_sum, d

    def test_the_moment_identities_hold_from_degree_2_to_60(self):
        # S_k = sum (d1 d2)^k q over ordered pairs, q = R(d1) N0(d1) N0(d2),
        # against the oracle's own 2m and NODES and a bracket summed over
        # its own binomials C(3d-2, 3 d1 - 2); and the moments s_k that
        # n0's loop sums over the unordered pairs, the middle pair at half
        # weight as the pair row holds it, are exactly half of them.
        for d in range(2, 61):
            s0 = s1 = bracket = 0
            half = [0, 0]
            for i, j in oracle.splittings(d):
                p = oracle.n0(i) * oracle.n0(j)
                q = oracle.c(3 * d - 2, 3 * i - 1) * p
                s0 += q
                s1 += i * j * q
                bracket += i * j * p * (3 * j - 2) * oracle.c(3 * d - 2, 3 * i - 2)
                if i <= j:
                    weight = Fraction(1, 2) if i == j else 1
                    half[0] += weight * q
                    half[1] += weight * i * j * q
            n0, two_m = oracle.n0(d), 2 * oracle.m_invariant(d)
            assert s1 == 2 * oracle.nodes(d), d
            assert (3 * d + 6) * two_m == s1 + 18 * n0, d
            assert 6 * bracket == 3 * (3 * d + 2) * s1 - 2 * d * (3 * d - 1) * s0, d
            assert oracle.k0_printed(d) == 3 * n0 - bracket + Fraction(3, 2) * two_m, d
            assert [2 * x for x in half] == [s0, s1], d

    def test_n0_is_a_moment_identity_from_degree_2_to_60(self):
        # The moments s_k = sum (d1 d2)^k q of the n0 docstring, over the
        # unordered pairs with the middle pair at half weight, q =
        # C(3d-2, 3 d1 - 1) N0(d1) N0(d2), summed from the oracle's own N0
        # and binomials, give its N0 by the identity n0 evaluates.
        for d in range(2, 61):
            s = [0, 0, 0]
            for i, j in oracle.splittings(d):
                if i <= j:
                    q = oracle.c(3 * d - 2, 3 * i - 1) * oracle.n0(i) * oracle.n0(j)
                    weight = Fraction(1, 2) if i == j else 1
                    for k in range(3):
                        s[k] += weight * (i * j) ** k * q
            assert (3 * d - 3) * (3 * d - 2) * oracle.n0(d) == (
                (3 * d + 6) * s[2] - 2 * d * d * s[1]
            ), d

    def test_the_proof_steps_hold_from_degree_2_to_60(self):
        for d in range(2, 61):
            n0, m = oracle.n0(d), oracle.m_invariant(d)
            p0, p1, p2, q0, q1, q2 = _proof_sums(d)
            assert q0 == 2 * m, d
            assert p1 == 2 * d * m - 3 * n0, d
            assert p0 == (3 * d + 4) * m - 9 * n0, d
            assert 3 * p1 - p0 == (3 * d - 2) * q0 - 3 * q1, d
            assert 3 * p2 - p1 == (3 * d - 2) * q1 - 3 * q2, d
            # n0's ordered bracket, reduced by the ratio rule.
            bracket = sum(
                d1 * (3 * d1 - d) * oracle.c(3 * d - 3, 3 * d1 - 1)
                * d1 * oracle.n0(d1) * d2 * oracle.n0(d2)
                for d1, d2 in oracle.splittings(d)
            )
            assert (3 * d - 3) * n0 == bracket, d

    def test_only_the_forms_in_m_fail_at_degree_1_where_the_sums_are_seeded(
        self, engine
    ):
        # Every sum is empty at d = 1, but N0(1) = 1 is the recursion's seed,
        # not its value, so the forms in m give NODES = -9 and LR = -3, and
        # read backwards 2m = 2: the engine seeds the triple (NODES, 2m, B)
        # of d = 1 as the empty sums, (0, 0, 0).  LR's form in NODES gives
        # 3 LR = 0 + 0, so lr needs no seed.
        n0, m = oracle.n0(1), oracle.m_invariant(1)
        assert list(oracle.splittings(1)) == []
        assert oracle.nodes(1) == oracle.rcount(1) == oracle.lr(1) == m == 0
        bracket = 3 * n0 - oracle.k0_printed(1) + 3 * m
        assert InvariantEngine()._sums[1] == (oracle.nodes(1), 2 * m, bracket) == (0, 0, 0)
        assert ((3 + 6) * m - 9 * n0, 3 * m - 3 * n0) == (-9, -3)
        assert 2 * oracle.nodes(1) + 18 * n0 == (3 + 6) * 2
        assert (1 + 2) * oracle.lr(1) == oracle.nodes(1) + 6 * 0 * n0 == 0
        assert engine.reducible_fibre_count(1) == engine.lr(1) == engine.m_invariant(1) == 0
        assert engine.k0(1) == 3 * n0

    def test_the_forms_match_the_oracle_sums_up_to_degree_40(self):
        # The engine against the oracle is pinned by the golden and
        # live-oracle tests; this pins the forms themselves: LR's form in
        # NODES from d = 1, the forms in m from d = 2.
        for d in range(1, 41):
            n0, m, nodes = oracle.n0(d), oracle.m_invariant(d), oracle.nodes(d)
            assert (d + 2) * oracle.lr(d) == d * nodes + 6 * (d - 1) * n0, d
            if d > 1:
                assert nodes == oracle.rcount(d) == (3 * d + 6) * m - 9 * n0, d
                assert oracle.lr(d) == 3 * d * m - 3 * n0, d
                assert oracle.k0(d) == 12 * (n0 - m), d

    def test_k1_and_g1_are_the_paper_forms_with_t_or_n1_eliminated(self):
        # The oracle's K1 and G1, the paper's forms over its own T, against
        # the int forms the engine evaluates, which the recursion of N1
        # gives: T eliminated from K1, N1 and K1 from G1.
        for d in range(1, 61):
            n0, n1, t = oracle.n0(d), oracle.n1(d), oracle.t_weighted(3, -2, d)
            assert oracle.k1(d) == 12 * n1 - comb(d - 1, 2) * n0, d
            assert oracle.k1(d) == 12 * (n1 - oracle.omega(d)), d
            assert 96 * oracle.g1(d) == (
                64 * t + (d - 1) * (d - 2) * (11 * d - 32) * n0 + 96
            ), d

    def test_the_audit_sums_match_the_engine_at_two_degrees(self, engine):
        # Both parities of d, so the middle pair d1 = d2 is hit; T too, the
        # engine's folded over C(3d-2, .) and the audit's ordered over
        # C(3d-1, .).
        for d in (40, 41):
            t, _, _, nodes, rcount, lr, m = audit_second_paths(engine, d)
            assert (t, nodes, rcount, lr, m) == (
                engine.t_op(d), engine.reducible_fibre_count(d),
                engine.value(InvariantKind.RCOUNT, d), engine.lr(d),
                engine.m_invariant(d),
            )

    @pytest.mark.slow
    def test_the_forms_match_the_audit_sums_up_to_the_ceiling(self, engine):
        # The engine's NODES, the moment s_1, and 2m and LR, read from it
        # by their forms, against the audit's direct sums at every degree
        # of the domain, and K0 against the paper's five-term assembly of
        # those sums.
        engine.n0(MAX_DEGREE)
        n0 = [0, *(engine.n0(k).numerator for k in range(1, MAX_DEGREE + 1))]
        a = [k * x for k, x in enumerate(n0)]
        for d in range(2, MAX_DEGREE + 1):
            two_m, two_nodes, rcount, lr = audit._splitting_sums(a, d, audit_rows(d))
            two_k0 = 6 * n0[d] - 3 * d * two_m + 6 * lr - 2 * rcount - two_nodes
            assert engine.m_invariant(d) == Fraction(two_m, 2), d
            assert engine.reducible_fibre_count(d) == Fraction(two_nodes, 2), d
            assert engine.value(InvariantKind.RCOUNT, d) == rcount, d
            assert engine.lr(d) == lr, d
            assert engine.k0(d) == Fraction(two_k0, 2), d


class TestFoldedT:
    """T as the engine sums it: the ordered sum over C(3d-1, .) moved by
    the ratio rule onto the row C(3d-2, .), which the swap d1 <-> d2
    keeps, and folded onto the unordered pairs (the ``n1`` docstring),
    against the oracle's own T, the ordered sum as the paper prints it."""

    def test_the_fold_gives_the_oracle_t_from_degree_1_to_60(self, engine):
        # Both parities of d, so the middle pair d1 = d2 is hit.
        def u(k):
            return (3 * k - 2) * k * oracle.n0(k)

        for d in range(1, 61):
            folded = 0
            for d1, d2 in oracle.splittings(d):
                row = oracle.c(3 * d - 2, 3 * d1 - 1)
                assert 3 * d2 * oracle.c(3 * d - 1, 3 * d1 - 1) == (3 * d - 1) * row
                assert row == oracle.c(3 * d - 2, 3 * d2 - 1), (d, d1)
                if d1 < d2:
                    folded += row * (u(d1) * oracle.n1(d2) + u(d2) * oracle.n1(d1))
                elif d1 == d2:
                    folded += row * u(d1) * oracle.n1(d2)
            t = oracle.t_weighted(3, -2, d)
            assert 3 * t == (3 * d - 1) * folded, d
            assert engine.t_op(d) == t, d

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_term_vanishes_up_to_degree_3(self, engine, d):
        # Every pair has a factor N1(1) = N1(2) = 0, so no base value of
        # N1 is needed.
        assert all(
            oracle.n1(d1) == oracle.n1(d2) == 0 for d1, d2 in oracle.splittings(d)
        )
        assert oracle.t_weighted(3, -2, d) == engine.t_op(d) == 0


def _assert_untouched(engine):
    """No count, scaled count, T entry or splitting sum was computed, and no
    pair row was built: the whole state is a fresh engine's."""
    assert vars(engine) == vars(InvariantEngine())


_PER_DEGREE_METHODS = (
    "n0", "n1", "t_op", "omega", "m_invariant", "reducible_fibre_count", "lr",
    "k0", "k0_printed", "k1", "g0", "g1",
)
_PER_DEGREE_CALLS = [
    *((name, lambda engine, d, name=name: getattr(engine, name)(d))
      for name in _PER_DEGREE_METHODS),
    *((f"value({kind.value})", lambda engine, d, kind=kind: engine.value(kind, d))
      for kind in KIND_ORDER),
    # The audit's probe, which reads the engine at d, and its second paths
    # fed with the values of d that run_identity_suite reads for them; the
    # direct sums read only lists below d, and their degree comes from
    # run_identity_suite's range, whose d_max run_full_audit checks first.
    ("audit._k1_via_c2",
     lambda engine, d: audit._k1_via_c2(engine.n1(d), engine.omega(d), 0, d)),
    ("audit._ramification_residual", audit._ramification_residual),
    ("audit._g0_from_splitting_sum",
     lambda engine, d: audit._g0_from_splitting_sum(engine.n0(d), (0, 0, 0, 0), d)),
]


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
        # marked point (Pascal plus symmetry at the binomial level): the
        # oracle's RCOUNT sum against the engine's NODES.
        for d in range(2, 13):
            assert oracle.rcount(d) == engine.reducible_fibre_count(d)

    def test_k1_two_path_equality(self, engine):
        for d in range(3, 13):
            assert engine.k1(d) == audit_second_paths(engine, d)[1]

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

    @pytest.mark.parametrize("bad", [0, 1, 2, 3.0, True, "3", None, MAX_DEGREE + 1])
    def test_the_full_audit_refuses_a_bad_d_max_before_any_work(self, engine, bad):
        with pytest.raises(ValueError):
            run_full_audit(engine, bad)
        _assert_untouched(engine)

    def test_degree_must_be_an_integer(self, engine):
        with pytest.raises(ValueError):
            engine.n0(3.0)
        with pytest.raises(ValueError):
            engine.n0(True)

    @pytest.mark.parametrize("bad", [0, -1, 3.0, True, "3", None, MAX_DEGREE + 1])
    @pytest.mark.parametrize(
        "call", [call for _, call in _PER_DEGREE_CALLS],
        ids=[name for name, _ in _PER_DEGREE_CALLS],
    )
    def test_every_per_degree_entry_refuses_a_bad_degree_before_any_work(
        self, call, bad
    ):
        engine = InvariantEngine()
        with pytest.raises(ValueError):
            call(engine, bad)
        _assert_untouched(engine)
        # Once degrees 1 and 3 are cached, True and 3.0 (which hash like
        # 1 and 3) must still be refused, and nothing stored may change.
        for _, warm_up in _PER_DEGREE_CALLS:
            warm_up(engine, 3)
            warm_up(engine, 1)
        state = copy.deepcopy(vars(engine))
        with pytest.raises(ValueError):
            call(engine, bad)
        assert vars(engine) == state


class TestDomainStatus:
    def test_counts_are_always_in_domain(self):
        for d in (1, 2, 3, 10):
            for kind in (InvariantKind.N0, InvariantKind.N1, InvariantKind.OMEGA):
                assert domain_status(kind, d) is None

    def test_splitting_statistics_start_at_degree_two(self):
        for kind in (
            InvariantKind.M,
            InvariantKind.NODES,
            InvariantKind.RCOUNT,
            InvariantKind.LR,
            InvariantKind.K0_PRINTED,
        ):
            assert domain_status(kind, 1) == BELOW_MIN_DEGREE
            assert domain_status(kind, 2) is None

    def test_cuspidal_rational_count_degenerates_below_three(self):
        for d in (1, 2):
            assert domain_status(InvariantKind.K0, d) == DEGENERATE_GEOMETRY
        assert domain_status(InvariantKind.K0, 3) is None

    def test_elliptic_derived_invariants(self):
        for kind in (InvariantKind.K1, InvariantKind.G0):
            assert domain_status(kind, 2) == BELOW_MIN_DEGREE
            assert domain_status(kind, 3) is None
        assert domain_status(InvariantKind.G1, 2) == BELOW_MIN_DEGREE
        assert domain_status(InvariantKind.G1, 3) == DEGENERATE_GEOMETRY
        assert domain_status(InvariantKind.G1, 4) is None

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
        value, reason = engine.evaluate(InvariantKind.G1, 3)
        assert value == Fraction(5, 4)
        assert reason == DEGENERATE_GEOMETRY

    def test_evaluate_returns_value_with_status_for_every_kind(self, engine, golden):
        for kind in KIND_ORDER:
            value, reason = engine.evaluate(kind, 3)
            assert reason in (None, BELOW_MIN_DEGREE, DEGENERATE_GEOMETRY)
            assert reason == domain_status(kind, 3)
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
