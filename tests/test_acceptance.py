"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (visible with ``pytest -s tests/test_acceptance.py``).

Every expected number below is either hand-derived (the derivation is
recorded next to the assertion) or frozen from the independent oracle
(tests/oracle.py) into tests/golden/invariants_d12.json before the
package was written.  All comparisons are exact; tolerances are zero.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

import oracle
from conftest import audit_second_paths
from severi import InvariantEngine, InvariantKind, KIND_ORDER
from severi.audit import (
    CheckKind, CheckStatus, _ramification_residual, run_full_audit,
)


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {label}")
                raise
            print(f"[PASS] criterion {number}: {label}")
            return result

        return wrapper

    return decorate


def best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@criterion(1, "degree-3 rational cusp anchor: eval K0 3 prints 24, < 1 ms")
def test_criterion_1_cusp_anchor(run_cli):
    code, out, err = run_cli("eval", "K0", "3")
    assert code == 0 and err == ""
    assert out == "24\n"
    assert best_time(lambda: InvariantEngine().k0(3)) < 1e-3


@criterion(2, "rational degrees d=1..6 match the committed oracle values, < 10 ms")
def test_criterion_2_rational_degrees(golden):
    expected = [1, 1, 12, 620, 87304, 26312976]
    engine = InvariantEngine()
    assert [engine.n0(d) for d in range(1, 7)] == expected
    assert [Fraction(golden["n0"][str(d)]) for d in range(1, 7)] == expected
    assert best_time(lambda: [InvariantEngine().n0(d) for d in range(1, 7)]) < 1e-2


@criterion(3, "elliptic counts n1(3)=1, n1(4)=225, n1(5)=87192")
def test_criterion_3_elliptic_counts(engine):
    # d=3: (1/12) C(3,3) N0(3) = 12/12 = 1; the splitting sum vanishes
    #      because every term carries an elliptic factor of degree <= 2.
    assert engine.n1(3) == 1
    # d=4: (1/12)*4*620 + (1/9)*1*3*C(11,2)*1*1 = 620/3 + 55/3 = 225.
    assert engine.n1(4) == 225
    # d=5: (1/12)*10*87304 + (1/9)*4*C(14,2)*1*225 + (4/9)*6*C(14,5)*1*1
    #    = 218260/3 + 9100 + 48048/9 = (654780 + 81900 + 48048)/9 = 87192.
    assert engine.n1(5) == 87192


@criterion(4, "cuspidal elliptic counts and two-path equality through d=12")
def test_criterion_4_cuspidal_elliptic(engine):
    # Cuspidal cubics are rational, so no 1-cuspidal elliptic cubic:
    # 3*1 + (2*1*(-1)/8)*12 + T = 3 - 3 + 0 = 0.
    assert engine.k1(3) == 0
    # 3*225 + 0 + 1*1*3*C(11,2) = 675 + 165 = 840.
    assert engine.k1(4) == 840
    for d in range(3, 13):
        assert engine.k1(d) == audit_second_paths(engine, d)[1]


@criterion(5, "linear genus g0(3)=3, cross-derived two independent ways")
def test_criterion_5_linear_genus(engine):
    # Path 1: the section relation with the anchored cusp count,
    # (K0(3) - 2 m(3) + 2)/2 = (24 - 20 + 2)/2.
    assert engine.k0(3) == 24 and engine.m_invariant(3) == 10
    assert engine.g0(3) == 3
    # Path 2: classical discriminant-curve count.  The discriminant of
    # a general net of cubics is a degree-12 plane curve of arithmetic
    # genus C(11,2) = 55 with 21 binodal-cubic nodes, 7 base-point
    # nodes, and 24 cusps; its geometric genus is 55 - 28 - 24 = 3.
    arithmetic_genus = 11 * 10 // 2
    assert arithmetic_genus == 55
    assert arithmetic_genus - (21 + 7) - 24 == 3
    assert engine.g0(3) == arithmetic_genus - 28 - 24


@criterion(6, "documented discrepancies reproduce: -60 probe and 2015/2 residual")
def test_criterion_6_discrepancy_reproduction(engine):
    assert engine.k0_printed(3) == -60
    assert _ramification_residual(engine, 4) == Fraction(2015, 2)
    report = run_full_audit(InvariantEngine(), 5)
    probe = next(c for c in report.checks if c.id == "k0_printed_vs_anchor")
    assert probe.kind is CheckKind.DISCREPANCY_PROBE
    assert probe.status is CheckStatus.INFO
    assert probe.actual == -60
    residual = next(
        c for c in report.checks if c.id == "ramification_residual" and c.degree == 4
    )
    assert residual.status is CheckStatus.INFO
    assert residual.actual == Fraction(2015, 2)
    assert report.summary["FAIL"] == 0
    assert not report.has_blocking_failure


@criterion(7, "property suite over 2 <= d <= 12, exact, < 5 s")
def test_criterion_7_property_suite():
    start = time.perf_counter()
    engine = InvariantEngine()
    for d in range(2, 13):
        assert oracle.rcount(d) == engine.reducible_fibre_count(d)
        assert engine.n0(d).denominator == 1
        assert engine.n1(d).denominator == 1
        if d >= 3:
            assert engine.k0(d).denominator == 1
            assert engine.k1(d).denominator == 1
            assert engine.g0(d).denominator == 1
    # Cold/warm cache determinism under a shuffled query order.
    warm = InvariantEngine()
    queries = [(kind, d) for kind in KIND_ORDER for d in range(1, 13)]
    random.Random(20250809).shuffle(queries)
    for kind, d in queries:
        warm.value(kind, d)
    cold = InvariantEngine()
    for kind in KIND_ORDER:
        for d in range(1, 13):
            assert cold.value(kind, d) == warm.value(kind, d)
    assert time.perf_counter() - start < 5.0


@criterion(8, "I/O contract: byte-deterministic tables")
def test_criterion_8_io_contract(run_cli):
    # Byte determinism across repeated runs, both formats.
    csv_runs = {run_cli("table", "--d-max", "12")[1] for _ in range(2)}
    json_runs = {
        run_cli("table", "--d-max", "12", "--format", "json")[1] for _ in range(2)
    }
    assert len(csv_runs) == 1 and len(json_runs) == 1
