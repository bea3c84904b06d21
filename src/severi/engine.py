"""Memoized exact computation of the plane-curve invariants.

The engine computes, for each degree d >= 1:

* ``n0``  -- rational curves of degree d through 3d-1 general points,
  via the standard ordered-pair splitting recursion;
* ``n1``  -- elliptic curves through 3d points, via the closed
  recursion built on ``n0``;
* the T-operator (affine-weighted splitting convolution) and the
  derived quantities ``omega``, ``m``, the splitting-fibre statistics,
  the one-cuspidal counts ``k0``/``k1`` (each with an independent
  second evaluation path), and the linear genera ``g0``/``g1``.

All values are exact.  The recursions and every splitting sum run on
plain ``int``: N0 and N1 are stored as integer lists, N1 is carried as
36 N1 and reduced by exact division, and T is stored as the integer
pair (T(d1), T(1)) per degree.  ``Fraction`` appears only in the
O(1)-per-degree assembly steps where a value can be fractional (halved
ordered sums, twelfth-type coefficients); public methods return
``Fraction``.  Integrality is asserted only at final invariant
boundaries and is reported, never silently enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Callable, NamedTuple

from .exact import (
    ExactScalar,
    LinearWeight,
    WEIGHT_3D1_MINUS_2,
    WEIGHT_D1,
    WEIGHT_ONE,
    exact_div,
    is_integral,
)

# Largest degree any query may ask for, checked before any work starts.
# It lies just past d = 572, where N0 first passes 4300 decimal digits
# (Python's default int<->str limit).  The run time grows roughly as d^4
# (``eval N0 572`` takes about 18 s on a 2-core Xeon VM, Python 3.11), so
# degrees far beyond the ceiling would run for hours.
MAX_DEGREE = 600


class InvariantKind(str, Enum):
    """The invariants the table and CLI surfaces expose."""

    N0 = "N0"
    N1 = "N1"
    K0 = "K0"
    K0_PRINTED = "K0_PRINTED"
    K1 = "K1"
    G0 = "G0"
    G1 = "G1"
    OMEGA = "OMEGA"
    M = "M"
    NODES = "NODES"
    RCOUNT = "RCOUNT"
    LR = "LR"


# Canonical emission order: headline invariants first, then the audit
# and splitting statistics.
KIND_ORDER: tuple[InvariantKind, ...] = (
    InvariantKind.N0,
    InvariantKind.N1,
    InvariantKind.K0,
    InvariantKind.K1,
    InvariantKind.G0,
    InvariantKind.G1,
    InvariantKind.OMEGA,
    InvariantKind.M,
    InvariantKind.K0_PRINTED,
    InvariantKind.NODES,
    InvariantKind.RCOUNT,
    InvariantKind.LR,
)

BELOW_MIN_DEGREE = "BELOW_MIN_DEGREE"
DEGENERATE_GEOMETRY = "DEGENERATE_GEOMETRY"

# Integrality classes of KindSpec.integrality.
REQUIRED = "required"  # a non-integral value is an audit FAIL
REPORTED = "reported"  # integrality is reported as INFO only


class KindSpec(NamedTuple):
    """How one invariant is evaluated, where it is meaningful, and how
    the audit treats its integrality (None: not scanned)."""

    method: str
    min_degree: int
    integrality: str | None


KIND_SPEC: dict[InvariantKind, KindSpec] = {
    InvariantKind.N0: KindSpec("n0", 1, REQUIRED),
    InvariantKind.N1: KindSpec("n1", 1, REQUIRED),
    InvariantKind.K0: KindSpec("k0", 3, REQUIRED),
    InvariantKind.K0_PRINTED: KindSpec("k0_printed", 2, None),
    InvariantKind.K1: KindSpec("k1", 3, REQUIRED),
    InvariantKind.G0: KindSpec("g0", 3, REQUIRED),
    InvariantKind.G1: KindSpec("g1", 4, REPORTED),
    InvariantKind.OMEGA: KindSpec("omega", 1, REPORTED),
    InvariantKind.M: KindSpec("m_invariant", 2, REPORTED),
    InvariantKind.NODES: KindSpec("reducible_fibre_count", 2, None),
    InvariantKind.RCOUNT: KindSpec("r_component_count", 2, None),
    InvariantKind.LR: KindSpec("lr", 2, None),
}


@dataclass(frozen=True)
class DomainStatus:
    """Validity flag attached to every invariant query.

    Out-of-domain queries still evaluate the defining formula (it is
    total); the flag records why the value carries no geometric weight.
    """

    in_domain: bool
    reason: str | None = None


IN_DOMAIN = DomainStatus(True)


def domain_status(kind: InvariantKind, d: int) -> DomainStatus:
    """Domain flag for (invariant, degree); pure function of its inputs."""
    _check_degree(d)
    if kind is InvariantKind.K0 and d < 3:
        # One-cuspidal rational curves need degree >= 3; below that the
        # assembled formula evaluates but the geometry degenerates.
        return DomainStatus(False, DEGENERATE_GEOMETRY)
    if kind is InvariantKind.G1 and d == 3:
        # The one-parameter elliptic-cubic family is birational to the
        # plane; the genus formula evaluates to the non-integer 5/4.
        return DomainStatus(False, DEGENERATE_GEOMETRY)
    if d < KIND_SPEC[kind].min_degree:
        return DomainStatus(False, BELOW_MIN_DEGREE)
    return IN_DOMAIN


def _check_degree(d: int) -> None:
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"degree must be a positive integer, got {d!r}")
    if d > MAX_DEGREE:
        raise ValueError(f"degree {d} is above the ceiling {MAX_DEGREE}")


class InvariantEngine:
    """Exact invariant calculator.

    Values are computed bottom-up in the degree: the recursive counts
    ``n0``/``n1`` at degree d use only degrees below d, and every
    derived invariant at degree d uses only same-degree values of
    already-defined quantities, so memo correctness is by construction.
    N0, N1 and the T basis are integer lists indexed by degree (entry 0
    unused); derived values have one memo table per invariant.
    """

    def __init__(self) -> None:
        self._n0: list[int] = [0, 1]
        self._n1: list[int] = [0]
        self._t_basis: list[tuple[int, int]] = [(0, 0)]
        self._memo: dict[InvariantKind, dict[int, ExactScalar]] = {
            kind: {} for kind in InvariantKind
        }

    def _memoized(
        self, kind: InvariantKind, d: int, compute: Callable[[int], ExactScalar]
    ) -> ExactScalar:
        table = self._memo[kind]
        if d not in table:
            table[d] = compute(d)
        return table[d]

    # -- recursive counts ----------------------------------------------

    def n0(self, d: int) -> ExactScalar:
        """Rational curves of degree d through 3d-1 general points.

        N(1) = 1 and, over ordered splittings d1 + d2 = d,

            N(d) = sum N(d1) N(d2) [d1^2 d2^2 C(3d-4, 3d1-2)
                                    - d1^3 d2 C(3d-4, 3d1-1)].
        """
        _check_degree(d)
        n0 = self._n0
        for dd in range(len(n0), d + 1):
            n = 3 * dd - 4
            n0.append(sum(
                d1 * d1 * (dd - d1)
                * ((dd - d1) * comb(n, 3 * d1 - 2) - d1 * comb(n, 3 * d1 - 1))
                * n0[d1] * n0[dd - d1]
                for d1 in range(1, dd)
            ))
        return ExactScalar(n0[d])

    def n1(self, d: int) -> ExactScalar:
        """Elliptic curves of degree d through 3d general points.

            N1(d) = (1/12) C(d,3) N0(d)
                  + sum ((3 d1 - 2)/9) d1 d2 C(3d-1, 3 d1 - 1) N0(d1) N1(d2).

        The sum is T(3 d1 - 2) / 9, so one loop per degree fills both N1
        and the T basis, and 36 N1 = 3 C(d,3) N0 + 4 T(3 d1 - 2) is reduced
        by exact division (an ``ArithmeticError`` if N1 is not integral).
        The sum needs N1 only below d, so no base value is required; it
        evaluates to 0 for d = 1, 2 (no elliptic curves of degree < 3).
        """
        _check_degree(d)
        self.n0(d)
        n0, n1, basis = self._n0, self._n1, self._t_basis
        for dd in range(len(n1), d + 1):
            s1 = s0 = 0
            for d1 in range(1, dd):
                w = d1 * (dd - d1) * comb(3 * dd - 1, 3 * d1 - 1) * n0[d1] * n1[dd - d1]
                s1 += d1 * w
                s0 += w
            basis.append((s1, s0))
            n1.append(exact_div(3 * comb(dd, 3) * n0[dd] + 4 * (3 * s1 - 2 * s0), 36))
        return ExactScalar(n1[d])

    # -- the T-operator -------------------------------------------------

    def t_op(self, u: LinearWeight, d: int) -> ExactScalar:
        """Weighted splitting convolution

            T(u) = sum u(d1) d1 d2 C(3d-1, 3 d1 - 1) N0(d1) N1(d2)

        over ordered pairs d1 + d2 = d.  Linear in the weight u, so it is
        read off the stored basis as a T(d1) + b T(1).
        """
        _check_degree(d)
        self.n1(d)
        s1, s0 = self._t_basis[d]
        return ExactScalar(u.a * s1 + u.b * s0)

    def t_op_direct(self, u: LinearWeight, d: int) -> ExactScalar:
        """The T-operator summed term by term, without the stored basis.

        Audit-only and never memoized: it is the second path of the
        two-path checks that would otherwise read the basis twice.
        """
        _check_degree(d)
        if d >= 2:
            self.n1(d - 1)
        n0, n1 = self._n0, self._n1
        return ExactScalar(sum(
            u(d1) * d1 * (d - d1) * comb(3 * d - 1, 3 * d1 - 1) * n0[d1] * n1[d - d1]
            for d1 in range(1, d)
        ))

    # -- derived invariants ----------------------------------------------

    def _splitting_sum(self, d: int, n: int, k: int, a: int = 0, b: int = 1) -> int:
        """The one splitting kernel of the derived invariants:

            sum (a d2 + b) N0(d1) N0(d2) d1 d2 C(n, 3 d1 - k)

        over ordered pairs d1 + d2 = d (empty, hence 0, at d = 1).  Every
        caller passes n >= 3d - 4 and k <= 2, so both arguments of C are
        non-negative and ``math.comb`` needs no zero convention.
        """
        self.n0(d)
        n0 = self._n0
        return sum(
            (a * (d - d1) + b) * d1 * (d - d1) * comb(n, 3 * d1 - k)
            * n0[d1] * n0[d - d1]
            for d1 in range(1, d)
        )

    def omega(self, d: int) -> ExactScalar:
        """One-twelfth of the irreducible nodal fibre count:

            omega = (1/12) ((d-1)(d-2)/2) N0(d).

        12*omega counts the irreducible rational singular fibres of the
        one-parameter elliptic family (equivalently, the Euler number of
        the relatively minimal elliptic surface).
        """
        _check_degree(d)
        return self._memoized(
            InvariantKind.OMEGA,
            d,
            lambda dd: ExactScalar(1, 12)
            * ExactScalar((dd - 1) * (dd - 2), 2)
            * self.n0(dd),
        )

    def m_invariant(self, d: int) -> ExactScalar:
        """Negative self-intersection of a marked-point section:

            2m = sum N0(d1) N0(d2) d1 d2 C(3d-4, 3 d1 - 2).

        Empty sum (hence 0) at d = 1.
        """
        _check_degree(d)
        return self._memoized(
            InvariantKind.M,
            d,
            lambda dd: ExactScalar(self._splitting_sum(dd, 3 * dd - 4, 2), 2),
        )

    def reducible_fibre_count(self, d: int) -> ExactScalar:
        """Number of reducible (nodal) fibres of the rational family.

        Half the ordered sum of N0(d1) N0(d2) d1 d2 C(3d-2, 3 d1 - 1):
        the ordered sum counts each split fibre once per component, so
        halving converts it to an actual fibre count (the convention is
        pinned by the degree-3 cuspidal anchor).
        """
        _check_degree(d)
        return self._memoized(
            InvariantKind.NODES,
            d,
            lambda dd: ExactScalar(self._splitting_sum(dd, 3 * dd - 2, 1), 2),
        )

    def r_component_count(self, d: int) -> ExactScalar:
        """Reducible fibres counted by the degree d1 of the component
        through the first marked point:

            sum N0(d1) N0(d2) d1 d2 C(3d-3, 3 d1 - 2).

        Equals :meth:`reducible_fibre_count` exactly (each reducible
        fibre has exactly one component missing the marked point); the
        audit suite re-checks this at every degree.
        """
        _check_degree(d)
        return self._memoized(
            InvariantKind.RCOUNT,
            d,
            lambda dd: ExactScalar(self._splitting_sum(dd, 3 * dd - 3, 2)),
        )

    def lr(self, d: int) -> ExactScalar:
        """Total plane degree of the blown-down fibre components:

            sum d2 N0(d1) N0(d2) d1 d2 C(3d-3, 3 d1 - 2),

        i.e. the r-component sum weighted by the degree of the blown-down
        (unmarked) component.
        """
        _check_degree(d)
        return self._memoized(
            InvariantKind.LR,
            d,
            lambda dd: ExactScalar(self._splitting_sum(dd, 3 * dd - 3, 2, 1, 0)),
        )

    def k0(self, d: int) -> ExactScalar:
        """One-cuspidal rational curves through 3d-2 points (authoritative
        assembly path):

            K0 = 3 N0 - 3 d m + 3 LR - RCOUNT - NODES.

        The blown-down components are disjoint (-1)-curves, so their sum
        R has R^2 = -RCOUNT; subtracting the nodal-fibre count from the
        second Chern class assembly leaves the cusp count.  Anchored by
        the classical K0(3) = 24.
        """
        _check_degree(d)
        return self._memoized(
            InvariantKind.K0,
            d,
            lambda dd: 3 * self.n0(dd)
            - 3 * dd * self.m_invariant(dd)
            + 3 * self.lr(dd)
            - self.r_component_count(dd)
            - self.reducible_fibre_count(dd),
        )

    def k0_printed(self, d: int) -> ExactScalar:
        """Literal closed form for the rational cusp count:

            3 N0 - sum N0(d1) N0(d2) d1 d2 [(3 d2 - 2) C(3d-2, 3 d1 - 2)
                                            - (3/2) C(3d-4, 3 d1 - 2)].

        Audit-only evaluator: it yields -60 at d = 3 against the anchor
        24 and is kept verbatim so the discrepancy stays reproducible.
        """
        _check_degree(d)

        def compute(dd: int) -> ExactScalar:
            bracket = (
                self._splitting_sum(dd, 3 * dd - 2, 2, 3, -2)
                - ExactScalar(3, 2) * self._splitting_sum(dd, 3 * dd - 4, 2)
            )
            return 3 * self._n0[dd] - bracket

        return self._memoized(InvariantKind.K0_PRINTED, d, compute)

    def k1(self, d: int) -> ExactScalar:
        """One-cuspidal elliptic curves through 3d-1 points:

            K1 = 3 N1 + ((d-1)(d-2)(d-4)/8) N0 + T(3 d1 - 2).

        K1(1) = K1(2) = 0 (no elliptic curves of degree < 3); the
        formula itself already evaluates to 0 there.
        """
        _check_degree(d)
        return self._memoized(
            InvariantKind.K1,
            d,
            lambda dd: 3 * self.n1(dd)
            + ExactScalar((dd - 1) * (dd - 2) * (dd - 4), 8) * self.n0(dd)
            + self.t_op(WEIGHT_3D1_MINUS_2, dd),
        )

    def k1_via_c2(self, d: int) -> ExactScalar:
        """Independent evaluation path for ``k1`` through the Chern-class
        identity K1 + 12 omega + T(1) = 3 N1 + 3 d omega + 3 T(d1) - T(1):

            K1 = 3 N1 + (3d - 12) omega + 3 T(d1) - 2 T(1).

        Agrees with :meth:`k1` exactly (T-linearity plus the omega
        closed form); the audit suite checks the agreement degree by
        degree.  Not memoized, and T is summed directly rather than read
        from the basis :meth:`k1` uses, so the two paths stay independent.
        """
        _check_degree(d)
        return (
            3 * self.n1(d)
            + (3 * d - 12) * self.omega(d)
            + 3 * self.t_op_direct(WEIGHT_D1, d)
            - 2 * self.t_op_direct(WEIGHT_ONE, d)
        )

    def g0(self, d: int) -> ExactScalar:
        """Linear genus of the rational-curve family:

            g0 = (K0 - 2m + 2) / 2,

        from the section relation m + 2g - 2 = -m + K0.
        """
        _check_degree(d)
        return self._memoized(
            InvariantKind.G0,
            d,
            lambda dd: (self.k0(dd) - 2 * self.m_invariant(dd) + 2) / 2,
        )

    def g0_from_splitting_sum(self, d: int) -> ExactScalar:
        """Second path for ``g0``: 2g - 2 = K0 - sum N0 N0 d1 d2 C(3d-4, 3d1-2).

        The sum is 2m retyped as its own loop instead of the shared
        splitting kernel, so the two-path check only guards the kernel
        and the m assembly against drift; it is not an independent
        derivation of the genus.
        """
        _check_degree(d)
        self.n0(d)
        n0 = self._n0
        two_m = 0
        for d1 in range(1, d):
            d2 = d - d1
            two_m += n0[d1] * n0[d2] * d1 * d2 * comb(3 * d - 4, 3 * d1 - 2)
        return (self.k0(d) - two_m + 2) / 2

    def g1(self, d: int) -> ExactScalar:
        """Linear genus of the elliptic-curve family:

            2 g1 - 2 = K1 - (9/2) N1 + ((d-1)(d-2)(3d-4)/24) N0
                       + (1/2) T(3 d1 - 2).

        Valid for d >= 4.  At d = 3 the formula yields the non-integer
        5/4 (the family is birational to the plane and the ramification
        analysis degenerates); the value is computed and flagged, never
        silently corrected.
        """
        _check_degree(d)

        def compute(dd: int) -> ExactScalar:
            rhs = (
                self.k1(dd)
                - ExactScalar(9, 2) * self.n1(dd)
                + ExactScalar((dd - 1) * (dd - 2) * (3 * dd - 4), 24) * self.n0(dd)
                + self.t_op(WEIGHT_3D1_MINUS_2, dd) / 2
            )
            return (rhs + 2) / 2

        return self._memoized(InvariantKind.G1, d, compute)

    def ramification_residual(self, d: int) -> ExactScalar:
        """Residual of the candidate ramification identity

            2 g1 - 2 - K1  =?  (1/2)((3d - 9) omega - 9 N1 + T(3 d1 - 2))

        under the "9" reading of its ambiguous middle coefficient.  The
        residual does not vanish (2015/2 at d = 4); the discrepancy
        probe records it as a regression artifact.
        """
        _check_degree(d)
        lhs = 2 * self.g1(d) - 2 - self.k1(d)
        rhs = ExactScalar(1, 2) * (
            (3 * d - 9) * self.omega(d)
            - 9 * self.n1(d)
            + self.t_op(WEIGHT_3D1_MINUS_2, d)
        )
        return lhs - rhs

    # -- kind-indexed access ---------------------------------------------

    def value(self, kind: InvariantKind, d: int) -> ExactScalar:
        """The invariant's exact value (formula evaluated even when the
        degree is outside the invariant's geometric domain)."""
        return getattr(self, KIND_SPEC[kind].method)(d)

    def evaluate(self, kind: InvariantKind, d: int) -> tuple[ExactScalar, DomainStatus]:
        """Value together with its domain flag."""
        return self.value(kind, d), domain_status(kind, d)


__all__ = [
    "BELOW_MIN_DEGREE",
    "DEGENERATE_GEOMETRY",
    "DomainStatus",
    "IN_DOMAIN",
    "InvariantEngine",
    "InvariantKind",
    "KIND_ORDER",
    "KIND_SPEC",
    "KindSpec",
    "MAX_DEGREE",
    "REPORTED",
    "REQUIRED",
    "domain_status",
    "is_integral",
]
