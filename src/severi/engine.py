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

All values are exact rationals.  Intermediate values are legitimately
fractional (halved ordered sums, twelfth-type coefficients);
integrality is asserted only at final invariant boundaries and is
reported, never silently enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .exact import (
    ExactScalar,
    LinearWeight,
    WEIGHT_3D1_MINUS_2,
    WEIGHT_D1,
    WEIGHT_ONE,
    ZERO,
    binom,
    is_integral,
)


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


@dataclass(frozen=True)
class DomainStatus:
    """Validity flag attached to every invariant query.

    Out-of-domain queries still evaluate the defining formula (it is
    total); the flag records why the value carries no geometric weight.
    """

    in_domain: bool
    reason: str | None = None


IN_DOMAIN = DomainStatus(True)

# Minimum degree at which each invariant is geometrically meaningful.
_MIN_DEGREE: dict[InvariantKind, int] = {
    InvariantKind.N0: 1,
    InvariantKind.N1: 1,
    InvariantKind.OMEGA: 1,
    InvariantKind.M: 2,
    InvariantKind.NODES: 2,
    InvariantKind.RCOUNT: 2,
    InvariantKind.LR: 2,
    InvariantKind.K0_PRINTED: 2,
    InvariantKind.K0: 3,
    InvariantKind.K1: 3,
    InvariantKind.G0: 3,
    InvariantKind.G1: 4,
}


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
    if d < _MIN_DEGREE[kind]:
        return DomainStatus(False, BELOW_MIN_DEGREE)
    return IN_DOMAIN


def _check_degree(d: int) -> None:
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"degree must be a positive integer, got {d!r}")


def _splittings(d: int) -> Iterator[tuple[int, int]]:
    """Ordered pairs (d1, d2) of positive integers with d1 + d2 = d."""
    return ((d1, d - d1) for d1 in range(1, d))


class InvariantEngine:
    """Exact invariant calculator with one memo table per invariant.

    Values are computed bottom-up in the degree: the recursive counts
    ``n0``/``n1`` at degree d use only degrees below d, and every
    derived invariant at degree d uses only same-degree values of
    already-defined quantities, so memo correctness is by construction.
    """

    def __init__(self) -> None:
        self._memo: dict[InvariantKind, dict[int, ExactScalar]] = {
            kind: {} for kind in InvariantKind
        }

    # -- memo plumbing -------------------------------------------------

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
        table = self._memo[InvariantKind.N0]
        for dd in range(1, d + 1):
            if dd in table:
                continue
            if dd == 1:
                table[dd] = ExactScalar(1)
                continue
            total = ZERO
            for d1, d2 in _splittings(dd):
                total += table[d1] * table[d2] * (
                    d1 ** 2 * d2 ** 2 * binom(3 * dd - 4, 3 * d1 - 2)
                    - d1 ** 3 * d2 * binom(3 * dd - 4, 3 * d1 - 1)
                )
            table[dd] = total
        return table[d]

    def n1(self, d: int) -> ExactScalar:
        """Elliptic curves of degree d through 3d general points.

            N1(d) = (1/12) C(d,3) N0(d)
                  + sum ((3 d1 - 2)/9) d1 d2 C(3d-1, 3 d1 - 1) N0(d1) N1(d2).

        The sum needs N1 only below d, so no base value is required; it
        evaluates to 0 for d = 1, 2 (no elliptic curves of degree < 3).
        """
        _check_degree(d)
        self.n0(d)
        n0_table = self._memo[InvariantKind.N0]
        table = self._memo[InvariantKind.N1]
        for dd in range(1, d + 1):
            if dd in table:
                continue
            total = ExactScalar(1, 12) * binom(dd, 3) * n0_table[dd]
            for d1, d2 in _splittings(dd):
                total += (
                    ExactScalar(3 * d1 - 2, 9)
                    * d1 * d2
                    * binom(3 * dd - 1, 3 * d1 - 1)
                    * n0_table[d1] * table[d2]
                )
            table[dd] = total
        return table[d]

    # -- the T-operator -------------------------------------------------

    def t_op(self, u: LinearWeight, d: int) -> ExactScalar:
        """Weighted splitting convolution

            T(u) = sum u(d1) d1 d2 C(3d-1, 3 d1 - 1) N0(d1) N1(d2)

        over ordered pairs d1 + d2 = d.  Linear in the weight u.
        """
        _check_degree(d)
        if d >= 2:
            self.n0(d - 1)
            self.n1(d - 1)
        total = ZERO
        for d1, d2 in _splittings(d):
            total += (
                u(d1) * d1 * d2
                * binom(3 * d - 1, 3 * d1 - 1)
                * self._memo[InvariantKind.N0][d1]
                * self._memo[InvariantKind.N1][d2]
            )
        return total

    # -- derived invariants ----------------------------------------------

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

        def compute(dd: int) -> ExactScalar:
            self.n0(dd)
            n0_table = self._memo[InvariantKind.N0]
            total = ZERO
            for d1, d2 in _splittings(dd):
                total += (
                    n0_table[d1] * n0_table[d2]
                    * d1 * d2 * binom(3 * dd - 4, 3 * d1 - 2)
                )
            return total / 2

        return self._memoized(InvariantKind.M, d, compute)

    def reducible_fibre_count(self, d: int) -> ExactScalar:
        """Number of reducible (nodal) fibres of the rational family.

        Half the ordered sum of N0(d1) N0(d2) d1 d2 C(3d-2, 3 d1 - 1):
        the ordered sum counts each split fibre once per component, so
        halving converts it to an actual fibre count (the convention is
        pinned by the degree-3 cuspidal anchor).
        """
        _check_degree(d)

        def compute(dd: int) -> ExactScalar:
            self.n0(dd)
            n0_table = self._memo[InvariantKind.N0]
            total = ZERO
            for d1, d2 in _splittings(dd):
                total += (
                    n0_table[d1] * n0_table[d2]
                    * d1 * d2 * binom(3 * dd - 2, 3 * d1 - 1)
                )
            return total / 2

        return self._memoized(InvariantKind.NODES, d, compute)

    def r_component_count(self, d: int) -> ExactScalar:
        """Reducible fibres counted by the degree d1 of the component
        through the first marked point:

            sum N0(d1) N0(d2) d1 d2 C(3d-3, 3 d1 - 2).

        Equals :meth:`reducible_fibre_count` exactly (each reducible
        fibre has exactly one component missing the marked point); the
        audit suite re-checks this at every degree.
        """
        _check_degree(d)

        def compute(dd: int) -> ExactScalar:
            self.n0(dd)
            n0_table = self._memo[InvariantKind.N0]
            total = ZERO
            for d1, d2 in _splittings(dd):
                total += (
                    n0_table[d1] * n0_table[d2]
                    * d1 * d2 * binom(3 * dd - 3, 3 * d1 - 2)
                )
            return total

        return self._memoized(InvariantKind.RCOUNT, d, compute)

    def lr(self, d: int) -> ExactScalar:
        """Total plane degree of the blown-down fibre components:

            sum d2 N0(d1) N0(d2) d1 d2 C(3d-3, 3 d1 - 2),

        i.e. the r-component sum weighted by the degree of the blown-down
        (unmarked) component.
        """
        _check_degree(d)

        def compute(dd: int) -> ExactScalar:
            self.n0(dd)
            n0_table = self._memo[InvariantKind.N0]
            total = ZERO
            for d1, d2 in _splittings(dd):
                total += (
                    d2 * n0_table[d1] * n0_table[d2]
                    * d1 * d2 * binom(3 * dd - 3, 3 * d1 - 2)
                )
            return total

        return self._memoized(InvariantKind.LR, d, compute)

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
            self.n0(dd)
            n0_table = self._memo[InvariantKind.N0]
            total = ZERO
            for d1, d2 in _splittings(dd):
                total += n0_table[d1] * n0_table[d2] * d1 * d2 * (
                    (3 * d2 - 2) * binom(3 * dd - 2, 3 * d1 - 2)
                    - ExactScalar(3, 2) * binom(3 * dd - 4, 3 * d1 - 2)
                )
            return 3 * n0_table[dd] - total

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
        degree.  Not memoized: it exists to stay an independent path.
        """
        _check_degree(d)
        return (
            3 * self.n1(d)
            + (3 * d - 12) * self.omega(d)
            + 3 * self.t_op(WEIGHT_D1, d)
            - 2 * self.t_op(WEIGHT_ONE, d)
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
        """Second path for ``g0``: 2g - 2 = K0 - sum N0 N0 d1 d2 C(3d-4, 3d1-2),
        with the splitting sum recomputed inline instead of reusing m.
        Kept separate so the two-path audit check guards refactoring.
        """
        _check_degree(d)
        self.n0(d)
        n0_table = self._memo[InvariantKind.N0]
        total = ZERO
        for d1, d2 in _splittings(d):
            total += (
                n0_table[d1] * n0_table[d2]
                * d1 * d2 * binom(3 * d - 4, 3 * d1 - 2)
            )
        return (self.k0(d) - total + 2) / 2

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
        return getattr(self, _METHOD_NAME[kind])(d)

    def evaluate(self, kind: InvariantKind, d: int) -> tuple[ExactScalar, DomainStatus]:
        """Value together with its domain flag."""
        return self.value(kind, d), domain_status(kind, d)


_METHOD_NAME: dict[InvariantKind, str] = {
    InvariantKind.N0: "n0",
    InvariantKind.N1: "n1",
    InvariantKind.K0: "k0",
    InvariantKind.K0_PRINTED: "k0_printed",
    InvariantKind.K1: "k1",
    InvariantKind.G0: "g0",
    InvariantKind.G1: "g1",
    InvariantKind.OMEGA: "omega",
    InvariantKind.M: "m_invariant",
    InvariantKind.NODES: "reducible_fibre_count",
    InvariantKind.RCOUNT: "r_component_count",
    InvariantKind.LR: "lr",
}


def integrality_expected(kind: InvariantKind) -> bool:
    """Whether a non-integral value would be a hard failure (as opposed
    to a reportable curiosity, as for OMEGA, M, and flagged G1)."""
    return kind in (
        InvariantKind.N0,
        InvariantKind.N1,
        InvariantKind.K0,
        InvariantKind.K1,
        InvariantKind.G0,
    )


__all__ = [
    "BELOW_MIN_DEGREE",
    "DEGENERATE_GEOMETRY",
    "DomainStatus",
    "IN_DOMAIN",
    "InvariantEngine",
    "InvariantKind",
    "KIND_ORDER",
    "domain_status",
    "integrality_expected",
    "is_integral",
]
