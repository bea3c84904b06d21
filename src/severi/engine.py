"""Memoized exact computation of the plane-curve invariants.

The engine computes, for each degree d >= 1:

* ``n0``  -- rational curves of degree d through 3d-1 general points,
  via the standard ordered-pair splitting recursion;
* ``n1``  -- elliptic curves through 3d points, via the closed
  recursion built on ``n0``;
* the T-operator (the splitting convolution weighted by 3 d1 - 2) and
  the derived quantities ``omega``, ``m``, the splitting-fibre
  statistics, the one-cuspidal counts ``k0``/``k1``, and the linear
  genera ``g0``/``g1``; ``k1_via_c2``, ``t_op_direct`` and
  ``g0_from_splitting_sum`` are second paths that only the audit reads.

All values are exact.  The recursions and every splitting sum run on
plain ``int`` as dot products: N0 and N1 are integer lists, N1 is
carried as 36 N1 and reduced by exact division, T is one integer per
degree, and the splitting statistics are one tuple per degree.
``Fraction`` appears only in the O(1)-per-degree assembly steps where a
value can be fractional; public methods return ``Fraction``.
Integrality is asserted only at final invariant boundaries and is
reported, never silently enforced.

``n0``, ``n1`` (which advances N0 in lockstep) and the splitting sums
read a window of the full Pascal rows C(3d-4, .) and C(3d-1, .) of one
degree d, stepped by additions and seeded by ``exact.pascal_row`` only
after a non-sequential query.  The audit's second paths build their
binomials apart: ``t_op_direct`` takes a multiplicative
``exact.pascal_row`` of its own at every degree, and
``g0_from_splitting_sum`` per-term ``math.comb``.
"""

from __future__ import annotations

from enum import Enum
from functools import wraps
from math import comb
from operator import add, mul
from typing import Callable, Iterable, NamedTuple

from .exact import ExactScalar, exact_div, is_integral, pascal_row, pascal_step

# Largest degree any query may ask for, checked before any work starts.
# It lies just past d = 572, where N0 first passes 4300 decimal digits
# (Python's default int<->str limit).  The run time grows roughly as d^4
# (``eval N0 572`` takes about 3 s on a 2-core Xeon VM, Python 3.11), so
# degrees far beyond the ceiling would run for hours.
MAX_DEGREE = 600


def _pair_products(n0: list[int], d: int) -> Iterable[int]:
    """d1 d2 N0(d1) N0(d2) for the pairs d1 + d2 = d, d1 <= d2, lazily."""
    h = d // 2
    pairs = map(mul, range(1, h + 1), range(d - 1, d - h - 1, -1))
    return map(mul, pairs, map(mul, n0[1:h + 1], n0[d - 1:d - h - 1:-1]))


def _paired_sum(row: list[int], d: int, products: Iterable[int]) -> int:
    """Sum row[d1 - 1] d1 d2 N0(d1) N0(d2) over ordered pairs d1 + d2 = d:
    the row (entries past d - 1 ignored) is folded onto unordered pairs,
    middle term once, and dotted with :func:`_pair_products`."""
    m, h = (d - 1) // 2, d // 2
    return sum(map(mul, [*map(add, row[:m], row[d - 2::-1]), *row[m:h]], products))


class InvariantKind(str, Enum):
    """The invariants the table and CLI surfaces expose, declared in the
    canonical emission order: headline invariants first, then the audit
    and splitting statistics."""

    N0 = "N0"
    N1 = "N1"
    K0 = "K0"
    K1 = "K1"
    G0 = "G0"
    G1 = "G1"
    OMEGA = "OMEGA"
    M = "M"
    K0_PRINTED = "K0_PRINTED"
    NODES = "NODES"
    RCOUNT = "RCOUNT"
    LR = "LR"


KIND_ORDER: tuple[InvariantKind, ...] = tuple(InvariantKind)

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


class DomainStatus(NamedTuple):
    """Validity flag attached to every invariant query.

    Out-of-domain queries still evaluate the defining formula (it is
    total); the flag records why the value carries no geometric weight.
    """

    in_domain: bool
    reason: str | None = None


IN_DOMAIN = DomainStatus(True)


def domain_status(kind: InvariantKind | str, d: int) -> DomainStatus:
    """Domain flag for (invariant, degree); pure function of its inputs."""
    kind = InvariantKind(kind)
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


def _memoized(method: Callable[..., ExactScalar]) -> Callable[..., ExactScalar]:
    """Check the degree, then evaluate ``method`` once per engine and degree."""
    @wraps(method)
    def memoized(self: InvariantEngine, d: int) -> ExactScalar:
        _check_degree(d)
        table = self._memo.setdefault(method.__name__, {})
        if d not in table:
            table[d] = method(self, d)
        return table[d]

    return memoized


class InvariantEngine:
    """Exact invariant calculator.

    Values are computed bottom-up in the degree: the recursive counts
    ``n0``/``n1`` at degree d use only degrees below d, and every
    derived invariant at degree d uses only same-degree values of
    already-defined quantities, so memo correctness is by construction.
    N0, N1 and T are integer lists indexed by degree (entry 0 unused);
    the splitting statistics and K0, K1, G0, G1 are stored per degree.
    The binomial row window holds the rows of one degree only.
    """

    def __init__(self) -> None:
        self._n0: list[int] = [0, 1]
        self._n1: list[int] = [0]
        self._t: list[int] = [0]
        self._memo: dict[str, dict[int, ExactScalar]] = {}
        self._window: tuple[int, list[int], list[int]] = (0, [], [])

    def _rows(self, d: int) -> tuple[list[int], list[int]]:
        """Rows C(3d-4, .) and C(3d-1, .), the window's only rows.
        The next degree reuses C(3d-1, .); any other degree rebuilds from
        one multiplicative row.  Either way three addition steps follow."""
        at, low, high = self._window
        if at != d:
            low = high if at == d - 1 else pascal_row(3 * d - 4)
            high = pascal_step(pascal_step(pascal_step(low)))
            self._window = (d, low, high)
        return low, high

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
            low = self._rows(dd)[0]
            row = [
                d1 * ((dd - d1) * c2 - d1 * c1)
                for d1, c2, c1 in zip(range(1, dd), low[1::3], low[2::3])
            ]
            n0.append(_paired_sum(row, dd, _pair_products(n0, dd)))
        return ExactScalar(n0[d])

    def n1(self, d: int) -> ExactScalar:
        """Elliptic curves of degree d through 3d general points.

            N1(d) = (1/12) C(d,3) N0(d)
                  + sum ((3 d1 - 2)/9) d1 d2 C(3d-1, 3 d1 - 1) N0(d1) N1(d2).

        The sum is T(d) / 9, so one loop per degree fills both N1 and T,
        and 36 N1 = 3 C(d,3) N0 + 4 T(d) is reduced by exact division
        (an ``ArithmeticError`` naming the degree if N1 is not integral).
        N0 advances with it, so both read the same row window.
        The sum needs N1 only below d, so no base value is required; it
        evaluates to 0 for d = 1, 2 (no elliptic curves of degree < 3).
        """
        _check_degree(d)
        n0, n1, t = self._n0, self._n1, self._t
        for dd in range(len(n1), d + 1):
            self.n0(dd)
            high = self._rows(dd)[1]
            weights = [
                (3 * d1 - 2) * d1 * (dd - d1) * c
                for d1, c in zip(range(1, dd), high[2::3])
            ]
            s = sum(map(mul, weights, map(mul, n0[1:dd], n1[dd - 1:0:-1])))
            n1.append(exact_div(3 * comb(dd, 3) * n0[dd] + 4 * s, 36, dd))
            t.append(s)
        return ExactScalar(n1[d])

    # -- the T-operator -------------------------------------------------

    def t_op(self, d: int) -> ExactScalar:
        """Weighted splitting convolution

            T(d) = sum (3 d1 - 2) d1 d2 C(3d-1, 3 d1 - 1) N0(d1) N1(d2)

        over ordered pairs d1 + d2 = d, read from the list the N1 loop
        stores.
        """
        self.n1(d)
        return ExactScalar(self._t[d])

    @_memoized
    def t_op_direct(self, d: int) -> ExactScalar:
        """T(d) summed term by term, without reading the stored list.

        Audit-only: the second path of the two T checks.  It is memoized
        under its own key, so ``k1_via_c2`` and ``t_linearity`` share one
        pass per degree.  Its row C(3d-1, .) is a multiplicative
        ``exact.pascal_row`` built here at every degree; the stored T's is
        the window's, stepped by additions, so the paths share no row.
        """
        if d >= 2:
            self.n1(d - 1)
        n0, n1, row = self._n0, self._n1, pascal_row(3 * d - 1)[2::3]
        return ExactScalar(sum(
            (3 * d1 - 2) * d1 * (d - d1) * row[d1 - 1] * n0[d1] * n1[d - d1]
            for d1 in range(1, d)
        ))

    # -- derived invariants ----------------------------------------------

    @_memoized
    def _splitting_values(self, d: int) -> tuple[ExactScalar, ...]:
        """(M, NODES, RCOUNT, LR, K0_PRINTED) at degree d, memoized per degree.

        They are assembled from five splitting sums, each

            sum w d1 d2 C(n, 3 d1 - k) N0(d1) N0(d2)

        over ordered pairs d1 + d2 = d (0 at d = 1), with (n, k, w) noted
        by each row.  C(3d-3, .) and C(3d-2, .) are transient steps from
        the window's C(3d-4, .).  The five share the pair products.
        """
        self.n0(d)
        c4 = self._rows(d)[0]
        c3 = pascal_step(c4)
        c2 = pascal_step(c3)
        rows = [
            c4[1::3],  # 2m: (3d-4, 2, 1)
            c2[2::3],  # 2 NODES: (3d-2, 1, 1)
            c3[1::3],  # RCOUNT: (3d-3, 2, 1)
            # first sum of the K0_PRINTED bracket: (3d-2, 2, 3 d2 - 2)
            [(3 * (d - d1) - 2) * c for d1, c in zip(range(1, d), c2[1::3])],
            # LR: (3d-3, 2, d2)
            [(d - d1) * c for d1, c in zip(range(1, d), c3[1::3])],
        ]
        products = list(_pair_products(self._n0, d))
        two_m, two_nodes, rcount, s, lr = [
            _paired_sum(row, d, products) for row in rows
        ]
        k0_printed = 3 * self._n0[d] - (s - ExactScalar(3, 2) * two_m)
        return (ExactScalar(two_m, 2), ExactScalar(two_nodes, 2),
                ExactScalar(rcount), ExactScalar(lr), k0_printed)

    def omega(self, d: int) -> ExactScalar:
        """One-twelfth of the irreducible nodal fibre count:

            omega = (1/12) ((d-1)(d-2)/2) N0(d).

        12*omega counts the irreducible rational singular fibres of the
        one-parameter elliptic family (equivalently, the Euler number of
        the relatively minimal elliptic surface).
        """
        return self.n0(d) * ExactScalar((d - 1) * (d - 2), 24)

    def m_invariant(self, d: int) -> ExactScalar:
        """Negative self-intersection of a marked-point section:

            2m = sum N0(d1) N0(d2) d1 d2 C(3d-4, 3 d1 - 2).

        Empty sum (hence 0) at d = 1.
        """
        return self._splitting_values(d)[0]

    def reducible_fibre_count(self, d: int) -> ExactScalar:
        """Number of reducible (nodal) fibres of the rational family.

        Half the ordered sum of N0(d1) N0(d2) d1 d2 C(3d-2, 3 d1 - 1):
        the ordered sum counts each split fibre once per component, so
        halving converts it to an actual fibre count (the convention is
        pinned by the degree-3 cuspidal anchor).
        """
        return self._splitting_values(d)[1]

    def r_component_count(self, d: int) -> ExactScalar:
        """Reducible fibres counted by the degree d1 of the component
        through the first marked point:

            sum N0(d1) N0(d2) d1 d2 C(3d-3, 3 d1 - 2).

        Equals :meth:`reducible_fibre_count` exactly (each reducible
        fibre has exactly one component missing the marked point); the
        audit suite re-checks this at every degree.
        """
        return self._splitting_values(d)[2]

    def lr(self, d: int) -> ExactScalar:
        """Total plane degree of the blown-down fibre components:

            sum d2 N0(d1) N0(d2) d1 d2 C(3d-3, 3 d1 - 2),

        i.e. the r-component sum weighted by the degree of the blown-down
        (unmarked) component.
        """
        return self._splitting_values(d)[3]

    @_memoized
    def k0(self, d: int) -> ExactScalar:
        """One-cuspidal rational curves through 3d-2 points (authoritative
        assembly path):

            K0 = 3 N0 - 3 d m + 3 LR - RCOUNT - NODES.

        The blown-down components are disjoint (-1)-curves, so their sum
        R has R^2 = -RCOUNT; subtracting the nodal-fibre count from the
        second Chern class assembly leaves the cusp count.  Anchored by
        the classical K0(3) = 24.
        """
        return (
            3 * self.n0(d)
            - 3 * d * self.m_invariant(d)
            + 3 * self.lr(d)
            - self.r_component_count(d)
            - self.reducible_fibre_count(d)
        )

    def k0_printed(self, d: int) -> ExactScalar:
        """Literal closed form for the rational cusp count:

            3 N0 - sum N0(d1) N0(d2) d1 d2 [(3 d2 - 2) C(3d-2, 3 d1 - 2)
                                            - (3/2) C(3d-4, 3 d1 - 2)].

        Audit-only evaluator: it yields -60 at d = 3 against the anchor
        24 and is kept verbatim so the discrepancy stays reproducible.
        """
        return self._splitting_values(d)[4]

    @_memoized
    def k1(self, d: int) -> ExactScalar:
        """One-cuspidal elliptic curves through 3d-1 points:

            K1 = 3 N1 + ((d-1)(d-2)(d-4)/8) N0 + T(3 d1 - 2).

        K1(1) = K1(2) = 0 (no elliptic curves of degree < 3); the
        formula itself already evaluates to 0 there.
        """
        return (
            3 * self.n1(d)
            + ExactScalar((d - 1) * (d - 2) * (d - 4), 8) * self.n0(d)
            + self.t_op(d)
        )

    def k1_via_c2(self, d: int) -> ExactScalar:
        """Second evaluation path for ``k1``, from the Chern-class identity
        K1 + 12 omega + T(1) = 3 N1 + 3 d omega + 3 T(d1) - T(1), where
        T(u) is the splitting convolution weighted by u:

            K1 = 3 N1 + (3d - 12) omega + T(3 d1 - 2).

        With omega = (d-1)(d-2)/24 N0, the term (3d - 12) omega is the
        same polynomial in d times N0 as the ((d-1)(d-2)(d-4)/8) N0 of
        :meth:`k1`.  So the two paths differ only in that this one takes
        T from :meth:`t_op_direct` (binomials from a multiplicative
        ``exact.pascal_row``) and :meth:`k1` from the stored list (from
        the row window, stepped by additions): the ``k1_two_path`` check
        adds the omega closed form to what ``t_linearity`` checks, and
        nothing more.  Not memoized.
        """
        return (
            3 * self.n1(d)
            + (3 * d - 12) * self.omega(d)
            + self.t_op_direct(d)
        )

    @_memoized
    def g0(self, d: int) -> ExactScalar:
        """Linear genus of the rational-curve family:

            g0 = (K0 - 2m + 2) / 2,

        from the section relation m + 2g - 2 = -m + K0.
        """
        return (self.k0(d) - 2 * self.m_invariant(d) + 2) / 2

    def g0_from_splitting_sum(self, d: int) -> ExactScalar:
        """Second path for ``g0``: 2g - 2 = K0 - sum N0 N0 d1 d2 C(3d-4, 3d1-2).

        The sum is 2m retyped term by term with ``math.comb``, against the
        fused pass's 2m built from the row window, so the two-path check
        guards that pass and the m assembly against drift; both sides read
        the same K0, so it is not an independent derivation of the genus.
        """
        self.n0(d)
        n0 = self._n0
        two_m = 0
        for d1 in range(1, d):
            d2 = d - d1
            two_m += n0[d1] * n0[d2] * d1 * d2 * comb(3 * d - 4, 3 * d1 - 2)
        return (self.k0(d) - two_m + 2) / 2

    @_memoized
    def g1(self, d: int) -> ExactScalar:
        """Linear genus of the elliptic-curve family:

            2 g1 - 2 = K1 - (9/2) N1 + ((d-1)(d-2)(3d-4)/24) N0
                       + (1/2) T(3 d1 - 2).

        Valid for d >= 4.  At d = 3 the formula yields the non-integer
        5/4 (the family is birational to the plane and the ramification
        analysis degenerates); the value is computed and flagged, never
        silently corrected.
        """
        rhs = (
            self.k1(d)
            - ExactScalar(9, 2) * self.n1(d)
            + ExactScalar((d - 1) * (d - 2) * (3 * d - 4), 24) * self.n0(d)
            + self.t_op(d) / 2
        )
        return (rhs + 2) / 2

    def ramification_residual(self, d: int) -> ExactScalar:
        """Residual of the candidate ramification identity

            2 g1 - 2 - K1  =?  (1/2)((3d - 9) omega - 9 N1 + T(3 d1 - 2))

        under the "9" reading of its ambiguous middle coefficient.  The
        residual does not vanish (2015/2 at d = 4); the discrepancy
        probe records it as a regression artifact.
        """
        lhs = 2 * self.g1(d) - 2 - self.k1(d)
        rhs = ExactScalar(1, 2) * (
            (3 * d - 9) * self.omega(d)
            - 9 * self.n1(d)
            + self.t_op(d)
        )
        return lhs - rhs

    # -- kind-indexed access ---------------------------------------------

    def value(self, kind: InvariantKind, d: int) -> ExactScalar:
        """The invariant's exact value (formula evaluated even when the
        degree is outside the invariant's geometric domain)."""
        return getattr(self, KIND_SPEC[kind].method)(d)

    def evaluate(self, kind: InvariantKind, d: int) -> tuple[ExactScalar, DomainStatus]:
        """Value together with its domain flag; the kind and degree are
        checked before any work."""
        status = domain_status(kind, d)
        return self.value(kind, d), status


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
