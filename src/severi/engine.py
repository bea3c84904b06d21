"""Exact computation of the plane-curve invariants.

The engine computes, for each degree d >= 1:

* ``n0``  -- rational curves of degree d through 3d-1 general points,
  via the standard ordered-pair splitting recursion;
* ``n1``  -- elliptic curves through 3d points, via the closed
  recursion built on ``n0``;
* the T-operator (the splitting convolution weighted by 3 d1 - 2) and
  the derived quantities ``omega``, ``m``, the splitting-fibre
  statistics, the one-cuspidal counts ``k0``/``k1``, and the linear
  genera ``g0``/``g1``.

All values are exact.  The recursions and the splitting sums run on
plain ``int``: N0 and N1 are integer lists, N1 is carried as 36 N1 and
reduced by exact division, and NODES (= RCOUNT), 2m and the K0_PRINTED
bracket are one triple of ints per degree.  T is not stored: the N1 loop
sums it, and ``t_op`` reads it back from N1 by recursion (1).  Every sum
of degree d reads one pair row: the half row R(i) = C(3d-2, 3i-1),
1 <= i <= d/2, which the symmetry
C(3d-2, 3i-1) = C(3d-2, 3j-1), j = d - i, makes the row of every
unordered pair i <= j, with the middle pair i = j of an even d, which
has one order only, at half weight (see ``_row``).  Pascal's ratio rule
moves each sum's own binomials onto it.  Every sum over N0(i) N0(j) is
then a moment s_k = sum (ij)^k q of one pair product q = R(i) N0(i)
N0(j), and one loop per degree forms each q once and sums s_0, s_1 and
s_2 (see ``n0``): N0 is one exact division of (3d + 6) s_2 - 2d^2 s_1,
NODES is s_1, 2m is read from it by the NODES form (3d + 6) m - 9 N0,
proved in ``_moments``, and the bracket is read from s_0 and s_1.  LR is
one exact division of NODES, (d + 2) LR = d NODES + 6 (d - 1) N0, and K0
is the paper's assembly over them, which makes it 12 (N0 - m).  N1's
loop sums T as one dot product over i <= d/2 with u(i) N1(j) + u(j)
N1(i), from the scaled count u = (3d-2) d N0 that the N0 loop keeps, and
stores N1 alone (see ``n1``).  Recursion (1), 36 N1 = 3 C(d,3) N0 + 4 T,
makes T and N1 one fact, so ``t_op`` is the O(1) form 4 T = 36 N1 -
3 C(d,3) N0 over the stored N1.
Every derived value is one ``Fraction``: an ``int`` numerator over its
formula's own denominator, with no ``Fraction`` arithmetic and none
stored.  ``k1`` is the int 12 (N1 - omega) and ``g1`` one read of T,
the paper's formulas with T, or N1 and K1, eliminated by recursion (1),
so the audit's second paths for K1 and T, over its own T, both check
that recursion on the stored N1.  ``g0`` reads the numerator of ``k0``
and ``k0`` that of ``lr``, so a wrong LR reaches K0 and a wrong K0
reaches G0.  Every
public per-degree method checks its degree before any arithmetic on it,
so a bad degree is a ``ValueError`` that leaves the state untouched.

Each degree builds its half row anew, one small-by-big product and
division per entry, C(n, k+3) = C(n, k) (n-k)(n-k-1)(n-k-2) /
((k+1)(k+2)(k+3)) from C(n, 2), n = 3d-2, k = 3i-1 (see ``_row``).  No
``exact.pascal_*`` row is built: those are the audit's, so its second
paths share no row-building code with the engine.
Only one degree's half row is alive between builds, and a build holds
the old and the new one only: no loop binds a row to a local that
outlives its degree, and N0's loop and the T fold stream their
products into their sums.
"""

from __future__ import annotations

from enum import Enum
from math import comb
from operator import add, mul
from typing import NamedTuple

from .exact import ExactScalar, exact_div

# Largest degree any query may ask for, checked before any work starts.
# It lies just past d = 572, where N0 first passes 4300 decimal digits
# (Python's default int<->str limit).  The run time grows roughly as d^4
# (``eval N0 572`` takes about 3 s on a 2-core Xeon VM, Python 3.11), so
# degrees far beyond the ceiling would run for hours.
MAX_DEGREE = 600


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


class KindSpec(NamedTuple):
    """How one invariant is evaluated and where it is meaningful."""

    method: str
    min_degree: int


KIND_SPEC: dict[InvariantKind, KindSpec] = {
    InvariantKind.N0: KindSpec("n0", 1),
    InvariantKind.N1: KindSpec("n1", 1),
    InvariantKind.K0: KindSpec("k0", 3),
    InvariantKind.K0_PRINTED: KindSpec("k0_printed", 2),
    InvariantKind.K1: KindSpec("k1", 3),
    InvariantKind.G0: KindSpec("g0", 3),
    InvariantKind.G1: KindSpec("g1", 4),
    InvariantKind.OMEGA: KindSpec("omega", 1),
    InvariantKind.M: KindSpec("m_invariant", 2),
    InvariantKind.NODES: KindSpec("reducible_fibre_count", 2),
    InvariantKind.RCOUNT: KindSpec("reducible_fibre_count", 2),
    InvariantKind.LR: KindSpec("lr", 2),
}


def domain_status(kind: InvariantKind | str, d: int) -> str | None:
    """Why (invariant, degree) is outside the invariant's geometric domain,
    ``BELOW_MIN_DEGREE`` or ``DEGENERATE_GEOMETRY``, or None inside it.  The
    formula still evaluates there (it is total); the reason says why the
    value carries no geometric weight.  A pure function of its inputs."""
    return _domain_status(InvariantKind(kind), d)


def _domain_status(kind: InvariantKind, d: int) -> str | None:
    """``domain_status`` of a kind already converted to its member."""
    _check_degree(d)
    if kind is InvariantKind.K0 and d < 3:
        # One-cuspidal rational curves need degree >= 3; below that the
        # assembled formula evaluates but the geometry degenerates.
        return DEGENERATE_GEOMETRY
    if kind is InvariantKind.G1 and d == 3:
        # The one-parameter elliptic-cubic family is birational to the
        # plane; the genus formula evaluates to the non-integer 5/4.
        return DEGENERATE_GEOMETRY
    if d < KIND_SPEC[kind].min_degree:
        return BELOW_MIN_DEGREE
    return None


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
    already-defined quantities, so no stored entry is ever overwritten.
    The state is all ``int``: N0, N1, the scaled count u and the triple
    (NODES, 2m, B) of splitting sums, B the K0_PRINTED bracket's first
    sum, are lists indexed by degree (entry 0 unused), the triple filled
    with N0 by one loop per degree; the window holds the pair row of one
    degree only (at degree 0, empty).  Every other value, T included, is
    rebuilt per call, as an O(1) assembly over these.
    """

    def __init__(self) -> None:
        self._n0: list[int] = [0, 1]
        self._n1: list[int] = [0]
        # Scaled count u = (3d-2) d N0, and (NODES, 2m, B): every splitting
        # sum is empty at d = 1.
        self._u: list[int] = [0, 1]
        self._sums: list[tuple[int, int, int]] = [(0, 0, 0), (0, 0, 0)]
        self._window: tuple[int, list[int]] = (0, [])

    def _row(self, d: int) -> list[int]:
        """The pair row, the window's only row: the half row R(i) =
        C(n, 3i-1), n = 3d-2, 1 <= i <= d // 2, with the middle pair of an
        even d, which has one order only, at half weight.  That entry is
        the central binomial C(6h-2, 3h-1), h = d/2, so even.  Each entry
        is the binomial weight of one unordered pair, and no engine sum
        has a middle-pair case of its own.  A degree other than the
        window's builds it from C(n, 2), one entry at a time, by
        C(n, k+3) = C(n, k) (n-k)(n-k-1)(n-k-2) / ((k+1)(k+2)(k+3)),
        k = 3i-1: one small-by-big product and division per entry.  It is
        built locally, halved, and published with its degree by one
        assignment."""
        at, row = self._window
        if at != d:
            n = 3 * d - 2
            row = [n * (n - 1) // 2] if d > 1 else []
            for k in range(2, 3 * (d // 2) - 1, 3):  # the last entry's k
                row.append(row[-1] * ((n - k) * (n - k - 1) * (n - k - 2))
                           // ((k + 1) * (k + 2) * (k + 3)))
            if d % 2 == 0:  # the middle pair d1 = d2 has one order only
                row[-1] //= 2
            self._window = (d, row)
        return row

    # -- recursive counts ----------------------------------------------

    def n0(self, d: int) -> ExactScalar:
        """Rational curves of degree d through 3d-1 general points.

        N(1) = 1 and, over ordered splittings d1 + d2 = d,

            N(d) = sum N(d1) N(d2) [d1^2 d2^2 C(3d-4, 3d1-2)
                                    - d1^3 d2 C(3d-4, 3d1-1)].

        With a(k) = k N(k), a term is d1 a(d1) a(d2) times
        d2 C(n, 3d1-2) - d1 C(n, 3d1-1) = (3d1-d) C(n+1, 3d1-1) / (n+1),
        n = 3d-4, by Pascal's ratio rule, so that

            (3d-3) N(d) = sum d1 (3d1-d) C(3d-3, 3d1-1) a(d1) a(d2).

        The ratio rule once more, C(3d-3, 3d1-1) = (3d2-1) R(d1) / (3d-2)
        with R(d1) = C(3d-2, 3d1-1) = R(d2), moves it onto the half row;
        the two orders of a pair then weigh d1 (3d1-d)(3d2-1) +
        d2 (3d2-d)(3d1-1) = (3d+6) d1 d2 - 2d^2, so that

            (3d-3)(3d-2) N(d) = sum_{d1 <= d2} ((3d+6) d1 d2 - 2d^2)
                                               R(d1) a(d1) a(d2),

        the middle pair d1 = d2 at half weight, as the pair row of ``_row``
        holds it.  With q = R(d1) N(d1) N(d2) and the moments

            s_k = sum_{d1 <= d2} (d1 d2)^k q,

        a pair adds ((3d+6) (d1 d2)^2 - 2d^2 d1 d2) q, as a(d1) a(d2) =
        d1 d2 N(d1) N(d2), so that

            (3d-3)(3d-2) N(d) = (3d+6) s_2 - 2d^2 s_1:

        one exact division of two moments of the pair products.  The same
        loop sums s_0, and from N(d) it stores u(d) = (3d-2) d N(d) for
        ``n1`` and the triple (NODES, 2m, B) of ``_moments``, which reads
        it.  So every sum over N0(d1) N0(d2) forms each pair product once,
        and the products stream into the three sums, none held in a list.
        Every division of a degree comes before its appends, so one that
        fails leaves the lists as they were.
        At d = 1 every sum is empty and N(1) = 1 is the seed, which the
        triple (0, 0, 0) of the empty sums joins.
        """
        _check_degree(d)
        n0, u, sums = self._n0, self._u, self._sums
        for dd in range(len(n0), d + 1):
            h = dd // 2
            pairs = map(mul, n0[1:h + 1], n0[dd - 1:dd - h - 1:-1])
            s0 = s1 = s2 = 0
            for i, q in enumerate(map(mul, self._row(dd), pairs), 1):
                w = i * (dd - i)
                s0 += q
                q *= w
                s1 += q
                s2 += w * q
            n = exact_div((3 * dd + 6) * s2 - 2 * dd * dd * s1,
                          (3 * dd - 3) * (3 * dd - 2), dd)
            two_m = exact_div(2 * s1 + 18 * n, 3 * dd + 6, dd)
            bracket = exact_div(3 * (3 * dd + 2) * s1 - 2 * dd * (3 * dd - 1) * s0, 3, dd)
            n0.append(n)
            u.append((3 * dd - 2) * dd * n)
            sums.append((s1, two_m, bracket))
        return ExactScalar(n0[d])

    def n1(self, d: int) -> ExactScalar:
        """Elliptic curves of degree d through 3d general points.

            N1(d) = (1/12) C(d,3) N0(d)
                  + sum ((3 d1 - 2)/9) d1 d2 C(3d-1, 3 d1 - 1) N0(d1) N1(d2).

        The sum is T(d) / 9, so one loop per degree sums T and stores N1
        alone, reducing recursion (1), 36 N1 = 3 C(d,3) N0 + 4 T(d), by
        exact division (an ``ArithmeticError`` naming the degree if N1 is
        not integral); :meth:`t_op` reads T back from N1.
        With u(k) = (3k-2) k N0(k), a term of T is C(3d-1, 3 d1 - 1) u(d1)
        d2 N1(d2), and the ratio rule C(3d-1, 3 d1 - 1) = (3d-1) C(3d-2,
        3 d1 - 1) / (3 d2) moves it onto the row C(3d-2, .), which the swap
        d1 <-> d2 keeps, C(3d-2, 3 d1 - 1) = C(3d-2, 3 d2 - 1).  So

            3 T(d) = (3d-1) sum C(3d-2, 3 d1 - 1) u(d1) N1(d2)
                   = (3d-1) sum_{d1 <= d2} C(3d-2, 3 d1 - 1)
                                [u(d1) N1(d2) + u(d2) N1(d1)],

        the middle pair d1 = d2 once, as its two equal products over the
        halved entry of the pair row of ``_row``: one dot product and an
        exact division.  The products stream into the sum, so none of
        them is held in a list alongside the row.
        The sum needs N1 only below d, so no base value is required, and
        it is 0 for d <= 3, since N1(1) = N1(2) = 0.  N0 advances with it,
        so both read the same pair row.
        """
        _check_degree(d)
        n0, n1, u = self._n0, self._n1, self._u
        for dd in range(len(n1), d + 1):
            self.n0(dd)
            h = dd // 2
            pairs = map(add, map(mul, u[1:h + 1], n1[dd - 1:dd - h - 1:-1]),
                        map(mul, u[dd - 1:dd - h - 1:-1], n1[1:h + 1]))
            s = exact_div((3 * dd - 1) * sum(map(mul, self._row(dd), pairs)), 3, dd)
            n1.append(exact_div(3 * comb(dd, 3) * n0[dd] + 4 * s, 36, dd))
        return ExactScalar(n1[d])

    # -- the T-operator -------------------------------------------------

    def t_op(self, d: int) -> ExactScalar:
        """Weighted splitting convolution

            T(d) = sum (3 d1 - 2) d1 d2 C(3d-1, 3 d1 - 1) N0(d1) N1(d2)

        over ordered pairs d1 + d2 = d, read from the stored N1 by
        recursion (1) read backwards,

            4 T = 36 N1 - 3 C(d,3) N0,

        an O(1) form, as :meth:`k1` is.  The N1 loop sums T folded over the
        pair row of C(3d-2, 3 d1 - 1) and stores only the N1 that (1) gives
        (see :meth:`n1`); the audit's second path sums the ordered terms
        over its own Pascal row C(3d-1, .), so the two share neither a row,
        a binomial nor a formula, and ``t_linearity`` checks this form and
        the stored N1 together.  A degree not yet stored fills N1 to it.
        """
        _check_degree(d)
        if d >= len(self._n1):
            self.n1(d)
        four_t = 36 * self._n1[d] - 3 * comb(d, 3) * self._n0[d]
        return ExactScalar(exact_div(four_t, 4, d))

    # -- derived invariants ----------------------------------------------

    def _moments(self, d: int) -> tuple[int, int, int]:
        """(NODES, 2m, B) at degree d: NODES = RCOUNT (see
        :meth:`reducible_fibre_count`), 2m (see :meth:`m_invariant`) and
        the first sum B of the K0_PRINTED bracket (see :meth:`k0_printed`),
        as the loop of ``n0`` stores them, one triple per degree, from the
        moments s_k = sum (d1 d2)^k q, q = r(d1) N0(d1) N0(d2), of the pair
        row r of ``_row``: half the ordered sums over the full weight
        C(3d-2, 3 d1 - 1), as the halved middle entry of r counts the
        middle pair once.  So s_1 is NODES itself, and the NODES form below
        read backwards, and the pair weight of the bracket, give

            (3d + 6) 2m = 2 s_1 + 18 N0,
            3 B = 3 (3d + 2) s_1 - 2d (3d - 1) s_0.

        The form NODES = RCOUNT = (3d + 6) m - 9 N0 holds for d >= 2.
        Proof.  Sums run over ordered pairs d1 + d2 = d, with n = 3d-4,
        p = d1 d2 N0(d1) N0(d2), c0 = C(n, 3d1-2), c- = C(n, 3d1-3),
        c+ = C(n, 3d1-1), and

            P_k = sum d2^k c- p,   Q_k = sum d2^k c0 p,   so 2m = Q_0.

        * The swap d1 <-> d2 keeps p and c0 and exchanges c+ with c-, so
          Q_1 = d m and sum c+ p = P_0.
        * Pascal's rule C(n+1, j) = C(n, j) + C(n, j-1) gives
          RCOUNT = sum (c0 + c-) p = 2m + P_0, LR = sum d2 (c0 + c-) p
          = d m + P_1, and 2 NODES = sum (c+ + 2 c0 + c-) p = 2 RCOUNT.
        * The ratio rule (j+1) C(n, j+1) = (n-j) C(n, j) at j = 3d1-3 is
          (3d1-2) c0 = (3d2-1) c-; weighted by d2^k p and summed,

              3 P_{k+1} - P_k = (3d-2) Q_k - 3 Q_{k+1}.

        * Kontsevich's recursion (see ``n0``), its c+ term swapped, is
          N0 = sum (d1 d2 c0 - d2^2 c-) p = d^2 m - Q_2 - P_2.

        The ratio identity at k = 1 is 3 (P_2 + Q_2) = P_1 + (3d-2) d m,
        and the recursion makes it P_1 = 2d m - 3 N0, which gives LR (see
        :meth:`lr`).  At k = 0 it is 3 P_1 - P_0 = (3d-4) m, so P_0 =
        (3d+4) m - 9 N0, and RCOUNT = 2m + P_0 is the form.

        At d = 1 the sums are empty, but the recursion does not hold there
        (N0(1) = 1 is its seed), so the form would give 2m = 2 where the
        sum of ``m_invariant`` is empty: the triple of d = 1 is therefore
        seeded as (0, 0, 0) with N0(1), not read from the form.  A search
        found no form of this kind for 2m alone or for the K0_PRINTED
        bracket, so s_0 is the one sum of the loop that N0 does not need.
        The audit's ``rcount_equals_nodes`` compares s_1 with its direct
        NODES sum, and ``g0_two_path`` compares 2m, through G0, with its
        direct 2m sum."""
        _check_degree(d)
        if d >= len(self._sums):
            self.n0(d)
        return self._sums[d]

    def omega(self, d: int) -> ExactScalar:
        """One-twelfth of the irreducible nodal fibre count:

            omega = (1/12) ((d-1)(d-2)/2) N0(d).

        12*omega counts the irreducible rational singular fibres of the
        one-parameter elliptic family (equivalently, the Euler number of
        the relatively minimal elliptic surface).
        """
        _check_degree(d)
        if d >= len(self._n0):
            self.n0(d)
        return ExactScalar((d - 1) * (d - 2) * self._n0[d], 24)

    def m_invariant(self, d: int) -> ExactScalar:
        """Negative self-intersection of a marked-point section:

            2m = sum N0(d1) N0(d2) d1 d2 C(3d-4, 3 d1 - 2).

        Empty sum (hence 0) at d = 1, the seed.  Read from ``_moments``.
        """
        return ExactScalar(self._moments(d)[1], 2)

    def reducible_fibre_count(self, d: int) -> ExactScalar:
        """Number of reducible (nodal) fibres of the rational family.

        Half the ordered sum of N0(d1) N0(d2) d1 d2 C(3d-2, 3 d1 - 1),
        which counts each split fibre once per component (the convention
        is pinned by the degree-3 cuspidal anchor).  It is also RCOUNT =
        sum N0(d1) N0(d2) d1 d2 C(3d-3, 3 d1 - 2), the fibres counted by the
        component through the marked point: each reducible fibre has
        exactly one component missing it.  It is the moment s_1 of the
        pair row, read from ``_moments`` as ``n0``'s loop summed it.
        """
        return ExactScalar(self._moments(d)[0])

    def lr(self, d: int) -> ExactScalar:
        """Total plane degree of the blown-down fibre components:

            LR = sum d2 N0(d1) N0(d2) d1 d2 C(3d-3, 3 d1 - 2),

        i.e. the r-component sum weighted by the degree of the blown-down
        (unmarked) component.  In the proof of ``_moments``, Pascal's rule
        gives LR = d m + P_1 and the recursion P_1 = 2d m - 3 N0, so
        LR = 3d m - 3 N0 for d >= 2.  The NODES form there, 3 (d + 2) m =
        NODES + 9 N0, turns it into a form in NODES,

            (d + 2) LR = d NODES + 6 (d - 1) N0,

        one exact division of the moment s_1.  It holds at d = 1 as
        well, where the sum is empty and both sides are 0, so it needs no
        branch there.
        """
        nodes = self._moments(d)[0]
        return ExactScalar(exact_div(d * nodes + 6 * (d - 1) * self._n0[d], d + 2, d))

    def k0(self, d: int) -> ExactScalar:
        """One-cuspidal rational curves through 3d-2 points (authoritative
        assembly path), the paper's

            K0 = 3 N0 - 3 d m + 3 LR - RCOUNT - NODES

        in ints over NODES (= RCOUNT) and 2m of ``_moments`` and LR of the
        public :meth:`lr`, halved exactly: 12 (N0 - m), and 3 N0 = 3 at
        d = 1.  As LR is read through its accessor, a wrong LR reaches
        K0's anchor, integrality and ``g0_two_path`` checks.  The
        blown-down components are disjoint (-1)-curves, so their sum R has
        R^2 = -RCOUNT; subtracting the nodal-fibre count from the second
        Chern class assembly leaves the cusp count.  Anchored by the
        classical K0(3) = 24.
        """
        (nodes, two_m, _), lr = self._moments(d), self.lr(d).numerator
        two_k0 = 6 * self._n0[d] - 3 * d * two_m + 6 * lr - 4 * nodes
        return ExactScalar(exact_div(two_k0, 2, d))

    def k0_printed(self, d: int) -> ExactScalar:
        """Literal closed form for the rational cusp count:

            3 N0 - sum N0(d1) N0(d2) d1 d2 [(3 d2 - 2) C(3d-2, 3 d1 - 2)
                                            - (3/2) C(3d-4, 3 d1 - 2)].

        Audit-only evaluator: it yields -60 at d = 3 against the anchor
        24 and is kept verbatim so the discrepancy stays reproducible.
        The second sum is 3m; the bracket's first, B, over the half row,
        uses the ratio rule C(3d-2, 3 d1 - 2) = (3 d1 - 1) R(d1) / (3 d2).
        The two orders of a pair weigh

            (3 d2 - 2) C(3d-2, 3 d1 - 2) + (3 d1 - 2) C(3d-2, 3 d2 - 2)
                = (3 (3d+2) d1 d2 - 2d (3d-1)) R(d1) / (3 d1 d2),

        so with q = R(d1) N0(d1) N0(d2) a pair adds (3 (3d+2) d1 d2 -
        2d (3d-1)) q / 3, the middle pair at half weight, and 3 B =
        3 (3d+2) s_1 - 2d (3d-1) s_0 in the moments of the pair row, which
        ``n0``'s loop sums and stores B from, with 2m: an O(1) assembly.
        """
        _, two_m, bracket = self._moments(d)
        return ExactScalar(6 * self._n0[d] - 2 * bracket + 3 * two_m, 2)

    def k1(self, d: int) -> ExactScalar:
        """One-cuspidal elliptic curves through 3d-1 points, the paper's

            K1 = 3 N1 + ((d-1)(d-2)(d-4)/8) N0 + T(3 d1 - 2),

        with T eliminated by the recursion of :meth:`n1`, 36 N1 =
        3 C(d,3) N0 + 4 T, that is T = 9 N1 - (d (d-1)(d-2)/8) N0, so that
        the N0 terms add to ((d-4) - d)(d-1)(d-2)/8 = -C(d-1, 2):

            K1 = 12 N1 - C(d-1, 2) N0 = 12 (N1 - omega),

        an int.  K1(1) = K1(2) = 0 (no elliptic curves of degree < 3); the
        form already evaluates to 0 there.  A degree not yet stored fills
        N1 to it, as :meth:`t_op` does.
        """
        _check_degree(d)
        if d >= len(self._n1):
            self.n1(d)
        return ExactScalar(12 * self._n1[d] - comb(d - 1, 2) * self._n0[d])

    def g0(self, d: int) -> ExactScalar:
        """Linear genus of the rational-curve family:

            g0 = (K0 - 2m + 2) / 2,

        from the section relation m + 2g - 2 = -m + K0.
        """
        k0, two_m = self.k0(d).numerator, self._moments(d)[1]
        return ExactScalar(k0 - two_m + 2, 2)

    def g1(self, d: int) -> ExactScalar:
        """Linear genus of the elliptic-curve family, the paper's

            2 g1 - 2 = K1 - (9/2) N1 + ((d-1)(d-2)(3d-4)/24) N0
                       + (1/2) T(3 d1 - 2),

        with K1 its paper's assembly (see :meth:`k1`), which gives 2 g1 - 2 =
        (3/2) (T - N1) + ((d-1)(d-2)(6d-16)/24) N0, and then N1 eliminated
        by the recursion of :meth:`n1`, 36 N1 = 3 C(d,3) N0 + 4 T:

            96 (g1 - 1) = 64 T + (d-1)(d-2)(11d-32) N0,

        one read of T.  Valid for d >= 4.  At d = 3 the formula yields the
        non-integer 5/4 (the family is birational to the plane and the
        ramification analysis degenerates); the value is computed and
        flagged, never silently corrected.
        """
        t, p = self.t_op(d).numerator, (d - 1) * (d - 2) * (11 * d - 32)
        return ExactScalar(64 * t + p * self._n0[d] + 96, 96)

    # -- kind-indexed access ---------------------------------------------

    def value(self, kind: InvariantKind | str, d: int) -> ExactScalar:
        """The invariant's exact value (formula evaluated even when the
        degree is outside the invariant's geometric domain); an unknown
        kind is a ``ValueError``."""
        return getattr(self, KIND_SPEC[InvariantKind(kind)].method)(d)

    def evaluate(self, kind: InvariantKind, d: int) -> tuple[ExactScalar, str | None]:
        """Value together with its ``domain_status`` reason; the kind and
        degree are checked before any work."""
        kind = InvariantKind(kind)
        reason = _domain_status(kind, d)
        return getattr(self, KIND_SPEC[kind].method)(d), reason


__all__ = [
    "BELOW_MIN_DEGREE",
    "DEGENERATE_GEOMETRY",
    "InvariantEngine",
    "InvariantKind",
    "KIND_ORDER",
    "KIND_SPEC",
    "KindSpec",
    "MAX_DEGREE",
    "domain_status",
]
