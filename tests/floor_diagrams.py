"""Plane-curve counts N^{d,g} from floor diagrams, independent of severi.

Brugallé and Mikhalkin (C. R. Acad. Sci. Paris 345, 2007) and Fomin and
Mikhalkin ("Labeled floor diagrams for plane curves", J. Eur. Math. Soc.
12, 2010) count the curves of degree d and genus g through 3d - 1 + g
general points as a sum over floor diagrams:

* the floors are 1..d; there are d - 1 + g edges (i, j, w) with i < j
  and weight w >= 1; the graph is connected, and every floor v has
  divergence div(v) = out-weight - in-weight <= 1;
* a diagram counts prod w^2 times its number of markings.

A marking places one point on each edge (after floor i, before floor j)
and 1 - div(v) sink points after each floor v.  Points are ordered only
against floors, so a marking is a choice of gap between floors for each
point and an order within each gap.  The sinks of one floor, and the
points of parallel edges of equal weight, are interchangeable.

Pure combinatorics: no recursion, binomial row or formula of the engine
or of the oracle.  N^{d,0} = N0(d) and N^{d,1} = N1(d).
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import factorial, prod


def _out_edges(j: int, d: int, budget: int, room: int):
    """Every multiset of out-edges (j, target, weight) of floor j, as a
    sorted tuple, with total weight <= budget and at most room edges."""
    kinds = [(t, w) for t in range(j + 1, d + 1) for w in range(1, budget + 1)]

    def extend(start: int, budget: int, room: int):
        yield ()
        for k in range(start, len(kinds)):
            t, w = kinds[k]
            if w <= budget and room:
                for rest in extend(k, budget - w, room - 1):
                    yield ((j, t, w), *rest)

    return extend(0, budget, room)


def _diagrams(d: int, g: int):
    """Every floor diagram of degree d and genus g, as a tuple of edges."""
    n_edges = d - 1 + g

    def place(j: int, edges: tuple, inweight: list[int]):
        if j == d:
            if len(edges) == n_edges and _connected(d, edges):
                yield edges
            return
        for out in _out_edges(j, d, 1 + inweight[j], n_edges - len(edges)):
            below = inweight[:]
            for _, t, w in out:
                below[t] += w
            yield from place(j + 1, edges + out, below)

    return place(1, (), [0] * (d + 1))


def _connected(d: int, edges: tuple) -> bool:
    parent = list(range(d + 1))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j, _ in edges:
        parent[root(i)] = root(j)
    return len({root(v) for v in range(1, d + 1)}) == 1


def _markings(d: int, edges: tuple) -> int:
    """The markings of one diagram, counted gap by gap.  Gap k lies after
    floor k (gap d after the last floor).  Each group of c interchangeable
    points spans gaps lo..hi; the state is the points each group still has
    to place, and a gap holding n points, k_i from group i, is filled in
    n! / prod k_i! distinct orders."""
    div = [0] * (d + 1)
    for i, j, w in edges:
        div[i] += w
        div[j] -= w
    groups = [(i, j - 1, c) for (i, j, _), c in sorted(Counter(edges).items())]
    groups += [(v, d, 1 - div[v]) for v in range(1, d + 1) if div[v] < 1]
    states = {tuple(c for _, _, c in groups): 1}
    for gap in range(1, d + 1):
        active = [n for n, (lo, hi, _) in enumerate(groups) if lo <= gap <= hi]
        after: Counter = Counter()
        for state, ways in states.items():
            choices = [
                [state[n]] if groups[n][1] == gap else range(state[n] + 1)
                for n in active
            ]
            for taken in product(*choices):
                left = list(state)
                for n, k in zip(active, taken):
                    left[n] -= k
                orders = factorial(sum(taken)) // prod(map(factorial, taken))
                after[tuple(left)] += ways * orders
        states = after
    return sum(states.values())


def floor_count(d: int, g: int) -> int:
    """N^{d,g}: irreducible plane curves of degree d and genus g through
    3d - 1 + g general points."""
    return sum(
        prod(w * w for _, _, w in edges) * _markings(d, edges)
        for edges in _diagrams(d, g)
    )
