"""The engine's N0, N1 and T, and recursion (1) itself, against
floor-diagram counts.

``floor_diagrams`` counts curves by enumerating diagrams and markings;
it shares no formula with the engine's recursions or with the oracle.
T is summed term by term, as the paper prints it, from the floor counts
of the lower degrees, so 36 N1 = 3 C(d,3) N0 + 4 T is checked on counts
that no recursion produced.
"""

from __future__ import annotations

from functools import cache
from math import comb

import pytest

from floor_diagrams import floor_count
from severi import InvariantEngine

floors = cache(floor_count)


def _t_from_floors(d):
    """T(d) = sum (3 d1 - 2) d1 d2 C(3d-1, 3 d1 - 1) N0(d1) N1(d2) over
    ordered pairs d1 + d2 = d, every count a floor-diagram count."""
    return sum(
        (3 * d1 - 2) * d1 * (d - d1) * comb(3 * d - 1, 3 * d1 - 1)
        * floors(d1, 0) * floors(d - d1, 1)
        for d1 in range(1, d)
    )


def _assert_engine_matches_floors(d):
    engine = InvariantEngine()
    n0, n1, t = floors(d, 0), floors(d, 1), _t_from_floors(d)
    assert 36 * n1 == 3 * comb(d, 3) * n0 + 4 * t
    assert engine.n0(d) == n0
    assert engine.n1(d) == n1
    assert engine.t_op(d) == t


@pytest.mark.parametrize("d", range(1, 6))
def test_n0_n1_and_t_match_the_floor_diagrams(d):
    _assert_engine_matches_floors(d)


@pytest.mark.parametrize(
    "d, g, expected",
    [(3, 1, 1), (4, 2, 27), (4, 3, 1), (5, 5, 48)],
)
def test_floor_diagrams_reproduce_classical_counts(d, g, expected):
    # Smooth cubics through 9 points, one-nodal quartics through 13
    # (3 (d-1)^2), smooth quartics through 14, one-nodal quintics through 19.
    assert floor_count(d, g) == expected


def test_degree_six_matches_the_floor_diagrams():
    _assert_engine_matches_floors(6)


@pytest.mark.slow
def test_n0_degree_seven_matches_the_floor_diagrams():
    assert InvariantEngine().n0(7) == floor_count(7, 0) == 14616808192
