"""The engine's N0, N1 and stored T against floor-diagram counts.

``floor_diagrams`` counts curves by enumerating diagrams and markings;
it shares no formula with the engine's recursions or with the oracle.
Through 36 N1 = 3 C(d,3) N0 + 4 T it also pins the T the N1 loop stores.
"""

from __future__ import annotations

from math import comb

import pytest

from floor_diagrams import floor_count
from severi import InvariantEngine


def _assert_engine_matches_floors(d):
    engine = InvariantEngine()
    n0, n1 = floor_count(d, 0), floor_count(d, 1)
    assert engine.n0(d) == n0
    assert engine.n1(d) == n1
    assert 4 * engine._t[d] == 36 * n1 - 3 * comb(d, 3) * n0


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


@pytest.mark.slow
def test_degree_six_matches_the_floor_diagrams():
    _assert_engine_matches_floors(6)


@pytest.mark.slow
def test_n0_degree_seven_matches_the_floor_diagrams():
    assert InvariantEngine().n0(7) == floor_count(7, 0) == 14616808192
