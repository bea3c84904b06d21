"""The engine's binomial row window and the audit's independent rows.

The window serves the four Pascal rows C(3d-4, .) .. C(3d-1, .) for
one degree at a time; ``exact.pascal_row`` seeds it after a non-sequential
query and builds the rows of ``t_op_direct``.  Every row is compared
with ``math.comb``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from severi import InvariantEngine, InvariantKind
from severi import engine as engine_module
from severi.audit import run_full_audit
from severi.exact import pascal_row, pascal_step
from severi.tables import build_records


@lru_cache(maxsize=8)
def _comb_row(n):
    """C(n, .) from ``math.comb``, half computed and half mirrored."""
    half = [comb(n, k) for k in range(n // 2 + 1)]
    return half + half[::-1][1 - n % 2:] if n >= 0 else []


def _assert_window_rows(engine, d):
    rows = engine._rows(d)
    assert engine._window == (d, rows)
    assert len(rows) == 4
    for k, row in enumerate(rows):
        assert row == _comb_row(3 * d - 4 + k), 3 * d - 4 + k


class TestPascalRows:
    # The row is built from its first half and mirrored; the step adds
    # on the first half only.  Both parities of n, and n = -1 and 0.
    @pytest.mark.parametrize("n", range(-1, 61))
    def test_half_full_and_step_match_comb(self, n):
        assert pascal_row(n) == [comb(n, k) for k in range(n + 1)]
        assert pascal_step(pascal_row(n)) == [comb(n + 1, k) for k in range(n + 2)]


class TestRowWindow:
    def test_every_served_row_up_to_degree_100_in_sequence(self):
        engine = InvariantEngine()
        for d in range(1, 101):
            _assert_window_rows(engine, d)

    @pytest.mark.parametrize("d", [200, 572, 600])
    def test_rows_after_a_jump(self, d):
        engine = InvariantEngine()
        engine._rows(7)
        _assert_window_rows(engine, d)
        _assert_window_rows(engine, d - 1)
        _assert_window_rows(engine, d)
        _assert_window_rows(engine, 1)

    def test_n1_leaves_one_degree_of_rows_behind(self):
        engine = InvariantEngine()
        engine.n1(200)
        # No other attribute may hold binomial rows.
        lists = {"_n0", "_n1", "_t", "_a", "_u", "_v"}
        assert set(vars(engine)) == lists | {"_memo", "_window"}
        d, rows = engine._window
        assert d == 200
        assert [len(row) for row in rows] == [597, 598, 599, 600]
        assert {len(getattr(engine, name)) for name in lists} == {201}

    @pytest.mark.slow
    def test_every_row_up_to_the_ceiling(self):
        # n = 3d - 4 .. 3d - 1 for d <= 600 reaches n = 1799; the
        # multiplicative pascal_row is checked over the same range.
        engine = InvariantEngine()
        for d in range(1, 601):
            _assert_window_rows(engine, d)
            for n in range(max(3 * d - 4, 0), 3 * d):
                assert pascal_row(n) == _comb_row(n), n


@lru_cache(maxsize=None)
def _fresh_value(kind, d):
    return InvariantEngine().value(kind, d)


_QUERY = st.tuples(st.sampled_from(list(InvariantKind)), st.integers(1, 30))


@settings(max_examples=60, deadline=None)
@given(st.lists(_QUERY, min_size=1, max_size=12))
def test_any_query_order_gives_the_values_of_fresh_engines(queries):
    # Jumps, rebuilds and lockstep steps of the window must not change
    # any value.
    engine = InvariantEngine()
    for kind, d in queries:
        assert engine.value(kind, d) == _fresh_value(kind, d), (kind, d)


_COUNT_QUERY = st.tuples(
    st.sampled_from(["n0", "n1", "N0", "N1", "K1", "G0"]), st.integers(1, 40)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_COUNT_QUERY, min_size=1, max_size=8))
@example([("n0", 30), ("n1", 5), ("N1", 40), ("n0", 12), ("G0", 33)])
def test_scaled_lists_follow_the_counts_in_any_query_order(queries):
    # n0 ahead of n1 and a jump back both reseed the window; the scaled
    # lists must still be the counts times their factors.
    engine = InvariantEngine()
    for name, d in queries:
        value = getattr(engine, name)(d) if name.islower() else engine.value(name, d)
        assert value == _fresh_value(InvariantKind(name.upper()), d), (name, d)
    n0, n1 = engine._n0, engine._n1
    assert engine._a == [k * x for k, x in enumerate(n0)]
    assert engine._u == [(3 * k - 2) * k * x for k, x in enumerate(n0)]
    assert engine._v == [k * x for k, x in enumerate(n1)]


class TestRowBuilds:
    """``pascal_row`` builds the audit's direct T rows and seeds the
    window only after a non-sequential query; sequential queries step."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return _count_calls(monkeypatch, "pascal_row", pascal_row)

    def test_full_audit_builds_one_row_per_direct_t_pass(self, calls):
        # 98 direct T passes (d = 3..100) and 3 window seeds (d = 1, 2, 3).
        run_full_audit(InvariantEngine(), 100)
        assert calls[0] == 101

    def test_the_recursions_build_none(self, calls):
        InvariantEngine().n1(200)
        assert calls[0] == 0

    def test_a_table_takes_three_steps_per_degree(self, monkeypatch):
        # The splitting sums read the window's rows and step none of their own.
        steps = _count_calls(monkeypatch, "pascal_step", pascal_step)
        build_records(InvariantEngine(), 100)
        assert steps[0] == 3 * 100


def _count_calls(monkeypatch, name, function):
    """Patch ``engine.<name>`` to count its calls; returns the counter."""
    count = [0]

    def counting(*args):
        count[0] += 1
        return function(*args)

    monkeypatch.setattr(engine_module, name, counting)
    return count
