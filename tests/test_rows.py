"""The engine's binomial row window and the audit's independent rows.

The window serves the four Pascal rows C(3d-4, .) .. C(3d-1, .) for
one degree at a time; ``exact.pascal_row`` seeds it after a non-sequential
query.  The audit builds the same four rows anew at every audited degree
for its direct T and splitting sums, from one ``pascal_row`` and three
``exact.pascal_step`` calls.  Every row is compared with ``math.comb``.
"""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc
from functools import lru_cache
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from severi import InvariantEngine, InvariantKind
from severi import audit as audit_module
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
        lists = {"_n0", "_n1", "_t", "_a", "_u"}
        assert set(vars(engine)) == lists | {"_split", "_window"}
        assert engine._split == {}
        d, rows = engine._window
        assert d == 200
        assert [len(row) for row in rows] == [597, 598, 599, 600]
        assert {len(getattr(engine, name)) for name in lists} == {201}

    @pytest.mark.parametrize(
        "method, d", [("n1", 200), pytest.param("n0", 572, marks=pytest.mark.slow)]
    )
    def test_a_fill_holds_under_two_rows_beyond_what_it_keeps(self, method, d):
        # The traced peak of a fill less what the engine keeps is the
        # largest working set of one step: the T fold streams its
        # products into the sum, and the old degree's rows are freed
        # before the next ones are built.  Counted in rows C(3d-1, .),
        # it is 1.4 for n1(200) and 1.3 for n0(572); with the products
        # in a list and the old window kept through the step, 4.9 and 3.7.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            row = pascal_row(3 * d - 1)
            row_size = tracemalloc.get_traced_memory()[0] - before
            del row
            engine = InvariantEngine()
            tracemalloc.reset_peak()
            getattr(engine, method)(d)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < 2 * row_size, (peak - kept) / row_size

    def test_a_step_builds_the_next_rows_with_the_empty_window_published(
        self, monkeypatch
    ):
        # The old window is unpublished before every step, so that its
        # rows are free while the next ones are built, and the new one is
        # published whole after the last step; a jump seeds and steps alike.
        engine = InvariantEngine()

        def check(row):
            assert engine._window == (0, [[]] * 4), len(row)

        steps = _count_calls(monkeypatch, "pascal_step", pascal_step, check)
        engine.n1(30)
        engine._rows(60)
        assert steps[0] == 3 * 31
        _assert_window_rows(engine, 60)

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
    n0 = engine._n0
    assert engine._a == [k * x for k, x in enumerate(n0)]
    assert engine._u == [(3 * k - 2) * k * x for k, x in enumerate(n0)]


class TestRowBuilds:
    """``pascal_row`` seeds the window only after a non-sequential query,
    and the audit's rows once per audited degree; sequential queries and
    the audit's other three rows step."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counters of the engine's and the audit's ``pascal_row`` calls,
        then of the audit's ``pascal_step`` calls."""
        return [
            _count_calls(monkeypatch, name, function, module=module)
            for name, function, module in (
                ("pascal_row", pascal_row, engine_module),
                ("pascal_row", pascal_row, audit_module),
                ("pascal_step", pascal_step, audit_module),
            )
        ]

    def test_full_audit_builds_one_row_and_three_steps_per_audited_degree(
        self, calls
    ):
        # 4 window seeds: d = 1, 2, 3, then d = 3 again when the K0_PRINTED
        # probe reads the window after d = 100; at each of d = 3..100 the
        # row C(3d-4, .), stepped to C(3d-1, .) for the direct T and the
        # direct splitting sums.
        run_full_audit(InvariantEngine(), 100)
        assert [count[0] for count in calls] == [4, 98, 3 * 98]

    def test_the_recursions_build_none(self, calls):
        InvariantEngine().n1(200)
        assert [count[0] for count in calls] == [0, 0, 0]

    def test_a_table_takes_three_steps_per_degree(self, monkeypatch):
        # The splitting sums read the window's rows and step none of their own.
        steps = _count_calls(monkeypatch, "pascal_step", pascal_step)
        build_records(InvariantEngine(), 100)
        assert steps[0] == 3 * 100


def test_the_engine_stores_ints_only_and_sums_each_degree_once(monkeypatch):
    engine = InvariantEngine()
    run_full_audit(engine, 30)
    build_records(engine, 30)
    for name, state in vars(engine).items():
        if name != "_window":
            assert state, name
            for entry in state.values() if isinstance(state, dict) else state:
                assert type(entry) is int, (name, entry)
    # N0 is summed once per degree, d = 2..100; 2m once per degree,
    # d = 3..100 in the audit and d = 1..100 in a table; the K0_PRINTED
    # bracket at each call, d = 3 only in the audit and d = 1..100 in a
    # table: 99 + 98 + 1 and 99 + 100 + 100.  Each sum runs over a row
    # of exactly d - 1 entries, which is what lets _paired_sum fold the
    # row with row[::-1].
    def check_row(row, a, d):
        assert len(row) == d - 1, (d, len(row))

    calls = _count_calls(
        monkeypatch, "_paired_sum", engine_module._paired_sum, check_row
    )
    for entry_point, expected in ((run_full_audit, 198), (build_records, 299)):
        calls[0] = 0
        entry_point(InvariantEngine(), 100)
        assert calls[0] == expected, entry_point.__name__


def test_a_filled_engine_reads_alike_from_four_threads():
    # Reads of a filled engine still fill 2m and re-seed the window (every
    # K0_PRINTED does), each built locally and published by one
    # assignment; a short switch interval interleaves the threads often.
    # A reader may also meet the empty window that a step publishes while
    # it builds the next rows, and then seeds rows of its own.
    engine = InvariantEngine()
    build_records(engine, 40)
    fresh = InvariantEngine()
    queries = [(kind, d) for kind in InvariantKind for d in range(1, 41)]
    expected = {query: fresh.value(*query) for query in queries}
    mismatches = {}

    def read(seed):
        order = random.Random(seed).sample(queries, len(queries))
        mismatches[seed] = [q for q in order if engine.value(*q) != expected[q]]

    threads = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == {seed: [] for seed in range(4)}


def _count_calls(monkeypatch, name, function, check=None, module=engine_module):
    """Patch ``module.<name>`` (the engine's by default) to count its
    calls, handing each call's arguments to ``check`` first if given;
    returns the counter."""
    count = [0]

    def counting(*args):
        count[0] += 1
        if check is not None:
            check(*args)
        return function(*args)

    monkeypatch.setattr(module, name, counting)
    return count
