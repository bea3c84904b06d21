"""The engine's binomial pair row and the audit's independent rows.

The window serves the pair row of one degree at a time: the half row
R(i) = C(3d-2, 3i-1), 1 <= i <= d // 2, with the middle pair of an even
d at half weight, built anew by exact ratios at each degree; the engine
builds no ``exact.pascal_step`` row.  The audit carries one chain of
Pascal rows across its degrees, stepped three times per degree by
``exact.pascal_step`` from the empty row C(-1, .), and keeps C(3d-4, .)
.. C(3d-1, .) at each degree for its direct T and splitting sums.  Every row is compared with
``math.comb``.
"""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc
from collections import Counter
from functools import lru_cache
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from severi import InvariantEngine, InvariantKind
from severi import audit as audit_module
from severi import engine as engine_module
from severi.audit import run_full_audit, run_identity_suite
from severi.exact import pascal_step
from severi.tables import build_records


@lru_cache(maxsize=None)
def _stepped_row(n):
    """C(n, .) by ``pascal_step`` alone, from the empty row C(-1, .)."""
    return pascal_step(_stepped_row(n - 1)) if n >= 0 else []


@lru_cache(maxsize=8)
def _comb_row(n):
    """C(n, .) from ``math.comb``, half computed and half mirrored."""
    half = [comb(n, k) for k in range(n // 2 + 1)]
    return half + half[::-1][1 - n % 2:] if n >= 0 else []


def _assert_window_row(engine, d):
    # At even d the last entry is the middle pair's: exactly half of the
    # central binomial C(3d-2, 3d/2 - 1), which is even.
    row = engine._row(d)
    assert engine._window == (d, row)
    half = [comb(3 * d - 2, 3 * i - 1) for i in range(1, d // 2 + 1)]
    if d % 2 == 0:
        assert half[-1] % 2 == 0 and 2 * row[-1] == half[-1], d
        half[-1] //= 2
    assert row == half, d


class TestPascalRows:
    # The step adds on the first half only and mirrors it.  The chain from
    # the empty row C(-1, .), through both parities of n and n = 0.
    @pytest.mark.parametrize("n", range(-1, 61))
    def test_half_full_and_step_match_comb(self, n):
        assert _stepped_row(n) == [comb(n, k) for k in range(n + 1)]


class TestRowWindow:
    def test_every_served_row_up_to_degree_100_in_sequence(self):
        engine = InvariantEngine()
        for d in range(1, 101):
            _assert_window_row(engine, d)

    @pytest.mark.parametrize("d", [200, 572, 600])
    def test_rows_after_a_jump(self, d):
        engine = InvariantEngine()
        engine._row(7)
        _assert_window_row(engine, d)
        _assert_window_row(engine, d - 1)
        _assert_window_row(engine, d)
        _assert_window_row(engine, 1)

    def test_n1_leaves_one_degree_of_rows_behind(self):
        engine = InvariantEngine()
        engine.n1(200)
        # No other attribute may hold binomial rows; the triples of the
        # splitting sums are filled with N0.
        lists = {"_n0", "_n1", "_u", "_sums"}
        assert set(vars(engine)) == lists | {"_window"}
        d, row = engine._window
        assert d == 200
        assert len(row) == 100
        assert {len(getattr(engine, name)) for name in lists} == {201}

    @pytest.mark.parametrize(
        "method, d",
        [("n1", 200), ("build_records", 200),
         pytest.param("n0", 572, marks=pytest.mark.slow)],
    )
    def test_a_fill_holds_under_one_row_beyond_what_it_keeps(self, method, d):
        # The traced peak of a fill less what the engine keeps is the
        # largest working set of one degree: the old and the new half row,
        # each a sixth of a full row's entries, while N0's loop streams its
        # pair products into s_0, s_1 and s_2 and the T fold streams its
        # products into T.  Counted in rows C(3d-1, .), it is 0.26 for
        # n1(200) and 0.33 for n0(572), and it was 0.38 and 0.34 with N0
        # and the moments summed in two passes; with N0's weights
        # multiplied into a list beside the rows, 0.44 and 0.39; with the
        # old half row bound to n1's locals while n0 builds the next, 0.75,
        # and with the four-row Pascal window, 1.4 and 1.3.  A table's
        # records to 200 are kept, and the values of its last degree, built
        # after its transient, offset it: 0.03, against 0.34 with the
        # weight lists of 2m and the bracket and 1.7 with the moment
        # products held in a list.  The yardstick is a stepped row, whose
        # mirrored half shares its ints with the first: a row of
        # ``math.comb`` entries would weigh about twice as much.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            row = []
            for _ in range(3 * d):  # C(-1, .) to C(3d-1, .)
                row = pascal_step(row)
            row_size = tracemalloc.get_traced_memory()[0] - before
            del row
            engine = InvariantEngine()
            tracemalloc.reset_peak()
            if method == "build_records":
                records = build_records(engine, d)  # kept, like the engine
            else:
                getattr(engine, method)(d)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < row_size, (peak - kept) / row_size

    @pytest.mark.slow
    def test_every_row_up_to_the_ceiling(self):
        # The pair row for every d <= 600; the audit's rows C(3d-4, .) ..
        # C(3d-1, .) for d <= 600 reach n = 1799, and the chain of
        # pascal_step from C(-1, .) is checked over that range.
        engine = InvariantEngine()
        for d in range(1, 601):
            _assert_window_row(engine, d)
        row = []
        for n in range(0, 1800):
            row = pascal_step(row)
            assert row == _comb_row(n), n


@lru_cache(maxsize=None)
def _fresh_value(kind, d):
    return InvariantEngine().value(kind, d)


_QUERY = st.tuples(st.sampled_from(list(InvariantKind)), st.integers(1, 30))


@settings(max_examples=60, deadline=None)
@given(st.lists(_QUERY, min_size=1, max_size=12))
def test_any_query_order_gives_the_values_of_fresh_engines(queries):
    # Jumps, revisits and lockstep moves of the window must not change
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
    assert engine._u == [(3 * k - 2) * k * x for k, x in enumerate(n0)]


class TestRowBuilds:
    """Only the audit builds Pascal rows, each once, by ``pascal_step``
    alone: three steps per degree.  The engine builds its pair row once
    per change of degree."""

    @pytest.fixture
    def stepped(self, monkeypatch):
        """The rows that the audit's ``pascal_step`` calls return."""
        stepped = []

        def stepping(row):
            stepped.append(pascal_step(row))
            return stepped[-1]

        monkeypatch.setattr(audit_module, "pascal_step", stepping)
        return stepped

    @pytest.fixture
    def moves(self, monkeypatch):
        """The (from, to) degrees of every build of the engine's half row."""
        moves, row = [], engine_module.InvariantEngine._row

        def recording(engine, d):
            if engine._window[0] != d:
                moves.append((engine._window[0], d))
            return row(engine, d)

        monkeypatch.setattr(engine_module.InvariantEngine, "_row", recording)
        return moves

    def test_full_audit_steps_each_row_once_and_builds_no_other(
        self, monkeypatch, stepped, moves
    ):
        # The chain from C(-1, .) = [], three steps to C(3d-1, .) at each
        # of d = 1..100: 300 rows, and every row that the direct T and the direct splitting sums read
        # is one of them, so the audit builds no row another way.  The engine
        # builds its pair row at d = 2..5 for the N0 anchors (N0(1) is the
        # seed), at d = 1..5 when the N1 anchors start T, and at d = 6..100
        # when the identity suite moves both on: once per degree of each
        # pass.  K0(3) and the other splitting statistics up to d = 5 read
        # the triples that N0's loop stored with N0, and the K0_PRINTED
        # probe at d = 3, after d = 100, reads the bracket of d = 3: none
        # builds a row.
        read, sums = [], audit_module._splitting_sums

        def splitting_sums(a, d, rows):
            read.append(rows)
            return sums(a, d, rows)

        monkeypatch.setattr(audit_module, "_splitting_sums", splitting_sums)
        run_full_audit(InvariantEngine(), 100)
        assert len(stepped) == 3 * 100
        built = {id(row) for row in stepped}  # kept alive, so ids are unique
        assert len(read) == 98
        assert all(len(rows) == 4 and {id(row) for row in rows} <= built for rows in read)
        assert [d for _, d in moves] == [*range(2, 6), *range(1, 6), *range(6, 101)]

    def test_the_recursions_build_none(self, stepped):
        assert "pascal_step" not in vars(engine_module)
        InvariantEngine().n1(200)
        build_records(InvariantEngine(), 100)
        assert stepped == []

    def test_a_table_builds_the_pair_row_once_per_degree(self, moves):
        # Every invariant of a degree reads the same half row.
        build_records(InvariantEngine(), 100)
        assert moves == [(d - 1, d) for d in range(1, 101)]


def test_the_identity_suite_reads_each_public_value_once_per_degree(monkeypatch):
    # The reads the suite makes, not those the engine makes inside them
    # (k1 reads t_op, g0 reads k0, k0 reads lr): N0 and N1 at every
    # degree, for the suite's lists, and the rest at each audited degree,
    # d = 3..30.
    engine, active = InvariantEngine(), []
    names = (
        "n0", "n1", "k0", "k1", "g0", "g1", "omega", "m_invariant",
        "reducible_fibre_count", "t_op",
    )
    calls = {
        name: _count_calls(monkeypatch, name, getattr(engine, name), engine, active)
        for name in names
    }
    run_identity_suite(engine, 30, [])
    for name, made in calls.items():
        first = 1 if name in ("n0", "n1") else 3
        assert [d for d, in made] == list(range(first, 31)), name


def test_t_k1_and_g1_read_the_stored_lists_without_the_public_n1(monkeypatch):
    # t_op and k1 are O(1) forms over the N1 and N0 the N1 loop stores,
    # and g1 reads T through t_op; each fills N1 only for a degree not yet
    # stored: on a fresh engine one call of t_op or k1 fills to its
    # degree, and then no read of T, K1 or G1 calls the public n1.
    filled = InvariantEngine()
    filled.n1(20)
    for first in ("t_op", "k1"):
        engine = InvariantEngine()
        made = _count_calls(monkeypatch, "n1", engine.n1, engine)
        assert getattr(engine, first)(20) == getattr(filled, first)(20)
        assert made == [(20,)], first
        made.clear()
        for d in range(1, 21):
            assert engine.t_op(d) == filled.t_op(d), d
            assert engine.k1(d) == filled.k1(d), d
            if d >= 3:
                assert engine.g1(d) == filled.g1(d), d
        assert made == [], first


def test_the_engine_stores_ints_only_and_sums_each_degree_once(monkeypatch):
    engine = InvariantEngine()
    run_full_audit(engine, 30)
    build_records(engine, 30)
    for name, state in vars(engine).items():
        if name != "_window":
            assert state, name
    lists = [engine._n0, engine._n1, engine._u]
    triples = engine._sums
    assert all(len(triple) == 3 for triple in triples)
    entries = [x for state in lists + triples for x in state]
    assert {type(entry) for entry in entries} == {int}
    # The triple is (NODES, 2m, B): the public NODES and M read its first
    # two entries as they stand.
    for d, (nodes, two_m, _) in enumerate(triples[1:], 1):
        assert engine.reducible_fibre_count(d) == nodes, d
        assert 2 * engine.m_invariant(d) == two_m, d
    # Each sum of a degree reads the pair row once, and only there: N0,
    # with NODES, 2m and the K0_PRINTED bracket, at d = 2..100 (d = 1 is
    # the seed), and N1, through T, at d = 1..100.
    readers, row = Counter(), engine_module.InvariantEngine._row

    def counting(engine, d):
        readers[sys._getframe(1).f_code.co_name] += 1
        return row(engine, d)

    monkeypatch.setattr(engine_module.InvariantEngine, "_row", counting)
    for entry_point, expected in (
        (run_full_audit, {"n0": 99, "n1": 100}),
        (build_records, {"n0": 99, "n1": 100}),
    ):
        readers.clear()
        entry_point(InvariantEngine(), 100)
        assert readers == expected, entry_point.__name__


def test_a_filled_engine_reads_alike_from_four_threads():
    # Reads of a filled engine move the window (a read at another degree
    # builds that degree's half row), built locally and published with
    # its degree by one assignment.
    engine = InvariantEngine()
    build_records(engine, 40)
    assert _four_thread_mismatches(engine) == {seed: [] for seed in range(4)}


def test_an_engine_filled_by_n1_alone_reads_alike_from_four_threads():
    # N0's loop stores the triple (NODES, 2m, B) with N0, so an engine
    # filled to its counts holds every sum, and the threads' reads write
    # nothing but the window.
    engine = InvariantEngine()
    engine.n1(40)
    assert len(engine._sums) == 41
    state = {name: list(value) for name, value in vars(engine).items() if name != "_window"}
    assert _four_thread_mismatches(engine) == {seed: [] for seed in range(4)}
    assert {name: value for name, value in vars(engine).items() if name != "_window"} == state


def test_a_table_forms_each_degree_s_pair_products_once(monkeypatch):
    # Every sum over N0(d1) N0(d2) -- N0, NODES, 2m and the K0_PRINTED
    # bracket -- is summed in n0's loop, and T in n1's: on a fresh engine,
    # a table to 40 reads each degree's pair row once from each of them,
    # and from nowhere else (d = 1 is the seed of N0 and of the sums).
    reads, row = Counter(), engine_module.InvariantEngine._row

    def counting(engine, d):
        reads[sys._getframe(1).f_code.co_name, d] += 1
        return row(engine, d)

    monkeypatch.setattr(engine_module.InvariantEngine, "_row", counting)
    build_records(InvariantEngine(), 40)
    expected = Counter({("n0", d): 1 for d in range(2, 41)})
    expected.update({("n1", d): 1 for d in range(1, 41)})
    assert reads == expected


def _four_thread_mismatches(engine):
    """The queries of every kind at d = 1..40 that four threads, each in
    its own random order, read differently from a fresh engine, keyed by
    thread; a short switch interval interleaves the threads often."""
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
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return mismatches


def _count_calls(monkeypatch, name, function, target, active=None):
    """Patch ``target``'s ``<name>`` to record the arguments of each call
    to ``function``; returns the list of them.  Counters that share the
    list ``active`` record outermost calls only: a call made while
    another runs (``g0`` reading ``k0``) is left out."""
    calls, active = [], [] if active is None else active

    def counting(*args):
        if not active:
            calls.append(args)
        active.append(name)
        try:
            return function(*args)
        finally:
            active.pop()

    monkeypatch.setattr(target, name, counting)
    return calls
