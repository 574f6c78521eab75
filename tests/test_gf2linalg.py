"""Bit-packed GF(2) elimination against independent naive oracles."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cuplength.gf2linalg import Eliminator

from conftest import add_row, installed_rows, naive_rank


def holding(rows: list[int]) -> Eliminator:
    """An Eliminator the given rows were added to, in order."""
    elim = Eliminator()
    for r in rows:
        add_row(elim, r)
    return elim


def span_of(rows: list[int]) -> set[int]:
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return span


def test_membership_against_span_enumeration():
    rng = random.Random(20240817)
    for _ in range(300):
        width = rng.randint(1, 24)
        count = rng.randint(0, min(12, width))
        rows = [rng.getrandbits(width) for _ in range(count)]
        elim = holding(rows)
        span = span_of(rows)
        assert elim.rank == naive_rank(rows)
        sample = rng.sample(sorted(span), min(16, len(span)))
        for v in sample:
            assert not elim.reduce(v)
        for _ in range(16):
            v = rng.getrandbits(width)
            assert (not elim.reduce(v)) == (v in span)


def random_row(rng: random.Random, width: int, density_draws: int) -> int:
    """AND of several uniform draws: density 2^-draws, draws=1 is uniform."""
    r = (1 << width) - 1
    for _ in range(density_draws):
        r &= rng.getrandbits(width)
    return r


def test_rank_against_naive_elimination_200x200():
    rng = random.Random(99173)
    for trial in range(100):
        draws = rng.choice((1, 1, 2, 4))
        rows = [random_row(rng, 200, draws) for _ in range(200)]
        assert holding(rows).rank == naive_rank(rows), f"trial {trial}"


def test_spec_reduced_echelon_example():
    assert holding([0b011, 0b110]).finalize() == {0: 0b101, 1: 0b110}


@settings(max_examples=80)
@given(st.lists(st.integers(0, 2**16 - 1), max_size=12))
def test_reduced_echelon_shape(rows):
    pivot_rows = holding(rows).finalize()
    for p, row in pivot_rows.items():
        assert row & -row == 1 << p, "pivot is not the lowest set bit"
        for q in pivot_rows:
            if q != p:
                assert not row & (1 << q), "pivot column not cleared"


@settings(max_examples=80)
@given(st.lists(st.integers(0, 2**12 - 1), max_size=10))
def test_reduce_fixed_point(rows):
    elim = holding(rows)
    pivots = sum(1 << p for p in elim.finalize())
    for r in rows:
        assert elim.reduce(r) == 0
    for v in range(0, 2**12, 173):
        reduced = elim.reduce(v)
        assert not reduced & pivots, "normal form has a bit in a pivot column"
        assert elim.reduce(reduced) == reduced
        assert elim.reduce(v ^ reduced) == 0


def test_eliminator_add_reports_growth():
    elim = Eliminator()
    assert elim.add(0b101, 0)
    assert not elim.add(0b101, 0)
    assert elim.add(0b011, 0)
    assert not elim.add(0b011, 1)
    assert elim.rank == 2


@settings(max_examples=80)
@given(st.lists(st.integers(0, 2**16 - 1), max_size=12))
def test_add_installs_odd_rows_at_their_pivots_and_returns_one_past_the_pivot(rows):
    elim = Eliminator()
    for r in rows:
        before = dict(elim._piv)
        q = add_row(elim, r)
        if q:
            # One new pivot, q - 1; the rows already installed are untouched.
            assert set(elim._piv) == set(before) | {q - 1} and q - 1 not in before
            assert all(elim._piv[p] is u for p, u in before.items())
            # The installed row is r reduced by rows of the span, shifted down to its pivot.
            assert elim._piv[q - 1] & 1
            assert naive_rank(list(installed_rows(elim).values()) + [r]) == elim.rank
        else:
            assert elim._piv == before
    assert elim.rank == naive_rank(rows)


def test_finalize_idempotent_membership():
    rng = random.Random(5)
    rows = [rng.getrandbits(20) for _ in range(9)]
    elim = holding(rows)
    installed = dict(elim._piv)
    before = {v: not elim.reduce(v) for v in (rng.getrandbits(20) for _ in range(50))}
    snapshot = elim.finalize()
    assert elim.finalize() == snapshot
    for v, was in before.items():
        assert (not elim.reduce(v)) == was
    assert len(snapshot) == elim.rank
    for r in rows:
        assert elim.reduce(r) == 0
    assert elim._piv == installed


@settings(max_examples=80)
@given(st.lists(st.integers(0, 2**16 - 1), max_size=12))
def test_finalize_snapshot_spans_the_rows_and_leaves_them_installed(rows):
    elim = holding(rows)
    installed = dict(elim._piv)
    snapshot = elim.finalize()
    assert len(snapshot) == elim.rank == naive_rank(rows)
    assert naive_rank(rows + list(snapshot.values())) == elim.rank
    assert elim._piv == installed


def test_add_returns_installed_pivot_and_reads_leave_the_row_installed():
    elim = Eliminator()
    assert elim.add(0b011, 0) == 1
    # Reduced only until its lowest bit is a new pivot: 0b101 ^ 0b011 = 0b110, pivot 1.
    assert elim.add(0b101, 0) == 2
    assert elim.add(0b011, 1) == 0
    # Row 0 keeps its bit in pivot column 1; the normal form is the same either way.
    assert elim.reduce(0b010) == 0b100
    # Each row is kept shifted down to its pivot: 0b110 as 0b11 at 1.
    assert elim._piv == {0: 0b011, 1: 0b011}
    assert installed_rows(elim) == {0: 0b011, 1: 0b110}
    assert elim.finalize() == {0: 0b101, 1: 0b110}
    assert elim._piv == {0: 0b011, 1: 0b011}


def test_add_keeps_the_row_object_it_installs_unreduced():
    # A row that reaches a new pivot untouched is stored as the object handed in.
    elim = Eliminator()
    row = (1 << 300) + 1
    elim.add(0b1, 0)
    assert elim.add(row, 5) == 6
    assert elim._piv[5] is row


def test_reads_between_adds_leave_no_hidden_state():
    read, unread = Eliminator(), Eliminator()
    for elim in (read, unread):
        elim.add(0b101, 0)
        elim.add(0b1, 2)
    assert read.reduce(0b011) == 0b010
    read.finalize()
    # 0b011 ^ 0b101 = 0b110 against the rows as installed; a read that
    # back-substituted row 0 to 0b001 would make this add install 0b010.
    assert read.add(0b011, 0) == unread.add(0b011, 0) == 2
    assert read._piv == unread._piv == {0: 0b101, 1: 0b11, 2: 0b1}
    rng = random.Random(611)
    for trial in range(200):
        read, unread = Eliminator(), Eliminator()
        for _ in range(rng.randint(1, 14)):
            v = rng.getrandbits(16)
            if rng.random() < 0.5:
                read.reduce(rng.getrandbits(16))
                read.finalize()
            assert add_row(read, v) == add_row(unread, v), f"trial {trial}"
        assert read._piv == unread._piv, f"trial {trial}"


@settings(max_examples=80)
@given(st.lists(st.integers(1, 2**16 - 1), max_size=12), st.lists(st.integers(0, 2**16 - 1), max_size=6))
def test_rows_stored_straight_into_free_pivots_are_seen_by_the_next_read(rows, probes):
    # A caller may store an odd row at a free pivot without add; reads made
    # before and after each store must see exactly the rows stored so far.
    elim = Eliminator()
    assert elim.reduce(0b1) == 0b1
    for r in rows:
        p = (r & -r).bit_length() - 1
        if p not in elim._piv:
            elim.reduce(r)
            elim._piv[p] = r >> p
        stored = list(installed_rows(elim).values())
        for v in probes + [r]:
            w = elim.reduce(v)
            # The normal form: no bit in a pivot column, and v - w in the span.
            assert not any(w >> q & 1 for q in elim._piv)
            assert naive_rank(stored + [v ^ w]) == len(stored)


def test_add_computes_each_deferred_row_it_reads_once_as_the_int_it_stands_for():
    calls = []

    def spread(u: int, s: int) -> int:
        calls.append((u, s))
        return u ^ u << s

    inner = [spread, 0b1011, 1]  # 0b11101
    outer = [spread, inner, 2]  # 0b1101001
    deferred, plain = Eliminator(), Eliminator()
    # A chain of two, at a free pivot: installed as the bits it stands for.
    assert deferred.add(outer, 3) == plain.add(0b1101001, 3) == 4
    assert deferred._piv == plain._piv and len(calls) == 2
    # Read again, neither row is computed again; in the span, outer adds nothing.
    assert deferred.add(outer, 3) == plain.add(0b1101001, 3) == 0
    assert deferred.add(inner, 3) == plain.add(0b11101, 3) == 6
    assert len(calls) == 2
    # A deferred row stored straight into a free pivot is computed when an
    # add xors it, once, and kept there as an int.
    deferred._piv[0], plain._piv[0] = [spread, 0b1, 4], 0b10001
    for _ in range(2):
        assert deferred.add(0b1, 0) == plain.add(0b1, 0)
    assert deferred._piv == plain._piv and len(calls) == 3
    assert all(type(u) is int for u in deferred._piv.values())
