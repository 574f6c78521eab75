"""Bit-packed GF(2) elimination against independent naive oracles."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cuplength.gf2linalg import Eliminator


def naive_rank(rows: list[int]) -> int:
    """Textbook elimination with per-column scans, no pivot bookkeeping."""
    rows = [r for r in rows if r]
    count = 0
    while rows:
        pivot_row = rows[0]
        pivot_bit = pivot_row & -pivot_row
        count += 1
        rows = [r ^ pivot_row if r & pivot_bit else r for r in rows[1:]]
        rows = [r for r in rows if r]
    return count


def finalized(rows: list[int]) -> Eliminator:
    """An Eliminator holding the given rows, back-substituted."""
    elim = Eliminator()
    for r in rows:
        elim.add(r)
    elim.finalize()
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
        elim = Eliminator()
        for r in rows:
            elim.add(r)
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
        assert finalized(rows).rank == naive_rank(rows), f"trial {trial}"


def test_spec_reduced_echelon_example():
    assert finalized([0b011, 0b110]).pivot_rows() == {0: 0b101, 1: 0b110}


@settings(max_examples=80)
@given(st.lists(st.integers(0, 2**16 - 1), max_size=12))
def test_reduced_echelon_shape(rows):
    pivot_rows = finalized(rows).pivot_rows()
    for p, row in pivot_rows.items():
        assert row & -row == 1 << p, "pivot is not the lowest set bit"
        for q in pivot_rows:
            if q != p:
                assert not row & (1 << q), "pivot column not cleared"


@settings(max_examples=80)
@given(st.lists(st.integers(0, 2**12 - 1), max_size=10))
def test_reduce_fixed_point(rows):
    elim = finalized(rows)
    for r in rows:
        assert elim.reduce(r) == 0
    for v in range(0, 2**12, 173):
        reduced = elim.reduce(v)
        assert elim.reduce(reduced) == reduced
        assert elim.reduce(v ^ reduced) == 0


def test_eliminator_add_reports_growth():
    elim = Eliminator()
    assert elim.add(0b101)
    assert not elim.add(0b101)
    assert elim.add(0b011)
    assert not elim.add(0b110)
    assert elim.rank == 2


def test_finalize_idempotent_membership():
    rng = random.Random(5)
    rows = [rng.getrandbits(20) for _ in range(9)]
    elim = Eliminator()
    for r in rows:
        elim.add(r)
    before = {v: not elim.reduce(v) for v in (rng.getrandbits(20) for _ in range(50))}
    elim.finalize()
    for v, was in before.items():
        assert (not elim.reduce(v)) == was
    assert len(elim.pivot_rows()) == elim.rank
    for r in rows:
        assert elim.reduce(r) == 0


def test_add_returns_installed_row_and_first_use_finalizes():
    elim = Eliminator()
    assert elim.add(0b011) == 0b011
    # Reduced only until its lowest bit is a new pivot: 0b101 ^ 0b011.
    assert elim.add(0b101) == 0b110
    assert elim.add(0b110) == 0
    # The first reduce back-substitutes: row 0 loses its bit in pivot column 1.
    assert elim.reduce(0b010) == 0b100
    assert elim.pivot_rows() == {0: 0b101, 1: 0b110}
