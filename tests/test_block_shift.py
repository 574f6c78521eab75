"""Block shifts against the per-bit column-map loop they replaced.

GradedQuotient._shift multiplies a row by a variable one run of columns at a
time, reading run tables derived from monomial counts; the ladder does the
same to a row stored shifted down to its pivot.  The reference here is
the loop the ladder used before: one set bit at a time through a column map
looked up in monomial_basis.  The tables themselves are checked against the
maximal runs of that map, and the columns, ranked from the same counts,
against monomial_basis as well.  CI also runs this file under python -O.
"""

import random
from bisect import bisect_left, bisect_right
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuplength.gf2poly import Gf2Polynomial
from cuplength.grassmann import (
    GradedQuotient,
    GrassmannPresentation,
    _shifted,
    k3_reduced_quotient,
    monomial_basis,
    w1_adjoined_quotient,
)

from conftest import shift_bits

# Tables are checked for every source degree d and variable x_p with d + w_p <= TOP.
# A ring drops its tables into degrees above its top once it learns it, so
# no ring here may learn a top below TOP.
TOP = 16

QUOTIENTS = {
    "unoriented (1, 2, 3)": lambda: GrassmannPresentation(12, 3),
    "unoriented (1, ..., 5)": lambda: GrassmannPresentation(10, 5),
    "oriented (2, 3, 4)": lambda: GrassmannPresentation(12, 4).oriented(),
    "oriented (2, ..., 6)": lambda: GrassmannPresentation(12, 6).oriented(),
    "w1-adjoined (1, ..., 4)": lambda: w1_adjoined_quotient(12, 4),
    "closed form (2, 3)": lambda: k3_reduced_quotient(13),
    "single variable (2,)": lambda: GradedQuotient((2,), [Gf2Polynomial((2,), [(9,)])], TOP),
}


def column_map(weights, degree: int, pos: int) -> list[int]:
    """Where multiplication by the variable at pos sends each column of the degree."""
    target = monomial_basis(weights, degree + weights[pos])
    index = {m: i for i, m in enumerate(target)}
    return [index[m[:pos] + (m[pos] + 1,) + m[pos + 1 :]] for m in monomial_basis(weights, degree)]


@cache
def built(kind: str):
    quotient = QUOTIENTS[kind]()
    quotient.extend_to(TOP)
    assert quotient.top >= TOP, kind
    return quotient


def shifts(quotient):
    """Every (source degree, variable position) whose table the build made."""
    return [(d, pos) for pos, w in enumerate(quotient.weights) for d in range(TOP - w + 1)]


def random_row(rng: random.Random, width: int, density: float) -> int:
    v = 0
    for c in range(width):
        if rng.random() < density:
            v |= 1 << c
    return v


@pytest.mark.parametrize("kind", sorted(QUOTIENTS))
def test_block_shift_matches_per_bit_loop_on_every_degree_and_variable(kind):
    quotient = built(kind)
    rng = random.Random(kind)
    for d, pos in shifts(quotient):
        mapping = column_map(quotient.weights, d, pos)
        width = len(mapping)
        rows = [0, (1 << width) - 1] + [1 << c for c in range(width)]
        rows += [random_row(rng, width, density) for density in (0.05, 0.25, 0.5, 0.75, 0.95)]
        for v in rows:
            assert quotient._shift(v, d, pos) == shift_bits(v, mapping), (d, pos, v)


@settings(max_examples=300)
@given(st.data())
def test_block_shift_matches_per_bit_loop_on_random_rows(data):
    quotient = built(data.draw(st.sampled_from(sorted(QUOTIENTS))))
    d, pos = data.draw(st.sampled_from(shifts(quotient)))
    mapping = column_map(quotient.weights, d, pos)
    density = data.draw(st.floats(0, 1))
    v = random_row(random.Random(data.draw(st.integers(0, 2**32))), len(mapping), density)
    assert quotient._shift(v, d, pos) == shift_bits(v, mapping)


@settings(max_examples=300)
@given(st.data())
def test_offset_shift_of_a_row_stored_at_its_pivot(data):
    # The ladder keeps a row as u at pivot sp, standing for u << sp, and
    # shifts it straight to its image shifted down to the image of sp.
    quotient = built(data.draw(st.sampled_from(sorted(QUOTIENTS))))
    # Degrees with no monomial hold no row.
    d, pos = data.draw(st.sampled_from([(d, pos) for d, pos in shifts(quotient) if quotient._counts[-1][d]]))
    mapping = column_map(quotient.weights, d, pos)
    starts, targets = quotient._blocks[d, pos]
    sp = data.draw(st.integers(0, len(mapping) - 1))
    u = data.draw(st.integers(0, 2 ** (len(mapping) - sp - 1) - 1)) << 1 | 1
    p = mapping[sp]
    # The pivot's image is read off the run that holds it.
    i = bisect_right(starts, sp) - 1
    assert sp - starts[i] + targets[i] == p
    shifted = _shifted(u, starts, targets, sp, p)
    assert shifted == _shifted(u << sp, starts, targets, 0, 0) >> p == shift_bits(u << sp, mapping) >> p
    assert shifted & 1


@pytest.mark.parametrize("kind", sorted(QUOTIENTS))
def test_block_tables_are_maximal_runs_of_column_map(kind):
    quotient = built(kind)
    for d, pos in shifts(quotient):
        mapping = column_map(quotient.weights, d, pos)
        starts, targets = quotient._blocks[d, pos]
        # A run ends where a column does not land right after its predecessor's image.
        assert list(starts) == [c for c in range(len(mapping)) if c == 0 or mapping[c] != mapping[c - 1] + 1]
        assert list(targets) == [mapping[c] for c in starts]
        # The monomials with no variable after x_pos, the first columns, are
        # what the signature ladder reads; it used to find them by bisection.
        basis = monomial_basis(quotient.weights, d)
        limit = bisect_left(basis, True, key=lambda m: any(m[pos + 1 :]))
        assert quotient._counts[pos][d] == limit


@pytest.mark.parametrize("kind", sorted(QUOTIENTS))
def test_columns_ranked_by_counting_follow_the_reference_enumeration(kind):
    quotient = built(kind)
    weights = quotient.weights
    for d in range(TOP + 1):
        basis = monomial_basis(weights, d)
        for c, m in enumerate(basis):
            assert quotient._devectorize(1 << c, d) == Gf2Polynomial(weights, [m]), (d, c)
            assert quotient._vectorize(Gf2Polynomial(weights, [m]), d) == 1 << c, (d, m)
        everything = Gf2Polynomial(weights, basis)
        assert quotient._vectorize(everything, d) == (1 << len(basis)) - 1, d
        assert quotient._devectorize((1 << len(basis)) - 1, d) == everything, d
