"""Height computations against frozen ground truth and the closed-form tables."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuplength.gf2poly import Gf2Polynomial
from cuplength.grassmann import GrassmannPresentation, monomial_basis
from cuplength.heights import (
    ZeroClassError,
    closed_form_w2_height,
    decompose_n,
    height_direct,
    rational_p1_height,
    tabulated_w2_height,
)

# frozen from independent incremental-power runs of the ladder engine
UNORIENTED_W2_HEIGHTS = {
    (6, 3): 4,
    (7, 3): 6,
    (8, 3): 7,
    (9, 3): 7,
    (10, 3): 8,
    (11, 3): 10,
    (12, 3): 11,
    (13, 3): 14,
    (16, 3): 15,
    (17, 3): 15,
    (8, 4): 7,
    (9, 4): 7,
    (10, 4): 12,
    (11, 4): 12,
    (12, 4): 15,
    (10, 5): 12,
    (11, 5): 12,
    (12, 5): 12,
    (13, 5): 15,
}

ORIENTED_W2_HEIGHTS = {
    (6, 3): 1,
    (7, 3): 4,
    (8, 3): 4,
    (9, 3): 4,
    (10, 3): 4,
    (11, 3): 4,
    (12, 3): 4,
    (13, 3): 9,
    (8, 4): 4,
    (9, 4): 4,
    (10, 4): 6,
    (11, 4): 8,
    (12, 4): 8,
    (10, 5): 4,
    (11, 5): 8,
    (12, 5): 8,
    (12, 6): 9,
}


def w2(weights):
    return Gf2Polynomial.variable(weights, 2)


@pytest.mark.parametrize("n,k", sorted(UNORIENTED_W2_HEIGHTS))
def test_unoriented_heights_frozen(n, k):
    pres = GrassmannPresentation(n, k)
    record = height_direct(pres, w2(pres.weights))
    assert record.height == UNORIENTED_W2_HEIGHTS[(n, k)]
    assert record.context == "unoriented"
    assert record.witness_nonzero == 2 * record.height
    assert record.witness_zero == record.height + 1


@pytest.mark.parametrize("n,k", sorted(ORIENTED_W2_HEIGHTS))
def test_oriented_heights_frozen(n, k):
    ctx = GrassmannPresentation(n, k).oriented()
    record = height_direct(ctx, w2(ctx.weights))
    assert record.height == ORIENTED_W2_HEIGHTS[(n, k)]
    assert record.context == "oriented-characteristic"


def test_closed_form_matches_frozen_heights():
    for (n, k), height in UNORIENTED_W2_HEIGHTS.items():
        assert closed_form_w2_height(n, k) == height, (n, k)


def test_tabulated_and_closed_form_disagree_exactly_on_k5_band():
    mismatches = [
        (n, k)
        for k, lo, hi in ((3, 6, 40), (4, 8, 24), (5, 10, 20))
        for n in range(lo, hi + 1)
        if tabulated_w2_height(n, k) != closed_form_w2_height(n, k)
    ]
    assert mismatches == [(10, 5), (11, 5), (12, 5)]
    assert tabulated_w2_height(12, 5) == 15
    assert closed_form_w2_height(12, 5) == 12


def test_closed_form_never_exceeds_half_dimension():
    for k in (3, 4, 5, 6):
        for n in range(2 * k, 70):
            assert 2 * closed_form_w2_height(n, k) <= k * (n - k), (n, k)


def test_decompose_n_forms():
    assert (decompose_n(9).s, decompose_n(9).form) == (3, "2^s+1")
    assert (decompose_n(10).s, decompose_n(10).form) == (3, "2^s+2")
    d11 = decompose_n(11)
    assert (d11.s, d11.p, d11.t, d11.form) == (3, 1, None, "2^s+2^p+1")
    d15 = decompose_n(15)
    assert (d15.s, d15.p, d15.t, d15.form) == (3, 2, 2, "2^s+2^p+t+1")


@settings(max_examples=200)
@given(st.integers(6, 4096))
def test_decompose_n_reconstructs(n):
    d = decompose_n(n)
    assert 2**d.s < n <= 2 ** (d.s + 1)
    if d.form == "2^s+1":
        assert n == 2**d.s + 1
    elif d.form == "2^s+2":
        assert n == 2**d.s + 2
    elif d.form == "2^s+2^p+1":
        assert n == 2**d.s + 2**d.p + 1 and 1 <= d.p < d.s
    else:
        assert n == 2**d.s + 2**d.p + d.t + 1 and 1 <= d.t < 2**d.p


def test_rational_heights():
    assert rational_p1_height(8, 4) == 4
    assert rational_p1_height(13, 4) == 8
    assert rational_p1_height(10, 4) == 6
    assert rational_p1_height(11, 5) == 6
    with pytest.raises(ValueError):
        rational_p1_height(9, 3)


def test_zero_class_raises():
    ctx = GrassmannPresentation(9, 3).oriented()
    with pytest.raises(ZeroClassError):
        height_direct(ctx, Gf2Polynomial(ctx.weights, [(5, 0)]))
    pres = GrassmannPresentation(6, 3)
    with pytest.raises(ZeroClassError):
        height_direct(pres, Gf2Polynomial(pres.weights, [(0, 2, 0)]) ** 3)


def test_class_above_formal_dimension_is_zero_without_a_ladder():
    # w2^10 has degree 20, above N = 18, so both rings know it is zero without building a degree.
    pres = GrassmannPresentation(9, 3)
    for ctx in (pres, pres.oriented()):
        with pytest.raises(ZeroClassError):
            height_direct(ctx, w2(ctx.weights) ** 10)
        assert ctx._ranks == []


def test_height_requires_homogeneous_positive_degree():
    pres = GrassmannPresentation(6, 3)
    with pytest.raises(ValueError):
        height_direct(pres, Gf2Polynomial.one(pres.weights))
    with pytest.raises(ValueError):
        height_direct(pres, Gf2Polynomial(pres.weights, [(0, 1, 0), (0, 0, 1)]))


def test_oriented_le_unoriented():
    for (n, k), oriented in ORIENTED_W2_HEIGHTS.items():
        unoriented = UNORIENTED_W2_HEIGHTS.get((n, k))
        if unoriented is not None:
            assert oriented <= unoriented


def power_height(ctx, x):
    """Oracle: the largest c with normal_form(x**c) nonzero, from whole polynomial powers."""
    d = x.homogeneous_degree()
    c = 0
    while (c + 1) * d <= ctx.N and ctx.normal_form(x ** (c + 1)):
        c += 1
    return c


@pytest.mark.parametrize("n,k", [(9, 3), (13, 3), (10, 4), (12, 4), (11, 5)])
def test_vector_heights_match_power_oracle(n, k):
    rng = random.Random(1000 * n + k)
    pres = GrassmannPresentation(n, k)
    zero_classes = 0
    for ctx, lo in ((pres, 1), (pres.oriented(), 2)):
        for _ in range(12):
            degree = rng.randint(lo, ctx.N // 2)
            basis = monomial_basis(ctx.weights, degree)
            x = Gf2Polynomial(ctx.weights, rng.sample(basis, rng.randint(1, min(3, len(basis)))))
            expected = power_height(ctx, x)
            if expected == 0:
                with pytest.raises(ZeroClassError):
                    height_direct(ctx, x)
                continue
            record = height_direct(ctx, x)
            assert record.height == expected, (n, k, ctx.weights, x.render())
            assert record.witness_nonzero == expected * degree
            # x plus its normal form lies in the ideal: a zero class whenever it is nonzero.
            in_ideal = x + ctx.normal_form(x)
            if in_ideal:
                zero_classes += 1
                with pytest.raises(ZeroClassError):
                    height_direct(ctx, in_ideal)
    assert zero_classes > 0
