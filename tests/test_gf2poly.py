"""Polynomial arithmetic over GF(2): goldens, algebra laws, parser round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuplength.gf2poly import (
    EXPONENT_CAP,
    Gf2Polynomial,
    Monomial,
    ideal_gens_k3,
    inverse_series_components,
    lucas_parity,
    parse_polynomial,
)

W23 = (2, 3)
W123 = (1, 2, 3)


def poly(weights, *exps):
    return Gf2Polynomial(weights, list(exps))


@st.composite
def polynomials(draw, weights=W23, max_exp=4, max_terms=5):
    width = len(weights)
    term = st.tuples(*(st.integers(0, max_exp) for _ in range(width)))
    return Gf2Polynomial(weights, draw(st.lists(term, max_size=max_terms)))


def test_generator_identity_n6():
    assert ideal_gens_k3(6) == (
        poly(W23, (2, 0)),
        Gf2Polynomial.zero(W23),
        poly(W23, (0, 2), (3, 0)),
    )


def test_generator_identity_n9():
    assert ideal_gens_k3(9) == (
        poly(W23, (2, 1)),
        poly(W23, (1, 2), (4, 0)),
        poly(W23, (0, 3)),
    )


def test_closed_form_matches_series_reduction():
    for n in range(6, 33):
        comps = inverse_series_components(3, n)
        reduced = tuple(comps[d].substitute_zero(1) for d in (n - 2, n - 1, n))
        assert reduced == ideal_gens_k3(n), f"n = {n}"


def test_series_inverse_is_inverse():
    for k in (2, 3, 4):
        weights = tuple(range(1, k + 1))
        comps = inverse_series_components(k, 12)
        total = Gf2Polynomial.zero(weights)
        for comp in comps:
            total = total + comp
        series = Gf2Polynomial.one(weights)
        for w in weights:
            series = series + Gf2Polynomial.variable(weights, w)
        low = [t for t in (series * total).terms if t.degree <= 12]
        assert Gf2Polynomial(weights, low) == Gf2Polynomial.one(weights)


def test_lucas_parity_small_table():
    rows = {}
    for i in range(8):
        rows[i] = [lucas_parity(i, j) for j in range(i + 1)]
    pascal = [[1]]
    for i in range(1, 8):
        prev = pascal[-1] + [0]
        pascal.append([(prev[j - 1] + prev[j]) % 2 if j else 1 for j in range(i + 1)])
    for i in range(8):
        assert rows[i] == pascal[i]


def test_monomial_ordering_canonical():
    a = Monomial((1, 0), W23)
    b = Monomial((0, 1), W23)
    c = Monomial((3, 0), W23)
    d = Monomial((0, 2), W23)
    assert sorted([d, c, b, a], key=lambda m: m.sort_key()) == [a, b, c, d]


@pytest.mark.parametrize(
    "weights,terms,message",
    [
        ((), [], "strictly increasing positive"),
        ((3, 2), [], "strictly increasing positive"),
        ((2, 2), [], "strictly increasing positive"),
        ((0, 2), [], "strictly increasing positive"),
        (W23, [(1,)], "exponent vector length"),
        (W23, [(1, -1)], "negative exponent"),
        (W23, [(EXPONENT_CAP + 1, 0)], f"exceeds cap {EXPONENT_CAP}"),
        (W23, [Monomial((1, 0, 0), W123)], "different variable set"),
    ],
)
def test_constructor_refusals(weights, terms, message):
    with pytest.raises(ValueError, match=message):
        Gf2Polynomial(weights, terms)


def test_render_golden():
    assert poly(W23, (1, 2), (4, 0)).render() == "w2*w3^2 + w2^4"
    # Highest degree first, and within a degree the larger reversed exponent vector first.
    assert parse_polynomial("w2 + w2^3 + w3^2", W23).render() == "w3^2 + w2^3 + w2"
    assert (
        parse_polynomial("w3^2 + w2^3 + w2 + w2*w3 + 1 + w4*w2", (2, 3, 4)).render()
        == "w2*w4 + w3^2 + w2^3 + w2*w3 + w2 + 1"
    )
    assert Gf2Polynomial.zero(W23).render() == "0"
    assert Gf2Polynomial.one(W23).render() == "1"


def test_parse_golden():
    assert parse_polynomial("w2^2*w3 + w3^3", W23) == poly(W23, (2, 1), (0, 3))
    assert parse_polynomial("1", W23) == Gf2Polynomial.one(W23)
    assert parse_polynomial("0", W23) == Gf2Polynomial.zero(W23)
    with pytest.raises(ValueError):
        parse_polynomial("w5", W23)
    with pytest.raises(ValueError):
        parse_polynomial("w2 +", W23)
    assert parse_polynomial("w2 + w3 + w2", W23) == poly(W23, (0, 1))
    # Every term is checked, even one that a later term cancels.
    with pytest.raises(ValueError, match="exceeds cap"):
        parse_polynomial("w2^300 + w2^300", W23)


@pytest.mark.parametrize(
    "terms,message",
    [
        ([(300, 0), (300, 0)], "exceeds cap"),
        ([(-1, 0), (-1, 0)], "negative exponent"),
        ([(1,), (1,)], "exponent vector length"),
    ],
)
def test_constructor_checks_terms_that_cancel(terms, message):
    with pytest.raises(ValueError, match=message):
        Gf2Polynomial(W23, terms)


def test_characteristic_two_cancellation():
    x = poly(W23, (1, 0))
    assert x + x == Gf2Polynomial.zero(W23)
    assert Gf2Polynomial(W23, [(1, 0), (1, 0)]) == Gf2Polynomial.zero(W23)


@settings(max_examples=60)
@given(polynomials(), polynomials(), polynomials())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(polynomials())
def test_square_is_frobenius(a):
    assert a.square() == a * a
    assert a.square() == Gf2Polynomial(a.weights, [tuple(2 * e for e in t.exps) for t in a.terms])


@settings(max_examples=40)
@given(polynomials(max_exp=3, max_terms=3), st.integers(0, 5))
def test_power_matches_repeated_product(a, e):
    expected = Gf2Polynomial.one(a.weights)
    for _ in range(e):
        expected = expected * a
    assert a**e == expected


@settings(max_examples=60)
@given(polynomials())
def test_render_parse_round_trip(a):
    assert parse_polynomial(a.render(), a.weights) == a


@settings(max_examples=60)
@given(polynomials(weights=W123))
def test_substitute_zero_is_ring_map(a):
    b = a.substitute_zero(1)
    direct = Gf2Polynomial(
        (2, 3), [t.exps[1:] for t in a.terms if t.exps[0] == 0]
    )
    assert b == direct


def test_homogeneous_detection():
    assert poly(W23, (3, 0), (0, 2)).is_homogeneous()
    assert poly(W23, (3, 0), (0, 2)).homogeneous_degree() == 6
    assert not poly(W23, (1, 0), (0, 1)).is_homogeneous()
