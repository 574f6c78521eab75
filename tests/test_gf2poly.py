"""Polynomial arithmetic over GF(2): goldens, algebra laws, parser round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_polynomial_terms
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
        comps = inverse_series_components((1, 2, 3), n)
        reduced = tuple(comps[d].substitute_zero(1) for d in (n - 2, n - 1, n))
        assert reduced == ideal_gens_k3(n), f"n = {n}"


def test_series_without_w1_is_the_image_of_the_full_series_under_w1_to_zero():
    # w1 -> 0 is a ring map, so it sends 1/(1 + w1 + ... + wk) to 1/(1 + w2 + ... + wk) component by component.
    for k in range(2, 8):
        full = inverse_series_components(range(1, k + 1), 24)
        assert inverse_series_components(range(2, k + 1), 24) == [c.substitute_zero(1) for c in full], k


def test_series_inverse_is_inverse():
    for weights in ((1, 2), (1, 2, 3), (1, 2, 3, 4), (2, 3, 4), (3, 5)):
        comps = inverse_series_components(weights, 12)
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
        # C(i, j) = 0 for j > i.
        assert [lucas_parity(i, j) for j in range(i + 1, 10)] == [0] * (9 - i)
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
    # Every summand is parsed before any exponent is checked: a later parse error wins over an
    # earlier summand over the cap, and the cap is reported only once all of them parse.
    with pytest.raises(ValueError, match="cannot parse factor"):
        parse_polynomial(f"w2^{EXPONENT_CAP + 1} + w3^x", W23)
    with pytest.raises(ValueError, match="not in ring"):
        parse_polynomial(f"w2^{EXPONENT_CAP + 1} + w5", W23)
    with pytest.raises(ValueError, match="exceeds cap"):
        parse_polynomial(f"w2^{EXPONENT_CAP + 1} + w3", W23)


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


def outcome(build):
    try:
        return build()
    except ValueError as exc:
        return ("refused", str(exc))


@st.composite
def raw_terms(draw):
    """Weights, sometimes malformed, and a term list with duplicates, tuples,
    lists, Monomials over these or other weights, and out-of-range vectors."""
    valid = [W23, W123, (1, 2, 3, 4)]
    weights = draw(st.sampled_from(valid * 8 + [(), (3, 2), (2, 2), (0, 2)]))
    width = max(len(weights), 1)
    small = st.lists(st.integers(0, 3), min_size=width, max_size=width).map(tuple)
    bad = st.one_of(
        st.lists(st.integers(0, 3), min_size=width + 1, max_size=width + 1).map(tuple),
        st.lists(st.integers(0, 3), min_size=width - 1, max_size=width - 1).map(tuple),
        small.map(lambda t: t[:-1] + (-1,)),
        small.map(lambda t: (EXPONENT_CAP + 1,) + t[1:]),
        small.map(lambda t: (EXPONENT_CAP + 1,) + t[1:-1] + (-1,)),
        st.just(Monomial((0, 1, 0), W123)),
    )
    good = [small, small.map(list), small.map(lambda t: (EXPONENT_CAP,) + t[1:])]
    if weights in valid:
        good.append(small.map(lambda t: Monomial(t, weights)))
    terms = draw(st.lists(st.one_of(*good), max_size=10))
    # Duplicates, so that terms cancel, and now and then an out-of-range term, once or twice.
    terms += draw(st.lists(st.sampled_from(terms), max_size=4)) if terms else []
    if draw(st.integers(0, 2)) == 0:
        term = draw(bad)
        for _ in range(draw(st.integers(1, 2))):
            terms.insert(draw(st.integers(0, len(terms))), term)
    return weights, draw(st.permutations(terms))


@settings(max_examples=300)
@given(raw_terms())
def test_constructor_matches_the_per_term_reference(case):
    weights, terms = case
    got = outcome(lambda: Gf2Polynomial(weights, terms).terms)
    assert got == outcome(lambda: reference_polynomial_terms(weights, terms))
    if got and got[0] != "refused":
        for t in got:
            assert t.degree == sum(e * w for e, w in zip(t.exps, weights))
            assert t.weights == weights


def test_monomial_stores_its_degree_outside_equality_hash_and_repr():
    m = Monomial((2, 1), W23)
    assert m.degree == 7 and m.sort_key() == (7, (1, 2))
    other = Monomial((2, 1), W23)
    object.__setattr__(other, "degree", 99)
    assert m == other and hash(m) == hash(other)
    assert repr(m) == repr(other) == "Monomial(exps=(2, 1), weights=(2, 3))"
    assert not hasattr(m, "__dict__")
    for exps, message in (((1,), "exponent vector length"), ((1, -1), "negative exponent"), ((257, 0), "exceeds cap")):
        with pytest.raises(ValueError, match=message):
            Monomial(exps, W23)


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
