"""Graded quotient ladders against combinatorial and two-route oracles."""

import hashlib
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuplength import grassmann
from cuplength.bounds import summarize_oriented
from cuplength.gf2poly import Gf2Polynomial, inverse_series_components
from cuplength.grassmann import (
    GrassmannPresentation,
    OrientedSummary,
    SizeCapExceeded,
    gaussian_binomial,
    k3_reduced_membership,
    k3_reduced_quotient,
    load_record,
    longest_monomial_product,
    monomial_basis,
    save_record,
    w1_adjoined_quotient,
)
from cuplength.schubert import SchubertRing

from conftest import ORIENTED_GRID, cokernel_is_zero, gaussian_binomial_betti, w1_images


@pytest.mark.parametrize("k", range(3, 8))
def test_gaussian_binomial_helper_counts_partitions_and_low_monomials(k):
    for n in range(2 * k, 25):
        b = gaussian_binomial(n, k)
        assert b == gaussian_binomial_betti(n, k), (n, k)
        # Below the first relation degree n - k + 1 w1 is injective, so b_d - b_(d-1)
        # counts the monomials of w2..wk.
        for d in range(n - k + 1):
            assert len(monomial_basis(tuple(range(2, k + 1)), d)) == b[d] - (b[d - 1] if d else 0), (n, k, d)


def test_betti_oracle_small():
    assert gaussian_binomial_betti(6, 3) == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]
    assert gaussian_binomial_betti(4, 2) == [1, 1, 2, 1, 1]


@pytest.mark.parametrize("n,k", [(6, 3), (7, 3), (9, 3), (10, 3), (8, 4), (10, 4), (10, 5)])
def test_betti_matches_box_partition_count(n, k):
    betti = GrassmannPresentation(n, k).betti()
    assert betti == gaussian_binomial_betti(n, k)
    assert sum(betti) == math.comb(n, k)
    assert betti == betti[::-1]


@pytest.mark.parametrize("n,k", [(n, k) for k in range(3, 7) for n in range(2 * k, 2 * k + 9)])
def test_oriented_betti_mirror_identity(n, k):
    # C = H/w1*H, so dim C^(e+1) - (b_(e+1) - b_e) is the kernel of w1 on H^e, which Poincare
    # duality pairs with C^(N-e).  Above N both sides read zero.
    N = k * (n - k)
    b = gaussian_binomial_betti(n, k) + [0]
    ctx = GrassmannPresentation(n, k).oriented()
    c = ctx.betti() + [ctx.dim(N + 1)]
    for e in range(N + 1):
        assert c[N - e] == c[e + 1] - (b[e + 1] - b[e]), e


def test_monomial_basis_order_and_count():
    assert monomial_basis((2, 3), 12) == [(6, 0), (3, 2), (0, 4)]
    for d in range(15):
        count = len(monomial_basis((1, 2, 3), d))
        brute = sum(
            1
            for a in range(d + 1)
            for b in range((d - a) // 2 + 1)
            if (d - a - 2 * b) % 3 == 0 and d - a - 2 * b >= 0
        )
        assert count == brute


@pytest.mark.parametrize("n", range(6, 13))
def test_two_route_membership_k3(n):
    N = 3 * (n - 3)
    adjoined = w1_adjoined_quotient(n, 3)
    for a in range(N // 2 + 1):
        for b in range((N - 2 * a) // 3 + 1):
            x = Gf2Polynomial((2, 3), [(a, b)])
            full = Gf2Polynomial((1, 2, 3), [(0, a, b)])
            assert k3_reduced_membership(n, x) == adjoined.is_zero(full)


@pytest.mark.parametrize("n,k", [(9, 4), (11, 4), (10, 5)])
def test_two_route_membership_higher_k(n, k):
    pres = GrassmannPresentation(n, k)
    ctx = pres.oriented()
    adjoined = w1_adjoined_quotient(n, k)
    weights = tuple(range(2, k + 1))
    full_weights = tuple(range(1, k + 1))
    for degree in range(2, min(pres.N, 16) + 1):
        for exps in monomial_basis(weights, degree):
            x = Gf2Polynomial(weights, [exps])
            full = Gf2Polynomial(full_weights, [(0,) + exps])
            assert ctx.is_zero(x) == adjoined.is_zero(full), (n, k, exps)
    # Third route, over the full degree range: the cokernel of w1 on the Schubert basis.
    ring = SchubertRing(n, k)
    elims = w1_images(ring)
    for degree in range(2, pres.N + 1):
        for exps in monomial_basis(weights, degree):
            x = Gf2Polynomial(weights, [exps])
            assert ctx.is_zero(x) == cokernel_is_zero(ring, elims, x), (n, k, exps)


def test_series_components_from_the_lowest_asked_are_the_tail_of_the_full_list():
    for k in range(1, 8):
        for n in range(2 * k, 25):
            full = inverse_series_components(range(1, k + 1), n)
            assert inverse_series_components(range(1, k + 1), n, n - k + 1) == full[n - k + 1 :], (n, k)
    for lowest in (-1, 13):
        with pytest.raises(ValueError, match="lowest degree out of range"):
            inverse_series_components((1, 2, 3), 12, lowest)


def test_series_generators_of_every_ring_kind_match_their_golden_digest():
    # Rendered generators of GrassmannPresentation(n, k), of its oriented ring and of
    # w1_adjoined_quotient(n, k) for k = 3..7 and 2k <= n <= 24, as the full series gives them.
    digest = hashlib.sha256()
    for k in range(3, 8):
        for n in range(2 * k, 25):
            ring = GrassmannPresentation(n, k)
            parts = [ring.ideal_gens, ring.oriented().ideal_gens, w1_adjoined_quotient(n, k).generators]
            digest.update(repr([[g.render() for g in part] for part in parts]).encode())
    assert digest.hexdigest() == "bd59e888c181e5d8573c4b7e466547ddbab87a3998f8707367739143264dcccb"


def test_ideal_inclusion_is_monotone_in_n():
    for n in range(7, 15):
        smaller = GrassmannPresentation(n, 3)
        larger = GrassmannPresentation(n + 1, 3)
        for gen in larger.ideal_gens:
            assert smaller.is_zero(gen), f"I({n + 1},3) not inside I({n},3)"


@pytest.mark.parametrize(
    "oriented,v,degree",
    [
        (False, 1 << 50, 0),
        (False, 3, 1),  # degree 1 has the one column w1
        (False, -1, 0),
        (False, 1, 19),  # above N = 18
        (False, 1, -1),
        (True, 1, 1),  # no monomial of w2, w3 has degree 1
        (True, 1, 9),  # w2^3*w3 and w3^3 are columns, but the ring ends at 8
        (True, -2, 4),
    ],
)
def test_times_refuses_a_vector_it_cannot_hold(oriented, v, degree):
    ring = GrassmannPresentation(9, 3)
    ring = ring.oriented() if oriented else ring
    ring.betti()
    x = Gf2Polynomial.variable(ring.weights, ring.weights[0])
    with pytest.raises(ValueError, match=rf"^not a vector of degree {degree}: "):
        ring.times(v, degree, x)
    # The widest vector of each degree is held, and so is the zero vector of a degree with no classes.
    for d in range(ring.top + 1):
        full = (1 << len(monomial_basis(ring.weights, d))) - 1
        product = ring.normal_form(ring._devectorize(full, d) * x)
        assert ring.times(full, d, x) == ring._vectorize(product, d + ring.weights[0])
    assert ring.times(0, ring.top + 1, x) == ring.times(0, -1, x) == 0


@pytest.mark.parametrize("n,degrees", [(9, (9, 17)), (10, (10, 18))])
@pytest.mark.parametrize("order", ["fresh", "fresh, reversed", "built"])
def test_times_refuses_a_vector_above_the_top_whatever_the_ring_has_built(n, degrees, order):
    # The oriented (9, 3) ring ends at 8 and learns it at degree 11, (10, 3) ends at 9 and learns
    # it at 13: a fresh ring learns its top before it checks v, so it refuses what a built one does.
    ring = GrassmannPresentation(n, 3).oriented()
    if order == "built":
        ring.betti()
    w2 = Gf2Polynomial.variable(ring.weights, 2)
    for degree in degrees[::-1] if order == "fresh, reversed" else degrees:
        with pytest.raises(ValueError, match=rf"^not a vector of degree {degree}: "):
            ring.times(1, degree, w2)
    assert ring.top == degrees[0] - 1


def test_membership_beyond_formal_dimension():
    pres = GrassmannPresentation(6, 3)
    big = Gf2Polynomial(pres.weights, [(0, 5, 0)])
    assert pres.is_zero(big)


# The (9, 3) ring, keyed by whether it is oriented, and its two cross-check quotients.
RINGS_OF_9_3 = {
    False: lambda: GrassmannPresentation(9, 3),
    True: lambda: GrassmannPresentation(9, 3).oriented(),
    "k3-closed-form": lambda: k3_reduced_quotient(9),
    "w1-adjoined": lambda: w1_adjoined_quotient(9, 3),
}


@pytest.mark.parametrize("kind", RINGS_OF_9_3)
def test_normal_form_above_formal_dimension_is_zero_without_a_ladder(kind):
    ring = RINGS_OF_9_3[kind]()
    w2 = Gf2Polynomial.variable(ring.weights, 2)
    assert ring.normal_form(w2**150) == Gf2Polynomial.zero(ring.weights)
    assert not ring.normal_form(w2**201)
    assert ring._elims == []


def test_oriented_betti_golden():
    pres = GrassmannPresentation(6, 3)
    assert pres.oriented().betti() == [1, 0, 1, 1, 0, 1, 0, 0, 0, 0]


def test_oriented_ring_is_the_same_type_over_w2_to_wk():
    pres = GrassmannPresentation(9, 3)
    ctx = pres.oriented()
    assert type(ctx) is GrassmannPresentation
    assert (pres.context, ctx.context) == ("unoriented", "oriented-characteristic")
    assert ctx.weights == (2, 3)
    assert ctx.ideal_gens == tuple(g.substitute_zero(1) for g in pres.ideal_gens)
    # A polynomial over w1..wk is rejected even without a w1 term.
    w2_full = Gf2Polynomial.variable(pres.weights, 2)
    for query in (ctx.is_zero, ctx.normal_form):
        with pytest.raises(ValueError, match="different variable set"):
            query(w2_full)


def test_longest_product_golden():
    assert longest_monomial_product(GrassmannPresentation(6, 3).oriented()) == ((1, 1), 2, 5)
    assert longest_monomial_product(GrassmannPresentation(9, 3).oriented()) == ((4, 0), 4, 8)


def polynomial_longest_product(ctx):
    """The search as first written: every edge multiplies a polynomial by a
    variable and takes its normal form.  Kept as an oracle for the vector search."""
    weights = ctx.weights
    frontier = {(0, Gf2Polynomial.one(weights)): tuple(0 for _ in weights)}
    best_exps = tuple(0 for _ in weights)
    best_len = 0
    best_deg = 0

    def score(length, degree):
        return length + (1 if degree < ctx.N else 0)

    length = 0
    while frontier:
        length += 1
        nxt = {}
        for (d, nf), exps in frontier.items():
            for pos, w in enumerate(weights):
                nd = d + w
                if nd > ctx.N:
                    continue
                nnf = ctx.normal_form(nf * Gf2Polynomial.variable(weights, w))
                if not nnf:
                    continue
                nexps = exps[:pos] + (exps[pos] + 1,) + exps[pos + 1 :]
                old = nxt.get((nd, nnf))
                if old is None or nexps < old:
                    nxt[(nd, nnf)] = nexps
        for (d, _), exps in nxt.items():
            if (score(length, d), length, tuple(-e for e in exps)) > (
                score(best_len, best_deg),
                best_len,
                tuple(-e for e in best_exps),
            ):
                best_exps, best_len, best_deg = exps, length, d
        frontier = nxt
    return best_exps, best_len, best_deg


SEARCH_GRID = (
    [(n, 3) for n in range(6, 21)] + [(n, 4) for n in range(8, 15)] + [(n, 5) for n in range(10, 14)]
)


@pytest.mark.parametrize("n,k", SEARCH_GRID)
def test_vector_search_matches_polynomial_oracle(n, k):
    vector = longest_monomial_product(GrassmannPresentation(n, k).oriented())
    oracle = polynomial_longest_product(GrassmannPresentation(n, k).oriented())
    assert vector == oracle


def test_size_caps_enforced():
    with pytest.raises(SizeCapExceeded, match=r"^formal dimension 125 exceeds cap$"):
        GrassmannPresentation(30, 5, 100)


def learned_top(quotient, N: int) -> tuple[int, int] | None:
    """Build a quotient degree by degree up to the degree whose build lowers its top below N: (it, top)."""
    for d in range(N + 1):
        quotient.extend_to(d)
        if quotient.top < N:
            return d, quotient.top
    return None


def test_cross_check_quotients_are_built_to_the_capped_formal_dimension(monkeypatch):
    # N is checked before any generator is computed.
    def no_work(*args):
        raise AssertionError("generators computed for a refused ring")

    monkeypatch.setattr(grassmann, "ideal_gens_k3", no_work)
    monkeypatch.setattr(grassmann, "inverse_series_components", no_work)
    with pytest.raises(SizeCapExceeded, match=r"^formal dimension 402 exceeds cap$"):
        k3_reduced_quotient(137)
    with pytest.raises(SizeCapExceeded, match=r"^formal dimension 410 exceeds cap$"):
        w1_adjoined_quotient(51, 10)
    monkeypatch.undo()
    # A fresh quotient's top is N.  The oriented ring and both cross-check quotients present the
    # same ring C, so on every grid ring with N <= 64 they lower it to the same top at the same
    # degree d.  Each has built exactly the degrees up to max(d, top), and kept those up to top:
    # (9, 3), (10, 3), (11, 3) and (10, 4) learn their top above it and drop the degrees between.
    for n, k in [(n, k) for n, k in ORIENTED_GRID if k * (n - k) <= 64]:
        N = k * (n - k)
        rings = [GrassmannPresentation(n, k).oriented(), w1_adjoined_quotient(n, k)]
        rings += [k3_reduced_quotient(n)] if k == 3 else []
        learned = []
        for ring in rings:
            assert ring.top == N
            learned.append(learned_top(ring, N))
            ring.extend_to(N)
            assert len(ring._counts[-1]) == max(learned[-1]) + 1, (n, k)
            assert len(ring._ranks) == len(ring._owner) == ring.top + 1, (n, k)
        assert learned == [learned[0]] * len(rings) and learned[0][1] < N, (n, k, learned)
    # A Grassmann ring is capped by its own max_degree, checked once on N; its top bounds every build.
    assert sum(GrassmannPresentation(9, 3, 18).betti()) == math.comb(9, 3)


def test_max_basis_refuses_a_wider_degree_and_keeps_the_lower_ones(monkeypatch):
    width = len(monomial_basis((1, 2, 3, 4), 12))
    uncapped = GrassmannPresentation(10, 4).betti()
    monkeypatch.setattr(grassmann, "MAX_BASIS", width)
    at_cap = GrassmannPresentation(10, 4)
    assert [at_cap.dim(d) for d in range(13)] == uncapped[:13]
    monkeypatch.setattr(grassmann, "MAX_BASIS", width - 1)
    below = GrassmannPresentation(10, 4)
    for _ in range(2):
        with pytest.raises(SizeCapExceeded) as refused:
            below.dim(12)
        assert str(refused.value) == f"degree 12 basis has {width} monomials, cap {width - 1}"
    assert [below.dim(d) for d in range(12)] == uncapped[:12]
    # A refused degree leaves nothing half built: with the cap lifted, the ring completes.
    monkeypatch.undo()
    assert below.betti() == uncapped


def test_presentation_validates_input():
    for n, k in ((5, 3), (7, 4), (6, 2), (8, 1)):
        with pytest.raises(ValueError):
            GrassmannPresentation(n, k)


@st.composite
def quotient_elements(draw):
    n = draw(st.integers(6, 10))
    quotient = k3_reduced_quotient(n)
    degree = draw(st.integers(0, 3 * (n - 3)))
    basis = monomial_basis((2, 3), degree)
    terms = [exps for exps in basis if draw(st.booleans())] if basis else []
    return quotient, Gf2Polynomial((2, 3), terms), degree


@settings(max_examples=40, deadline=None)
@given(quotient_elements())
def test_normal_form_is_linear_projection(data):
    quotient, x, degree = data
    nf = quotient.normal_form(x)
    assert quotient.normal_form(nf) == nf
    assert quotient.is_zero(x + nf)
    y = Gf2Polynomial((2, 3), monomial_basis((2, 3), degree)[:1])
    assert quotient.normal_form(x + y) == quotient.normal_form(nf + y)


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 11), st.integers(0, 6), st.integers(0, 4))
def test_generator_multiples_vanish(n, a, b):
    pres = GrassmannPresentation(n, 3)
    mono = Gf2Polynomial(pres.weights, [(0, a, b)])
    for gen in pres.ideal_gens:
        product = gen * mono
        if product.homogeneous_degree() <= pres.N:
            assert pres.is_zero(product)


# The summary of the oriented (9, 3) ring, as bounds computes it.
SUMMARY_9_3 = OrientedSummary(n=9, k=3, ht_w2=4, longest=((4, 0), 4, 8), top=8)


def poison_record(tmp_path, **changes) -> None:
    """Write the (9, 3) record through save_record, then overwrite some of its fields."""
    path = save_record(str(tmp_path), SUMMARY_9_3)
    with open(path) as fh:
        record = json.load(fh)
    with open(path, "w") as fh:
        json.dump({**record, **changes}, fh)


def test_record_round_trip(tmp_path):
    assert SUMMARY_9_3 == summarize_oriented(GrassmannPresentation(9, 3))
    path = save_record(str(tmp_path), SUMMARY_9_3)
    assert path == os.path.join(str(tmp_path), "gr_9_3_oriented.json")
    assert load_record(str(tmp_path), 9, 3) == SUMMARY_9_3
    assert load_record(str(tmp_path), 10, 3) is None
    with open(path) as fh:
        assert fh.read() == (
            '{"ht_w2": 4, "k": 3, "longest_product": [[4, 0], 4, 8], "n": 9, "schema": 2, "top": 8}\n'
        )
    assert os.listdir(str(tmp_path)) == ["gr_9_3_oriented.json"]


def test_record_rejects_malformed(tmp_path):
    for changes, message in [
        ({"schema": 99}, "unsupported cache schema 99"),
        ({"n": 11}, "does not match its file name"),
        ({"extra": 1}, "unrecognized cache record shape"),
    ]:
        poison_record(tmp_path, **changes)
        with pytest.raises(ValueError, match=message):
            load_record(str(tmp_path), 9, 3)


@pytest.mark.parametrize(
    "field,value",
    [
        ("ht_w2", "4"),
        ("ht_w2", 4.0),
        ("ht_w2", True),
        ("ht_w2", None),
        ("top", "8"),
        ("top", 8.0),
        ("top", [8]),
        ("longest_product", [[4, 0], 4]),
        ("longest_product", [[4, "0"], 4, 8]),
        ("longest_product", [4, 4, 8]),
        ("longest_product", [[4, 0], "4", 8]),
        ("longest_product", [[4, 0], 4, 8.0]),
        ("longest_product", "[[4, 0], 4, 8]"),
    ],
)
def test_record_rejects_wrong_types(tmp_path, field, value):
    poison_record(tmp_path, **{field: value})
    with pytest.raises(ValueError, match="wrong type"):
        load_record(str(tmp_path), 9, 3)
