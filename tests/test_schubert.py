"""The Schubert-cell ring (Pieri rule) against the ladder, and the oriented ring as a cokernel."""

import random
from functools import reduce
from itertools import product
from operator import xor

import pytest

from cuplength.gf2poly import Gf2Polynomial
from cuplength import grassmann
from cuplength.grassmann import GrassmannPresentation, SizeCapExceeded, monomial_basis
from cuplength.heights import ZeroClassError, height_direct
from cuplength.schubert import SchubertRing

from conftest import cokernel_is_zero, w1_images

ZERO_TEST_RINGS = [(8, 3), (10, 4), (11, 4), (10, 5), (12, 5), (12, 6)]
HEIGHT_RINGS = [(12, 3), (16, 3), (10, 4), (12, 4), (14, 4), (10, 5), (11, 5)]
COKERNEL_RINGS = [(9, 3), (12, 3), (10, 4), (11, 4), (10, 5), (12, 5), (14, 4), (12, 6)]


@pytest.mark.parametrize("n,k", ZERO_TEST_RINGS)
def test_zero_tests_agree_with_the_ladder_on_every_monomial(n, k):
    ring, pres = SchubertRing(n, k), GrassmannPresentation(n, k)
    variables = [Gf2Polynomial.variable(ring.weights, w) for w in ring.weights]
    # A monomial's class is its prefix's class times its last variable: the chain that
    # times(1, 0, x) walks, taken one Pieri step per monomial.
    classes = {(0,) * k: 1}
    zeros = 0
    for d in range(1, ring.N + 1):
        for exps in monomial_basis(ring.weights, d):
            p = max(i for i, e in enumerate(exps) if e)
            prefix = exps[:p] + (exps[p] - 1,) + exps[p + 1 :]
            classes[exps] = ring.times(classes[prefix], d - ring.weights[p], variables[p])
            zero = not classes[exps]
            assert zero == pres.is_zero(Gf2Polynomial(ring.weights, [exps])), (n, k, exps)
            zeros += zero
    assert zeros  # the generators' leading monomials, at least, are not basis classes


def mask(lam: tuple[int, ...]) -> int:
    """The k-subset {lam_r + k - 1 - r} that SchubertRing keeps for the partition lam."""
    return sum(1 << (part + len(lam) - 1 - r) for r, part in enumerate(lam))


def column(ring: SchubertRing, lam: tuple[int, ...]) -> int:
    """The column of the partition lam in its degree."""
    return ring._rank(mask(lam), sum(lam) + ring._least)


@pytest.mark.parametrize("n,k", ZERO_TEST_RINGS + [(9, 3), (14, 4)])
def test_partition_counts_are_the_betti_numbers(n, k):
    ring = SchubertRing(n, k)
    assert ring._counts == GrassmannPresentation(n, k).betti()
    # Every partition of each degree in the box, by brute force, in lexicographic order.
    tuples = product(range(n - k + 1), repeat=k)
    boxed = sorted(lam for lam in tuples if list(lam) == sorted(lam, reverse=True))
    for d, count in enumerate(ring._counts):
        parts = [lam for lam in boxed if sum(lam) == d]
        assert [ring._unrank(c, d + ring._least) for c in range(count)] == [mask(lam) for lam in parts]
        assert [column(ring, lam) for lam in parts] == list(range(count))


def test_pieri_rule_on_a_small_box():
    # In the 3 x 3 box: w1 sigma_(1,1,0) = sigma_(2,1,0) + sigma_(1,1,1), and
    # w2 sigma_(2,0,0) = sigma_(3,1,0) + sigma_(2,1,1) (w2 sigma_(3,0,0) has no strip inside).
    ring = SchubertRing(6, 3)
    w1, w2 = (Gf2Polynomial.variable(ring.weights, i) for i in (1, 2))

    def vector(*partitions):
        return sum(1 << column(ring, lam) for lam in partitions)

    assert ring.times(vector((1, 1, 0)), 2, w1) == vector((2, 1, 0), (1, 1, 1))
    assert ring.times(vector((2, 0, 0)), 2, w2) == vector((3, 1, 0), (2, 1, 1))
    assert ring.times(vector((3, 0, 0)), 3, w2) == vector((3, 1, 1))
    assert ring.times(vector((3, 3, 2)), 8, w1) == vector((3, 3, 3))
    assert ring.times(vector((3, 3, 1)), 7, w2) == 0  # only the last row can grow


@pytest.mark.parametrize("n,k", HEIGHT_RINGS)
def test_random_class_heights_agree_with_the_ladder(n, k):
    rng = random.Random(1000 * n + k)
    ring, pres = SchubertRing(n, k), GrassmannPresentation(n, k)
    w1 = Gf2Polynomial.variable(ring.weights, 1)
    classes = []
    for _ in range(20):
        basis = monomial_basis(ring.weights, rng.randint(1, 6))
        classes.append(Gf2Polynomial(ring.weights, rng.sample(basis, min(len(basis), rng.randint(1, 4)))))
    # Zero classes: the ideal generators, a multiple of one, and one plus a nonzero class.
    g = pres.ideal_gens[0]
    classes += [*pres.ideal_gens, g * w1, g + w1 ** g.homogeneous_degree()]
    zeros = 0
    for x in classes:
        try:
            expected = height_direct(pres, x)
        except ZeroClassError:
            zeros += 1
            with pytest.raises(ZeroClassError, match="is zero in the unoriented quotient"):
                height_direct(ring, x)
        else:
            assert height_direct(ring, x) == expected, x.render()
    assert zeros >= len(pres.ideal_gens) + 1


@pytest.mark.parametrize("n,k", COKERNEL_RINGS)
def test_oriented_betti_is_the_cokernel_of_w1(n, k):
    ring = SchubertRing(n, k)
    elims = w1_images(ring)
    coker = [count - elim.rank for count, elim in zip(ring._counts, elims)]
    ctx = GrassmannPresentation(n, k).oriented()
    assert coker == ctx.betti()
    # The ladder learned its top; the cokernel, built to N, ends there independently.
    assert ctx.top == max(d for d, b in enumerate(coker) if b)


def test_classes_above_the_formal_dimension_are_zero_without_a_pieri_step(monkeypatch):
    ring = SchubertRing(9, 3)
    calls = watch_ranking(monkeypatch, ring)
    w2 = Gf2Polynomial.variable(ring.weights, 2)
    assert ring.times(1, 0, w2**10) == 0
    assert ring.times(1, 0, w2**201) == 0
    assert calls == {"unrank": [], "rank": []}


def watch_ranking(monkeypatch, ring: SchubertRing) -> dict[str, list[tuple[int, int]]]:
    """Record the (column or mask, degree) of every _unrank and _rank call the ring makes."""
    calls = {"unrank": [], "rank": []}
    for name in calls:
        method = getattr(ring, f"_{name}")

        def record(arg, s, name=name, method=method):
            calls[name].append((arg, s - ring._least))
            return method(arg, s)

        monkeypatch.setattr(ring, f"_{name}", record)
    return calls


def test_only_the_partitions_reached_are_listed(monkeypatch):
    ring = SchubertRing(24, 8)
    w2 = Gf2Polynomial.variable(ring.weights, 2)
    calls = watch_ranking(monkeypatch, ring)
    assert ring.times(1, 0, w2**3)
    # w2 = sigma_(1,1) and w2^2 = sigma_(2,2) + sigma_(2,1,1) + sigma_(1,1,1,1): only
    # those columns are unranked, not (4) and (3,1) of degree 4 as well.
    square = [(2, 2, 0, 0, 0, 0, 0, 0), (2, 1, 1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 0, 0, 0, 0)]
    unranked = {}
    for c, d in calls["unrank"]:
        unranked.setdefault(d, []).append(c)
    square_columns = sorted(column(ring, lam) for lam in square)
    assert {d: sorted(cs) for d, cs in unranked.items()} == {
        0: [0],
        2: [column(ring, (1, 1, 0, 0, 0, 0, 0, 0))],
        4: square_columns,
    }
    assert {d for _, d in calls["rank"]} == {2, 4, 6}
    assert ring._counts[4] == 5


def test_each_image_is_ranked_once_per_shift(monkeypatch):
    ring = SchubertRing(24, 8)
    w2 = Gf2Polynomial.variable(ring.weights, 2)
    calls = watch_ranking(monkeypatch, ring)
    assert ring.times(1, 0, w2**3)
    # Several source columns of w2^2 reach the same partitions of degree 6; each is ranked once.
    assert len(calls["rank"]) == len(set(calls["rank"]))


def test_caps(monkeypatch):
    with pytest.raises(SizeCapExceeded, match=r"^formal dimension 18 exceeds cap$"):
        SchubertRing(9, 3, 10)
    with pytest.raises(ValueError, match=r"need n >= 2k >= 6"):
        SchubertRing(5, 3)
    # Degrees 0..5 of the 4 x 6 box hold 1, 1, 2, 3, 5 and 6 partitions.
    monkeypatch.setattr(grassmann, "MAX_BASIS", 5)
    ring = SchubertRing(10, 4)
    w1 = Gf2Polynomial.variable(ring.weights, 1)
    assert ring.times(1, 0, w1**4)
    with pytest.raises(SizeCapExceeded, match=r"^degree 5 basis has 6 partitions, cap 5$"):
        ring.times(1, 0, w1**5)


@pytest.mark.parametrize("v,degree", [(1 << 50, 0), (3, 1), (-1, 0), (1, 19), (1, -1), (1 << 4, 4)])
def test_times_refuses_a_vector_it_cannot_hold(v, degree):
    # The 3 x 6 box holds one partition in degrees 0 and 1, four in degree 4, none above N = 18.
    ring = SchubertRing(9, 3)
    w1 = Gf2Polynomial.variable(ring.weights, 1)
    with pytest.raises(ValueError, match=rf"^not a vector of degree {degree}: "):
        ring.times(v, degree, w1)
    # The widest vector of each degree is held, and so is the zero vector of a degree with no classes.
    for d in range(ring.N + 1):
        columns = range(ring._counts[d])
        assert ring.times((1 << len(columns)) - 1, d, w1) == reduce(xor, (ring.times(1 << c, d, w1) for c in columns))
    assert ring.times(0, ring.N + 1, w1) == ring.times(0, -1, w1) == 0


def test_times_rejects_what_the_ladder_rejects():
    ring = SchubertRing(9, 3)
    with pytest.raises(ValueError, match="different variable set"):
        ring.times(1, 0, Gf2Polynomial.variable((2, 3), 2))
    with pytest.raises(ValueError, match="homogeneous"):
        ring.times(1, 0, Gf2Polynomial(ring.weights, [(1, 0, 0), (0, 1, 0)]))
