"""The eleven primary acceptance criteria, exact values, zero tolerance.

Criteria run in order; presentations built along the way are retained in a
module registry so the structural criterion can audit every ring the earlier
criteria touched.
"""

import math
import random
import time

import pytest

from cuplength.bounds import (
    NilpotencyData,
    PoincareProfile,
    full_report,
    lower_a3,
    prop_b_certificate,
    prop_b_lower,
    prop_d_upper,
    summarize_oriented,
    upper_a1,
    upper_b1,
)
from cuplength.gf2linalg import Eliminator
from cuplength.gf2poly import (
    Gf2Polynomial,
    ideal_gens_k3,
    inverse_series_components,
)
from cuplength.grassmann import (
    GrassmannPresentation,
    k3_reduced_membership,
    w1_adjoined_quotient,
)
from cuplength.heights import closed_form_w2_height, height_direct, tabulated_w2_height

from conftest import record_criterion

HEIGHT_GRID = (
    [(n, 3) for n in range(6, 41)]
    + [(n, 4) for n in range(8, 25)]
    + [(n, 5) for n in range(10, 21)]
)

LOWER_GRID = (
    [(n, 3) for n in range(6, 34)]
    + [(n, 4) for n in range(8, 25)]
    + [(n, 5) for n in range(10, 21)]
)


class Registry:
    """Presentations and oriented heights shared across the criteria."""

    def __init__(self):
        self._presentations: dict[tuple[int, int], GrassmannPresentation] = {}
        self._oriented_heights: dict[tuple[int, int], int] = {}

    def pres(self, n: int, k: int) -> GrassmannPresentation:
        key = (n, k)
        if key not in self._presentations:
            self._presentations[key] = GrassmannPresentation(n, k)
        return self._presentations[key]

    def oriented_ht(self, n: int, k: int) -> int:
        key = (n, k)
        if key not in self._oriented_heights:
            ctx = self.pres(n, k).oriented()
            w2 = Gf2Polynomial.variable(ctx.weights, 2)
            self._oriented_heights[key] = height_direct(ctx, w2).height
        return self._oriented_heights[key]

    def built(self) -> list[tuple[int, int]]:
        return sorted(self._presentations)


@pytest.fixture(scope="module")
def reg():
    return Registry()


def finish(number: int, ok: bool, detail: str = "") -> None:
    record_criterion(number, ok)
    assert ok, f"criterion {number} failed {detail}"


def test_criterion_01_generator_identities():
    w23 = (2, 3)
    expected6 = (
        Gf2Polynomial(w23, [(2, 0)]),
        Gf2Polynomial.zero(w23),
        Gf2Polynomial(w23, [(0, 2), (3, 0)]),
    )
    expected9 = (
        Gf2Polynomial(w23, [(2, 1)]),
        Gf2Polynomial(w23, [(1, 2), (4, 0)]),
        Gf2Polynomial(w23, [(0, 3)]),
    )
    finish(1, ideal_gens_k3(6) == expected6 and ideal_gens_k3(9) == expected9)


def test_criterion_02_two_route_equivalence():
    start = time.monotonic()
    ok = True
    for n in range(6, 65):
        comps = inverse_series_components(3, n)
        reduced = tuple(comps[d].substitute_zero(1) for d in (n - 2, n - 1, n))
        ok = ok and reduced == ideal_gens_k3(n)
    for n in range(6, 21):
        N = 3 * (n - 3)
        adjoined = w1_adjoined_quotient(n, 3)
        for a in range(N // 2 + 1):
            for b in range((N - 2 * a) // 3 + 1):
                x = Gf2Polynomial((2, 3), [(a, b)])
                full = Gf2Polynomial((1, 2, 3), [(0, a, b)])
                ok = ok and k3_reduced_membership(n, x) == adjoined.is_zero(full)
    elapsed = time.monotonic() - start
    finish(2, ok and elapsed < 60.0, f"(elapsed {elapsed:.1f}s)")


def test_criterion_03_smallest_space_cup_length(reg):
    product = Gf2Polynomial((2, 3), [(1, 1)])
    lower_witness = not k3_reduced_membership(6, product)
    profile = PoincareProfile(9, 2, 3, "Z2")
    lower = lower_a3(profile, 2, 5)
    upper = upper_b1(profile, NilpotencyData((reg.oriented_ht(6, 3),)))
    report = full_report(6, 3, summary=summarize_oriented(reg.pres(6, 3)))
    ok = (
        lower_witness
        and lower == 3
        and upper == 3
        and (report.lower, report.upper, report.exact) == (3, 3, True)
    )
    finish(3, ok, f"(lower {lower}, upper {upper})")


def test_criterion_04_oriented_heights(reg):
    ok = True
    for n, expected in ((9, 4), (6, 1)):
        ctx = reg.pres(n, 3).oriented()
        w2 = Gf2Polynomial.variable(ctx.weights, 2)
        record = height_direct(ctx, w2)
        nonzero = not ctx.is_zero(w2**expected)
        vanishes = ctx.is_zero(w2 ** (expected + 1))
        ok = ok and record.height == expected and nonzero and vanishes
    finish(4, ok)


def test_criterion_05_height_closed_form_grid(reg):
    start = time.monotonic()
    bad = []
    for n, k in HEIGHT_GRID:
        pres = reg.pres(n, k)
        w2 = Gf2Polynomial.variable(pres.weights, 2)
        direct = height_direct(pres, w2).height
        if direct != closed_form_w2_height(n, k):
            bad.append((n, k, direct, closed_form_w2_height(n, k)))
    elapsed = time.monotonic() - start
    finish(5, not bad and elapsed < 300.0, f"(mismatches {bad}, elapsed {elapsed:.1f}s)")


def test_criterion_06_lower_bound_certificates(reg):
    bad = []
    for n, k in LOWER_GRID:
        ctx = reg.pres(n, k).oriented()
        exps, length, degree = prop_b_certificate(n, k)
        cert = Gf2Polynomial(ctx.weights, [exps])
        if ctx.is_zero(cert):
            bad.append((n, k, "certificate vanishes"))
            continue
        profile = PoincareProfile(k * (n - k), 2, 3, "Z2")
        if lower_a3(profile, length, degree) != prop_b_lower(n, k):
            bad.append((n, k, "value mismatch"))
    finish(6, not bad, f"({bad})")


def test_criterion_07_upper_bound_dichotomy():
    bad = []
    for k in range(3, 9):
        for n in range(2 * k, 65):
            if (n, k) == (6, 3):
                continue
            N = k * (n - k)
            ht = tabulated_w2_height(n, k)
            profile = PoincareProfile(N, 2, 3, "Z2")
            if 2 * ht < N:
                expect = upper_b1(profile, NilpotencyData((ht,)))
            else:
                expect = upper_a1(profile)
            if prop_d_upper(n, k) != expect:
                bad.append((n, k))
    spots = (
        prop_d_upper(9, 3) == 8
        and prop_d_upper(10, 4) == 12
        and prop_d_upper(12, 5) == 16
    )
    finish(7, not bad and spots, f"({bad})")


def test_criterion_08_rational_bounds():
    from cuplength.bounds import rational_bounds

    walkthroughs = (
        rational_bounds(8, 4) == type(rational_bounds(8, 4))(4, 4, True)
        and (rational_bounds(13, 4).lower, rational_bounds(13, 4).upper) == (9, 9)
        and rational_bounds(13, 4).exact
        and (rational_bounds(10, 4).lower, rational_bounds(10, 4).upper, rational_bounds(10, 4).exact)
        == (6, 6, True)
    )
    families = True
    for k in (4, 6, 8):
        for n in range(2 * k, 2 * k + 17):
            if n % 2 == 0 and not rational_bounds(n, k).exact:
                families = False
    for t in range(1, 6):
        if not rational_bounds(4 * t + 9, 4).exact:
            families = False
    finish(8, walkthroughs and families)


def test_criterion_09_category_intervals(reg):
    wanted = {
        (6, 3): (4, 5),
        (9, 3): (6, 10),
        (10, 3): (6, 11),
        (11, 3): (6, 13),
        (12, 3): (6, 14),
    }
    bad = []
    for (n, k), interval in wanted.items():
        report = full_report(n, k, summary=summarize_oriented(reg.pres(n, k)))
        if (report.paper_cat_lower, report.cat_upper) != interval:
            bad.append((n, k, report.paper_cat_lower, report.cat_upper))
    finish(9, not bad, f"({bad})")


def test_criterion_10_structural_properties(reg):
    built = reg.built()
    assert built, "registry is empty; earlier criteria did not run"
    bad = []
    for n, k in built:
        betti = reg.pres(n, k).betti()
        if betti != betti[::-1]:
            bad.append((n, k, "not palindromic"))
        if sum(betti) != math.comb(n, k):
            bad.append((n, k, "wrong total"))
    for n, k in built:
        if n % 2 == 1:
            if 2 * reg.oriented_ht(n, k) >= k * (n - k):
                bad.append((n, k, "odd-n height gap fails"))
    finish(10, not bad, f"(built {len(built)} rings, issues {bad})")


def test_criterion_11_linear_algebra_oracles():
    rng = random.Random(20250819)
    ok = True
    for _ in range(1000):
        width = rng.randint(1, 24)
        count = rng.randint(0, min(12, width))
        rows = [rng.getrandbits(width) for _ in range(count)]
        elim = Eliminator()
        for r in rows:
            elim.add(r)
        span = {0}
        for r in rows:
            span |= {v ^ r for v in span}
        for v in rng.sample(sorted(span), min(8, len(span))):
            ok = ok and not elim.reduce(v)
        for _ in range(8):
            v = rng.getrandbits(width)
            ok = ok and (not elim.reduce(v)) == (v in span)
    for trial in range(100):
        rows = []
        for _ in range(200):
            r = rng.getrandbits(200)
            if trial % 3 == 0:
                r &= rng.getrandbits(200)
            rows.append(r)
        naive = naive_rank(rows)
        elim = Eliminator()
        for r in rows:
            elim.add(r)
        ok = ok and elim.rank == naive
    finish(11, ok)


def naive_rank(rows: list[int]) -> int:
    rows = [r for r in rows if r]
    count = 0
    while rows:
        pivot_row = rows[0]
        pivot_bit = pivot_row & -pivot_row
        count += 1
        rows = [r ^ pivot_row if r & pivot_bit else r for r in rows[1:]]
        rows = [r for r in rows if r]
    return count
