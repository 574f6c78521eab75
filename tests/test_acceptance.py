"""The eleven primary acceptance criteria, exact values, zero tolerance.

A criterion that anchors the same values as one of `verify`'s checks runs that
check from `cuplength.checks` and requires every line to pass; the criteria
add their independent oracles on top.  Criteria run in order; presentations
built along the way are retained in a module registry so the structural
criterion can audit every ring the earlier criteria touched.
"""

import math
import random
import time

import pytest

from cuplength import checks
from cuplength.bounds import full_report, lower_a3, upper_b1
from cuplength.gf2linalg import Eliminator
from cuplength.gf2poly import Gf2Polynomial
from cuplength.grassmann import GrassmannPresentation
from cuplength.heights import closed_form_w2_height, height_direct

from conftest import add_row, naive_rank, record_criterion

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


def failing(name: str) -> list[tuple[str, bool, str]]:
    """The lines of a `verify` check, over its full range, that do not pass."""
    return [line for line in checks.CHECKS[name](None) if not line[1]]


@pytest.mark.parametrize(
    "name,ring,grid",
    [("lemma-f", "SchubertRing", HEIGHT_GRID), ("prop-b", "GrassmannPresentation", LOWER_GRID)],
)
def test_grids_are_the_grids_the_checks_run_on(monkeypatch, name, ring, grid):
    built = []
    real = getattr(checks, ring)

    def recording(n, k, *rest):
        built.append((n, k))
        return real(n, k, *rest)

    monkeypatch.setattr(checks, ring, recording)
    assert failing(name) == []
    assert built == grid


def test_criterion_01_generator_identities():
    bad = failing("generator-identities")
    finish(1, not bad, f"({bad})")


def test_criterion_02_two_route_equivalence():
    start = time.monotonic()
    bad = failing("g-generators") + failing("membership-routes")
    elapsed = time.monotonic() - start
    finish(2, not bad and elapsed < 60.0, f"({bad}, elapsed {elapsed:.1f}s)")


def test_criterion_03_smallest_space_cup_length(reg):
    bad = failing("smallest-space")
    lower = lower_a3(9, 2, 5)
    upper = upper_b1(9, reg.oriented_ht(6, 3))
    finish(3, not bad and lower == 3 and upper == 3, f"({bad}, lower {lower}, upper {upper})")


def test_criterion_04_oriented_heights(reg):
    bad = failing("oriented-heights")
    ok = True
    for n, expected in ((9, 4), (6, 1)):
        ctx = reg.pres(n, 3).oriented()
        w2 = Gf2Polynomial.variable(ctx.weights, 2)
        ok = ok and not ctx.is_zero(w2**expected) and ctx.is_zero(w2 ** (expected + 1))
    finish(4, not bad and ok, f"({bad})")


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


def test_criterion_06_lower_bound_certificates():
    bad = failing("prop-b")
    finish(6, not bad, f"({bad})")


def test_criterion_07_upper_bound_dichotomy():
    bad = failing("prop-d")
    finish(7, not bad, f"({bad})")


def test_criterion_08_rational_bounds():
    bad = failing("rational")
    families = True
    for k in (4, 6, 8):
        for n in range(2 * k, 2 * k + 17):
            if n % 2 == 0 and not full_report(n, k, "Q").exact:
                families = False
    for t in range(1, 6):
        if not full_report(4 * t + 9, 4, "Q").exact:
            families = False
    finish(8, not bad and families, f"({bad})")


def test_criterion_09_category_intervals():
    bad = failing("category")
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
            add_row(elim, r)
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
            add_row(elim, r)
        ok = ok and elim.rank == naive
    finish(11, ok)
