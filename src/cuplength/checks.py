"""The anchored value checks: the one implementation behind `verify` and the acceptance tests.

Each check takes an optional cap on n and returns (anchor, ok, detail) lines;
a grid check reports its failures one per line and ends with a summary line.
"""

from __future__ import annotations

from .bounds import (
    full_report,
    lower_a3,
    prop_b_bound,
    prop_d_bound,
    upper_a1,
    upper_b1,
)
from .gf2poly import Gf2Polynomial, ideal_gens_k3
from .grassmann import (
    GrassmannPresentation,
    gaussian_binomial,
    k3_reduced_membership,
    k3_reduced_quotient,
    w1_adjoined_quotient,
)
from .heights import closed_form_w2_height, height_direct, tabulated_w2_height
from .schubert import SchubertRing

Line = tuple[str, bool, str]


def _top(hi: int, max_n: int | None) -> int:
    """The upper end of a check's n range, lowered to --max-n when one is given."""
    return min(hi, max_n) if max_n else hi


def _grid(max_n: int | None, k3_hi: int) -> list[tuple[int, int]]:
    """The (n, k) rings of a grid check: k = 3 up to k3_hi, k = 4 up to 24, k = 5 up to 20."""
    grid = []
    for k, lo, hi in ((3, 6, k3_hi), (4, 8, 24), (5, 10, 20)):
        grid.extend((n, k) for n in range(lo, _top(hi, max_n) + 1))
    return grid


def generator_identities(max_n: int | None) -> list[Line]:
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
    return [
        ("n=6 generator triple", ideal_gens_k3(6) == expected6, "w2^2, 0, w3^2 + w2^3"),
        ("n=9 generator triple", ideal_gens_k3(9) == expected9, "w2^2*w3, w2*w3^2 + w2^4, w3^3"),
    ]


def g_generators(max_n: int | None) -> list[Line]:
    top = _top(64, max_n)
    results = [
        (f"n={n}", False, "closed form disagrees with series inversion")
        for n in range(6, top + 1)
        if ideal_gens_k3(n) != GrassmannPresentation(n, 3).oriented().ideal_gens
    ]
    results.append((f"6 <= n <= {top}", not results, "closed form matches series inversion"))
    return results


def membership_routes(max_n: int | None) -> list[Line]:
    top = _top(20, max_n)
    results = []
    for n in range(6, top + 1):
        N = 3 * (n - 3)
        adjoined = w1_adjoined_quotient(n, 3)
        reduced = k3_reduced_quotient(n)
        mismatches = 0
        for a in range(N // 2 + 1):
            for b in range((N - 2 * a) // 3 + 1):
                x = Gf2Polynomial((2, 3), [(a, b)])
                full = Gf2Polynomial((1, 2, 3), [(0, a, b)])
                if reduced.is_zero(x) != adjoined.is_zero(full):
                    mismatches += 1
        if mismatches:
            results.append((f"n={n}", False, f"{mismatches} monomial memberships disagree"))
    results.append(
        (f"all monomials, 6 <= n <= {top}", not results, "reduced-ring and adjoined-ideal routes agree")
    )
    return results


def lemma_f(max_n: int | None) -> list[Line]:
    results = []
    grid = _grid(max_n, 40)
    for n, k in grid:
        ring = SchubertRing(n, k)
        direct = height_direct(ring, Gf2Polynomial.variable(ring.weights, 2)).height
        closed = closed_form_w2_height(n, k)
        if direct != closed:
            results.append((f"({n},{k})", False, f"closed {closed} != direct {direct}"))
    results.append((f"{len(grid)} pairs", not results, "closed-form heights equal direct heights"))
    return results


def oriented_heights(max_n: int | None) -> list[Line]:
    results = []
    for n, expected in ((9, 4), (6, 1)):
        ctx = GrassmannPresentation(n, 3).oriented()
        record = height_direct(ctx, Gf2Polynomial.variable(ctx.weights, 2))
        ok = record.height == expected and record.witness_zero == expected + 1
        results.append(
            (f"({n},3) oriented w2", ok, f"height {record.height}, vanishing power {record.witness_zero}")
        )
    return results


def smallest_space(max_n: int | None) -> list[Line]:
    outside = not k3_reduced_membership(6, Gf2Polynomial((2, 3), [(1, 1)]))
    report = full_report(6, 3)
    return [
        ("w2*w3 outside the reduced ideal", outside, "nonzero product of length 2"),
        (
            "cup-length 3 with category in [4,5]",
            (report.lower, report.upper, report.cat_lower, report.cat_upper, report.exact)
            == (3, 3, 4, 5, True),
            f"lower {report.lower}, upper {report.upper}",
        ),
        (
            "nilpotency refinement with exponent 1",
            upper_b1(9, 1) == 3,
            "1 + (9 - 2) // 3 = 3",
        ),
    ]


def prop_b(max_n: int | None) -> list[Line]:
    results = []
    grid = _grid(max_n, 33)
    for n, k in grid:
        ctx = GrassmannPresentation(n, k).oriented()
        bound, (exps, length, degree) = prop_b_bound(n, k)
        cert = Gf2Polynomial(ctx.weights, [exps])
        if ctx.is_zero(cert):
            results.append((f"({n},{k})", False, f"certificate {cert.render()} vanishes"))
            continue
        derived = lower_a3(k * (n - k), length, degree)
        if derived != bound.value:
            results.append((f"({n},{k})", False, f"derived {derived} != closed form {bound.value}"))
    results.append((f"{len(grid)} pairs", not results, "verified certificates match the closed forms"))
    return results


def prop_d(max_n: int | None) -> list[Line]:
    results = []
    pairs = [(n, k) for k in range(3, 9) for n in range(2 * k, _top(64, max_n) + 1) if (n, k) != (6, 3)]
    for n, k in pairs:
        N = k * (n - k)
        ht = tabulated_w2_height(n, k)
        dichotomy = upper_b1(N, ht) if 2 * ht < N else upper_a1(N, 2)
        table = prop_d_bound(n, k).value
        if table != dichotomy:
            results.append((f"({n},{k})", False, f"table {table} != dichotomy {dichotomy}"))
    results.append((f"{len(pairs)} pairs", not results, "table equals the height dichotomy"))
    for (n, k), want in (((9, 3), 8), ((10, 4), 12), ((12, 5), 16)):
        table = prop_d_bound(n, k).value
        results.append((f"spot ({n},{k})", table == want, f"expected {want}, got {table}"))
    return results


def rational(max_n: int | None) -> list[Line]:
    results = []
    for (n, k), want in (((8, 4), (4, 4, True)), ((13, 4), (9, 9, True)), ((10, 4), (6, 6, True))):
        report = full_report(n, k, "Q")
        got = (report.lower, report.upper, report.exact)
        results.append((f"({n},{k})", got == want, f"expected {want}, got {got}"))
    family = all(full_report(n, 4, "Q").exact for n in range(8, _top(16, max_n) + 1, 2))
    results.append(("even n, k=4 equality family", family, "equality flag raised"))
    return results


def category(max_n: int | None) -> list[Line]:
    wanted = {
        (6, 3): (4, 5),
        (9, 3): (6, 10),
        (10, 3): (6, 11),
        (11, 3): (6, 13),
        (12, 3): (6, 14),
    }
    results = []
    for (n, k), (lo, hi) in wanted.items():
        report = full_report(n, k)
        got = (report.paper_cat_lower, report.cat_upper)
        results.append((f"({n},{k})", got == (lo, hi), f"expected [{lo},{hi}], got {list(got)}"))
    return results


def betti_duality(max_n: int | None) -> list[Line]:
    grid = [(n, 3) for n in range(6, 13)] + [(8, 4), (10, 4), (10, 5)]
    results = []
    for n, k in grid:
        pres = GrassmannPresentation(n, k, ranks_only=True)
        if pres.betti() != gaussian_binomial(n, k):
            results.append((f"({n},{k})", False, "betti vector differs from the Gaussian binomial coefficients"))
        if n % 2 == 1:
            ctx = pres.oriented()
            ht = height_direct(ctx, Gf2Polynomial.variable(ctx.weights, 2)).height
            if 2 * ht >= pres.N:
                results.append((f"({n},{k})", False, f"odd n but 2*{ht} >= {pres.N}"))
    results.append((f"{len(grid)} rings", not results, "palindromic, correct totals, odd-n height gap"))
    return results


CHECKS = {
    "generator-identities": generator_identities,
    "g-generators": g_generators,
    "membership-routes": membership_routes,
    "lemma-f": lemma_f,
    "oriented-heights": oriented_heights,
    "smallest-space": smallest_space,
    "prop-b": prop_b,
    "prop-d": prop_d,
    "rational": rational,
    "category": category,
    "betti-duality": betti_duality,
}
