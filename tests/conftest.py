"""Shared test helpers and the acceptance-criteria terminal summary.

The helpers import the package when called, so that a module which fails to
import fails only the tests that use it, not the loading of this file.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from cuplength.gf2linalg import Eliminator
    from cuplength.gf2poly import Gf2Polynomial, Monomial
    from cuplength.schubert import SchubertRing

CRITERIA = {
    1: "generator identities for n = 6 and n = 9 at k = 3",
    2: "two-route equivalence: closed-form generators and ideal membership",
    3: "cup-length 3 for the smallest oriented space",
    4: "oriented w2 heights 4 and 1 with vanishing witnesses",
    5: "closed-form w2 heights equal direct heights on the full grid",
    6: "closed-form lower bounds match verified product certificates",
    7: "closed-form upper bounds match the height dichotomy",
    8: "rational bounds with equality flags",
    9: "category intervals for the five small spaces",
    10: "Betti duality, totals, and the odd-n height gap",
    11: "bit-packed linear algebra agrees with naive oracles",
}

ACCEPTANCE_LOG: list[tuple[int, bool]] = []

# The oriented rings k = 3..7, 2k <= n <= 2k + 12, N <= 130.
ORIENTED_GRID = [(n, k) for k in range(3, 8) for n in range(2 * k, 2 * k + 13) if k * (n - k) <= 130]


def record_criterion(number: int, ok: bool) -> None:
    ACCEPTANCE_LOG.append((number, bool(ok)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not any(
        item
        for item in terminalreporter.stats.get("passed", [])
        + terminalreporter.stats.get("failed", [])
        if "test_acceptance" in str(getattr(item, "nodeid", ""))
    ):
        return
    seen = dict(ACCEPTANCE_LOG)
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number in sorted(CRITERIA):
        if number in seen:
            status = "PASS" if seen[number] else "FAIL"
        else:
            status = "FAIL (did not complete)"
        terminalreporter.write_line(f"ACCEPTANCE {number:02d} {status}: {CRITERIA[number]}")


def reference_polynomial_terms(weights, terms) -> tuple[Monomial, ...]:
    """The per-term constructor: each term becomes a checked Monomial before it
    may cancel, terms cancel in pairs, and the survivors sort in the canonical
    graded order (Monomial.sort_key: degree, then reversed exponent vector).

    The checks and the order are spelled out here, one pass per condition, so
    that they share no code with the package's."""
    from cuplength.gf2poly import EXPONENT_CAP, Monomial

    def check_weights(ws):
        if not ws or list(ws) != sorted(set(ws)) or ws[0] < 1:
            raise ValueError(f"weights must be strictly increasing positive integers, got {ws!r}")

    weights = tuple(weights)
    check_weights(weights)
    seen: dict[tuple[int, ...], Monomial] = {}
    for t in terms:
        if not isinstance(t, Monomial):
            exps = tuple(t)
            if len(exps) != len(weights):
                raise ValueError("exponent vector length must match the number of variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if any(e > EXPONENT_CAP for e in exps):
                raise ValueError(f"exponent exceeds cap {EXPONENT_CAP}")
            t = Monomial(exps, weights)
        elif t.weights != weights:
            raise ValueError("term over a different variable set")
        if seen.pop(t.exps, None) is None:
            seen[t.exps] = t
    return tuple(
        sorted(seen.values(), key=lambda m: (sum(e * w for e, w in zip(m.exps, weights)), tuple(reversed(m.exps))))
    )


def add_row(elim: Eliminator, v: int) -> int:
    """Add the vector v as the ladder adds its rows, shifted down to the pivot
    (its lowest set bit); a zero vector is in every span and is not added."""
    if not v:
        return 0
    p = (v & -v).bit_length() - 1
    return elim.add(v >> p, p)


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


def shift_bits(v: int, mapping: list[int]) -> int:
    """The per-bit loop: bit j moves to bit mapping[j]."""
    out = 0
    while v:
        low = v & -v
        out |= 1 << mapping[low.bit_length() - 1]
        v ^= low
    return out


def installed_rows(elim: Eliminator) -> dict[int, int]:
    """The rows of an Eliminator in place, pivot -> row."""
    return {p: u << p for p, u in elim._piv.items()}


def w1_images(ring: SchubertRing) -> list[Eliminator]:
    """Per degree d, an Eliminator over w1 times each Schubert class of degree d - 1.

    The pullback to the oriented double cover kills exactly w1 H*, so its
    image, the oriented characteristic subalgebra, is the cokernel of w1.
    """
    from cuplength.gf2linalg import Eliminator
    from cuplength.gf2poly import Gf2Polynomial

    w1 = Gf2Polynomial.variable(ring.weights, 1)
    elims = [Eliminator()]
    for d in range(1, ring.N + 1):
        elim = Eliminator()
        for c in range(ring._counts[d - 1]):
            add_row(elim, ring.times(1 << c, d - 1, w1))
        elims.append(elim)
    return elims


def cokernel_is_zero(ring: SchubertRing, elims: list[Eliminator], x: Gf2Polynomial) -> bool:
    """Whether a polynomial in w2..wk is zero in the oriented ring, by the cokernel of w1."""
    from cuplength.gf2poly import Gf2Polynomial

    full = Gf2Polynomial(ring.weights, [(0,) + t.exps for t in x.terms])
    d = x.homogeneous_degree()
    return d > ring.N or not elims[d].reduce(ring.times(1, 0, full))
