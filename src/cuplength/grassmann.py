"""Borel presentations of Grassmann cohomology mod 2 and the oriented reduction.

The unoriented ring is Z2[w1..wk] modulo the ideal generated by the homogeneous
components of 1/(1+w1+...+wk) in degrees n-k+1..n.  Classes on the oriented
double cover pulled back from the unoriented space form the characteristic
subalgebra, computed as the quotient by the same ideal with w1 adjoined; a
monomial in w2..wk is nonzero there iff it is not in I + (w1).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from .gf2linalg import Eliminator
from .gf2poly import Gf2Polynomial, ideal_gens_k3, inverse_series_components


class SizeCapExceeded(ValueError):
    """A computation would exceed the configured degree or basis caps."""


@dataclass(frozen=True)
class SizeCaps:
    """Resource guards for ladder construction."""

    max_formal_dim: int = 400
    max_basis: int = 200000


DEFAULT_CAPS = SizeCaps()


def monomial_basis(weights: tuple[int, ...], degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the given degree, in canonical ascending order.

    Canonical order sorts by the reversed exponent tuple, so multiplying every
    basis element by a fixed variable is order-preserving degree to degree.
    """
    k = len(weights)
    out: list[tuple[int, ...]] = []
    exps = [0] * k

    def rec(pos: int, rem: int) -> None:
        if pos == 0:
            w = weights[0]
            if rem % w == 0:
                exps[0] = rem // w
                out.append(tuple(exps))
                exps[0] = 0
            return
        w = weights[pos]
        for e in range(rem // w + 1):
            exps[pos] = e
            rec(pos - 1, rem - e * w)
        exps[pos] = 0

    rec(k - 1, degree)
    return out


def _shifted(v: int, mapping: list[int]) -> int:
    """Image of a bit vector under a column map (bit j moves to bit mapping[j])."""
    out = 0
    while v:
        low = v & -v
        out |= 1 << mapping[low.bit_length() - 1]
        v ^= low
    return out


class GradedQuotient:
    """Z2[variables]/(homogeneous ideal), materialized one degree at a time.

    Degree d of the ideal is spanned by the variable shifts of degree d - w_i
    plus the generators of degree d; each degree keeps a finalized echelon so
    normal forms are unique and the shifted rows stay sparse.
    """

    def __init__(self, weights, generators, caps: SizeCaps = DEFAULT_CAPS):
        self.weights = tuple(weights)
        self.caps = caps
        self.generators: tuple[Gf2Polynomial, ...] = tuple(g for g in generators if g)
        self._gens_by_degree: dict[int, list[Gf2Polynomial]] = {}
        for g in self.generators:
            if g.weights != self.weights:
                raise ValueError("generator over a different variable set")
            d = g.homogeneous_degree()
            if d is None:
                raise ValueError("generators must be homogeneous and nonzero")
            self._gens_by_degree.setdefault(d, []).append(g)
        self._bases: list[list[tuple[int, ...]]] = []
        self._index: list[dict[tuple[int, ...], int]] = []
        self._elims: list[Eliminator] = []
        self._shift_maps: dict[tuple[int, int], list[int]] = {}

    def _shift_map(self, src_degree: int, pos: int) -> list[int]:
        """Column map of multiplication by the variable at position pos."""
        key = (src_degree, pos)
        got = self._shift_maps.get(key)
        if got is not None:
            return got
        dst_index = self._index[src_degree + self.weights[pos]]
        mapping = []
        for m in self._bases[src_degree]:
            bumped = m[:pos] + (m[pos] + 1,) + m[pos + 1 :]
            mapping.append(dst_index[bumped])
        self._shift_maps[key] = mapping
        return mapping

    def extend_to(self, degree: int) -> None:
        if degree > self.caps.max_formal_dim:
            raise SizeCapExceeded(
                f"degree {degree} exceeds cap {self.caps.max_formal_dim}"
            )
        while len(self._bases) <= degree:
            self._build(len(self._bases))

    def _build(self, d: int) -> None:
        basis = monomial_basis(self.weights, d)
        if len(basis) > self.caps.max_basis:
            raise SizeCapExceeded(
                f"degree {d} basis has {len(basis)} monomials, cap {self.caps.max_basis}"
            )
        self._bases.append(basis)
        self._index.append({m: i for i, m in enumerate(basis)})
        elim = Eliminator()
        for pos in range(len(self.weights)):
            sd = d - self.weights[pos]
            if sd < 0:
                continue
            mapping = self._shift_map(sd, pos)
            for _, row in sorted(self._elims[sd].pivot_rows().items()):
                elim.add(_shifted(row, mapping))
        for g in self._gens_by_degree.get(d, ()):
            elim.add(self._vectorize(g, d))
        elim.finalize()
        self._elims.append(elim)

    def _vectorize(self, poly: Gf2Polynomial, degree: int) -> int:
        index = self._index[degree]
        v = 0
        for t in poly.terms:
            v |= 1 << index[t.exps]
        return v

    def _devectorize(self, v: int, degree: int) -> Gf2Polynomial:
        basis = self._bases[degree]
        terms = []
        while v:
            low = v & -v
            terms.append(basis[low.bit_length() - 1])
            v ^= low
        return Gf2Polynomial(self.weights, terms)

    def ambient_dim(self, degree: int) -> int:
        self.extend_to(degree)
        return len(self._bases[degree])

    def ideal_rank(self, degree: int) -> int:
        self.extend_to(degree)
        return self._elims[degree].rank

    def dim(self, degree: int) -> int:
        """Dimension of the degree-d component of the quotient."""
        if degree < 0:
            return 0
        return self.ambient_dim(degree) - self.ideal_rank(degree)

    def normal_form(self, poly: Gf2Polynomial) -> Gf2Polynomial:
        if poly.weights != self.weights:
            raise ValueError("polynomial over a different variable set")
        if not poly:
            return poly
        d = poly.homogeneous_degree()
        if d is None:
            raise ValueError("normal form requires a homogeneous polynomial")
        self.extend_to(d)
        return self._devectorize(self._elims[d].reduce(self._vectorize(poly, d)), d)

    def is_zero(self, poly: Gf2Polynomial) -> bool:
        """Ideal membership of a homogeneous polynomial."""
        return not self.normal_form(poly)

    def times(self, v: int, degree: int, x: Gf2Polynomial) -> int:
        """Reduced vector of the class v (a vector in the given degree) times x.

        Each term of x is applied as a chain of variable shifts; the images
        are summed and reduced once, in degree + deg(x).
        """
        if x.weights != self.weights:
            raise ValueError("polynomial over a different variable set")
        dx = x.homogeneous_degree()
        if dx is None:
            raise ValueError("multiplication requires a nonzero homogeneous polynomial")
        target = degree + dx
        self.extend_to(target)
        acc = 0
        for t in x.terms:
            u, d = v, degree
            for pos, e in enumerate(t.exps):
                for _ in range(e):
                    u = _shifted(u, self._shift_map(d, pos))
                    d += self.weights[pos]
            acc ^= u
        return self._elims[target].reduce(acc)


class GrassmannPresentation:
    """The ring Z2[w1..wk]/I for k-planes in n-space, with lazy degree ladders.

    oriented() gives the characteristic subalgebra of the oriented double
    cover as a ring of the same type over w2..wk; context names which one a
    ring is.  Both vanish above the formal dimension N = k(n-k).
    """

    def __init__(self, n: int, k: int, caps: SizeCaps = DEFAULT_CAPS):
        if not (k >= 3 and n >= 2 * k):
            raise ValueError(f"need n >= 2k >= 6, got (n, k) = ({n}, {k})")
        N = k * (n - k)
        if N > caps.max_formal_dim:
            raise SizeCapExceeded(f"formal dimension {N} exceeds cap")
        comps = inverse_series_components(k, n)
        gens = tuple(comps[d] for d in range(n - k + 1, n + 1))
        self._setup(n, k, caps, "unoriented", tuple(range(1, k + 1)), gens)

    def _setup(
        self,
        n: int,
        k: int,
        caps: SizeCaps,
        context: str,
        weights: tuple[int, ...],
        ideal_gens: tuple[Gf2Polynomial, ...],
    ) -> None:
        self.n = n
        self.k = k
        self.N = k * (n - k)
        self.caps = caps
        self.context = context
        self.weights = weights
        self.ideal_gens = ideal_gens
        self.quotient = GradedQuotient(weights, ideal_gens, caps)
        self._oriented: GrassmannPresentation | None = None

    def betti(self) -> list[int]:
        """Per-degree dimensions b_0..b_N of the quotient ring."""
        return [self.quotient.dim(d) for d in range(self.N + 1)]

    def normal_form(self, x: Gf2Polynomial) -> Gf2Polynomial:
        return self.quotient.normal_form(x)

    def is_zero(self, x: Gf2Polynomial) -> bool:
        """Whether a homogeneous class vanishes; every class above N does."""
        if x.weights != self.weights:
            raise ValueError("polynomial over a different variable set")
        if not x:
            return True
        d = x.homogeneous_degree()
        if d is None:
            raise ValueError("membership requires a homogeneous polynomial")
        return d > self.N or self.quotient.is_zero(x)

    def oriented(self) -> "GrassmannPresentation":
        """Z2[w2..wk] modulo the generators with w1 set to zero, the quotient by I + (w1).

        It keeps no reference back to this ring, so a finished ring is freed
        by reference counting rather than by the cyclic garbage collector.
        """
        if self._oriented is None:
            gens = tuple(g.substitute_zero(1) for g in self.ideal_gens)
            ring = object.__new__(GrassmannPresentation)
            ring._setup(self.n, self.k, self.caps, "oriented-characteristic", self.weights[1:], gens)
            self._oriented = ring
        return self._oriented


def k3_reduced_quotient(n: int, caps: SizeCaps = DEFAULT_CAPS) -> GradedQuotient:
    """Z2[w2,w3] modulo the closed-form three-plane generators."""
    return GradedQuotient((2, 3), ideal_gens_k3(n), caps)


def k3_reduced_membership(n: int, x: Gf2Polynomial, caps: SizeCaps = DEFAULT_CAPS) -> bool:
    """Ideal membership against the closed-form generator route (k=3 only)."""
    if x.weights != (2, 3):
        raise ValueError("expected a polynomial in w2, w3")
    if not x:
        return True
    d = x.homogeneous_degree()
    if d is None:
        raise ValueError("membership requires a homogeneous polynomial")
    return k3_reduced_quotient(n, caps).is_zero(x)


def w1_adjoined_quotient(n: int, k: int, caps: SizeCaps = DEFAULT_CAPS) -> GradedQuotient:
    """Full-ring quotient by the presentation ideal plus (w1), a second route to the oriented reduction."""
    weights = tuple(range(1, k + 1))
    comps = inverse_series_components(k, n)
    gens = [comps[d] for d in range(n - k + 1, n + 1)]
    gens.append(Gf2Polynomial.variable(weights, 1))
    return GradedQuotient(weights, gens, caps)


def longest_monomial_product(ctx: GrassmannPresentation) -> tuple[tuple[int, ...], int, int]:
    """Longest nonzero product of oriented classes, scored for the cup-length bound.

    Breadth-first walk over quotient classes: states are (degree, reduced
    vector), extended one variable at a time; states with equal vectors merge
    and keep the lexicographically smallest exponent vector.  Returns
    (exponents, length, degree) maximizing length + (1 if degree < N), ties
    broken by larger length, then smaller exponent vector.
    """
    weights = ctx.weights
    quotient = ctx.quotient
    quotient.extend_to(ctx.N)
    elims = quotient._elims
    shift_map = quotient._shift_map
    # The unit: degree 0 has the single basis monomial 1 and no ideal rows.
    frontier: dict[tuple[int, int], tuple[int, ...]] = {(0, 1): tuple(0 for _ in weights)}
    best_exps = tuple(0 for _ in weights)
    best_len = 0
    best_deg = 0

    def score(length: int, degree: int) -> int:
        return length + (1 if degree < ctx.N else 0)

    length = 0
    while frontier:
        length += 1
        nxt: dict[tuple[int, int], tuple[int, ...]] = {}
        for (d, nf), exps in frontier.items():
            for pos, w in enumerate(weights):
                nd = d + w
                if nd > ctx.N:
                    continue
                nnf = elims[nd].reduce(_shifted(nf, shift_map(d, pos)))
                if not nnf:
                    continue
                nexps = exps[:pos] + (exps[pos] + 1,) + exps[pos + 1 :]
                key = (nd, nnf)
                old = nxt.get(key)
                if old is None or nexps < old:
                    nxt[key] = nexps
        for (d, _), exps in nxt.items():
            if (score(length, d), length, tuple(-e for e in exps)) > (
                score(best_len, best_deg),
                best_len,
                tuple(-e for e in best_exps),
            ):
                best_exps, best_len, best_deg = exps, length, d
        frontier = nxt
    return best_exps, best_len, best_deg


RECORD_SCHEMA = 1
_RECORD_KEYS = {"schema", "n", "k", "mode", "betti", "ht_w2", "longest_product"}


def record_filename(n: int, k: int, mode: str) -> str:
    return f"gr_{n}_{k}_{mode}.json"


def save_record(cache_dir: str, record: dict) -> str:
    """Atomically write a cache record; returns the file path."""
    missing = _RECORD_KEYS - set(record)
    if missing or set(record) - _RECORD_KEYS:
        raise ValueError(f"malformed record keys: {sorted(set(record) ^ _RECORD_KEYS)}")
    path = os.path.join(cache_dir, record_filename(record["n"], record["k"], record["mode"]))
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(record, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_record(cache_dir: str, n: int, k: int, mode: str) -> dict | None:
    """Load a cache record; None on miss; ValueError on a malformed file."""
    path = os.path.join(cache_dir, record_filename(n, k, mode))
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        record = json.load(fh)
    if not isinstance(record, dict) or set(record) != _RECORD_KEYS:
        raise ValueError(f"unrecognized cache record shape in {path}")
    if record["schema"] != RECORD_SCHEMA:
        raise ValueError(f"unsupported cache schema {record['schema']!r} in {path}")
    if (record["n"], record["k"], record["mode"]) != (n, k, mode):
        raise ValueError(f"cache record {path} does not match its file name")
    product = record["longest_product"]
    if not (
        type(record["ht_w2"]) is int
        and _is_int_list(record["betti"])
        and isinstance(product, list)
        and len(product) == 3
        and _is_int_list(product[0])
        and _is_int_list(product[1:])
    ):
        raise ValueError(f"cache record {path} has a field of the wrong type")
    return record


def _is_int_list(value) -> bool:
    """A JSON list of integers (booleans and floats excluded)."""
    return isinstance(value, list) and all(type(v) is int for v in value)
