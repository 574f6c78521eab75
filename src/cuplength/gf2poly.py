"""Sparse polynomials over GF(2) in graded variables w1, w2, ... of prescribed weights."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import add, mul

# Hard cap on any single exponent; construction fails beyond it.  Generous for
# every desk-scale computation, small enough to catch runaway loops.
EXPONENT_CAP = 256


def lucas_parity(i: int, j: int) -> int:
    """Parity of the binomial coefficient C(i, j), by Lucas' theorem."""
    if i < 0 or j < 0:
        raise ValueError("binomial parity needs nonnegative arguments")
    if j > i:
        return 0
    return 1 if (i & j) == j else 0


def _check_weights(weights: tuple[int, ...]) -> None:
    if not weights or list(weights) != sorted(set(weights)) or weights[0] < 1:
        raise ValueError(f"weights must be strictly increasing positive integers, got {weights!r}")


def _check_exps(exps: tuple[int, ...], width: int) -> None:
    if len(exps) != width:
        raise ValueError("exponent vector length must match the number of variables")
    if min(exps) < 0:
        raise ValueError("negative exponent")
    if max(exps) > EXPONENT_CAP:
        raise ValueError(f"exponent exceeds cap {EXPONENT_CAP}")


@dataclass(frozen=True, slots=True)
class Monomial:
    """A power product of weighted variables, stored as an exponent vector, with its weighted degree."""

    exps: tuple[int, ...]
    weights: tuple[int, ...]
    degree: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_weights(self.weights)
        _check_exps(self.exps, len(self.weights))
        object.__setattr__(self, "degree", sum(map(mul, self.exps, self.weights)))

    def sort_key(self) -> tuple:
        """Canonical graded order: by degree, then by reversed exponent vector."""
        return (self.degree, self.exps[::-1])

    def render(self) -> str:
        parts = []
        for e, w in zip(self.exps, self.weights):
            if e == 1:
                parts.append(f"w{w}")
            elif e > 1:
                parts.append(f"w{w}^{e}")
        return "*".join(parts) if parts else "1"


_set_exps, _set_weights, _set_degree = Monomial.exps.__set__, Monomial.weights.__set__, Monomial.degree.__set__


class Gf2Polynomial:
    """A GF(2) sum of monomials; addition is symmetric difference of term sets."""

    __slots__ = ("weights", "terms")

    def __init__(self, weights, terms=()):
        weights = tuple(weights)
        _check_weights(weights)
        # Each exponent vector is checked before it may cancel, as a Monomial was
        # when it was made; only the survivors become Monomials, set unchecked.
        width, seen = len(weights), set()
        for t in terms:
            if isinstance(t, Monomial):
                if t.weights != weights:
                    raise ValueError("term over a different variable set")
                t = t.exps
            else:
                t = tuple(t)
                _check_exps(t, width)
            if t in seen:
                seen.remove(t)
            else:
                seen.add(t)
        normalized = []
        for e in seen:
            m = object.__new__(Monomial)
            _set_exps(m, e), _set_weights(m, weights), _set_degree(m, sum(map(mul, e, weights)))
            normalized.append(m)
        normalized.sort(key=Monomial.sort_key)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "terms", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("Gf2Polynomial is immutable")

    @classmethod
    def zero(cls, weights) -> "Gf2Polynomial":
        return cls(weights)

    @classmethod
    def one(cls, weights) -> "Gf2Polynomial":
        weights = tuple(weights)
        return cls(weights, [tuple(0 for _ in weights)])

    @classmethod
    def variable(cls, weights, weight: int) -> "Gf2Polynomial":
        """The single variable of the given weight."""
        weights = tuple(weights)
        if weight not in weights:
            raise ValueError(f"no variable of weight {weight} in {weights}")
        exps = tuple(1 if w == weight else 0 for w in weights)
        return cls(weights, [exps])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Polynomial)
            and self.weights == other.weights
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.weights, self.terms))

    def __add__(self, other: "Gf2Polynomial") -> "Gf2Polynomial":
        if self.weights != other.weights:
            raise ValueError("cannot add polynomials over different variable sets")
        mine = {t.exps for t in self.terms}
        mine.symmetric_difference_update(t.exps for t in other.terms)
        return Gf2Polynomial(self.weights, mine)

    def __mul__(self, other: "Gf2Polynomial") -> "Gf2Polynomial":
        if self.weights != other.weights:
            raise ValueError("cannot multiply polynomials over different variable sets")
        acc: set[tuple[int, ...]] = set()
        for a in self.terms:
            ae = a.exps
            # The products of a with the distinct terms of other are distinct: one toggle each.
            acc.symmetric_difference_update(tuple(map(add, ae, b.exps)) for b in other.terms)
        return Gf2Polynomial(self.weights, acc)

    def square(self) -> "Gf2Polynomial":
        """Frobenius square: over GF(2) squaring doubles each exponent vector."""
        return Gf2Polynomial(self.weights, [tuple(2 * e for e in t.exps) for t in self.terms])

    def __pow__(self, e: int) -> "Gf2Polynomial":
        if e < 0:
            raise ValueError("negative power")
        result = Gf2Polynomial.one(self.weights)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base.square()
        return result

    def is_homogeneous(self) -> bool:
        # Terms are sorted by degree, so the first and last bound the rest.
        return not self.terms or self.terms[0].degree == self.terms[-1].degree

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None for zero or mixed polynomials."""
        return self.terms[0].degree if self.terms and self.is_homogeneous() else None

    def substitute_zero(self, weight: int) -> "Gf2Polynomial":
        """Set the variable of the given weight to zero, dropping it from the ring."""
        if weight not in self.weights:
            raise ValueError(f"no variable of weight {weight} in {self.weights}")
        pos = self.weights.index(weight)
        rest = self.weights[:pos] + self.weights[pos + 1 :]
        kept = [t.exps[:pos] + t.exps[pos + 1 :] for t in self.terms if t.exps[pos] == 0]
        return Gf2Polynomial(rest, kept)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(t.render() for t in reversed(self.terms))

    def __repr__(self) -> str:
        return f"Gf2Polynomial({self.render()!r})"


def inverse_series_components(weights, max_degree: int, lowest: int = 0) -> list[Gf2Polynomial]:
    """Homogeneous components q_lowest..q_max of 1/(1 + x_1 + ... + x_m) over GF(2), x_j of weight w_j.

    The recursion q_d = sum_j x_j * q_{d - w_j} follows from (1 + x_1 + ... + x_m) * q = 1.
    It runs on exponent sets; only the components asked for become polynomials.
    Weights 1..k give 1/(1 + w1 + ... + wk), and 2..k its image under w1 -> 0.
    """
    weights = tuple(weights)
    _check_weights(weights)
    if max_degree < 0:
        raise ValueError("negative degree bound")
    if not 0 <= lowest <= max_degree:
        raise ValueError("lowest degree out of range")
    comps: list[set[tuple[int, ...]]] = [{tuple(0 for _ in weights)}]
    for d in range(1, max_degree + 1):
        acc: set[tuple[int, ...]] = set()
        for pos, w in enumerate(weights):
            if w > d:
                break
            for exps in comps[d - w]:
                bumped = exps[:pos] + (exps[pos] + 1,) + exps[pos + 1 :]
                if bumped in acc:
                    acc.remove(bumped)
                else:
                    acc.add(bumped)
        comps.append(acc)
    return [Gf2Polynomial(weights, c) for c in comps[lowest:]]


def ideal_gens_k3(n: int) -> tuple[Gf2Polynomial, Gf2Polynomial, Gf2Polynomial]:
    """Closed-form reduced generators in Z2[w2,w3] for the three-plane case.

    The generator of degree kappa is the GF(2) sum of C(i, 3i-kappa) * w2^(3i-kappa)
    * w3^(kappa-2i) over kappa/3 <= i <= kappa/2, with parities by Lucas' theorem.
    """
    if n < 6:
        raise ValueError("need n >= 6")
    weights = (2, 3)

    def gen(kappa: int) -> Gf2Polynomial:
        terms = []
        lo = (kappa + 2) // 3
        hi = kappa // 2
        for i in range(lo, hi + 1):
            if lucas_parity(i, 3 * i - kappa):
                terms.append((3 * i - kappa, kappa - 2 * i))
        return Gf2Polynomial(weights, terms)

    return (gen(n - 2), gen(n - 1), gen(n))


_FACTOR_RE = re.compile(r"w(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, weights) -> Gf2Polynomial:
    """Parse the canonical syntax: products of wI^E joined by '*', sums by '+'."""
    weights = tuple(weights)
    _check_weights(weights)
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return Gf2Polynomial.zero(weights)
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty summand in {text!r}")
        exps = [0] * len(weights)
        if chunk != "1":
            for factor in chunk.split("*"):
                factor = factor.strip()
                m = _FACTOR_RE.match(factor)
                if not m:
                    raise ValueError(f"cannot parse factor {factor!r}")
                w = int(m.group(1))
                e = int(m.group(2)) if m.group(2) else 1
                if w not in weights:
                    raise ValueError(f"variable w{w} not in ring with weights {weights}")
                exps[weights.index(w)] += e
        terms.append(tuple(exps))
    # The constructor checks each vector once, so every summand parses before any is checked.
    return Gf2Polynomial(weights, terms)
