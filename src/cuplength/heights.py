"""Heights of cohomology classes: direct quotient computation and closed forms."""

from __future__ import annotations

from dataclasses import dataclass

from .gf2poly import Gf2Polynomial
from .grassmann import GrassmannPresentation, check_domain, class_height
from .schubert import SchubertRing


class ZeroClassError(ValueError):
    """Raised when a height is requested for a class that is zero in the quotient."""


@dataclass(frozen=True)
class HeightRecord:
    """The height of a class with its nonvanishing and vanishing witnesses."""

    class_label: str
    context: str
    n: int
    k: int
    height: int
    witness_nonzero: int
    witness_zero: int

    def __post_init__(self):
        if self.height < 0:
            raise ValueError("negative height")
        if self.witness_zero != self.height + 1:
            raise ValueError("vanishing witness must be height + 1")


@dataclass(frozen=True)
class NDecomposition:
    """Binary shape of n: the unique s with 2^s < n <= 2^{s+1} plus the residue form."""

    n: int
    s: int
    form: str
    p: int | None = None
    t: int | None = None


def decompose_n(n: int) -> NDecomposition:
    """Classify n into the four shapes 2^s+1, 2^s+2, 2^s+2^p+1, 2^s+2^p+t+1."""
    if n < 6:
        raise ValueError("need n >= 6")
    s = (n - 1).bit_length() - 1
    if n == 2**s + 1:
        return NDecomposition(n, s, "2^s+1")
    if n == 2**s + 2:
        return NDecomposition(n, s, "2^s+2")
    m = n - 2**s - 1
    p = m.bit_length() - 1
    t = m - 2**p
    if t == 0:
        return NDecomposition(n, s, "2^s+2^p+1", p=p)
    return NDecomposition(n, s, "2^s+2^p+t+1", p=p, t=t)


def height_direct(ctx: GrassmannPresentation | SchubertRing, x: Gf2Polynomial) -> HeightRecord:
    """Largest c with x^c nonzero in the ring, from the ring's one power walk (class_height)."""
    label = x.render()
    d = x.homogeneous_degree()
    if not d:
        raise ValueError("height requires a nonzero homogeneous class of positive degree")
    height = class_height(ctx, x)
    if not height:
        raise ZeroClassError(f"{label} is zero in the {ctx.context} quotient for ({ctx.n}, {ctx.k})")
    return HeightRecord(
        class_label=label,
        context=ctx.context,
        n=ctx.n,
        k=ctx.k,
        height=height,
        witness_nonzero=height * d,
        witness_zero=height + 1,
    )


def tabulated_w2_height(n: int, k: int) -> int:
    """The published closed-form table for the height of w2, taken verbatim.

    Kept separate from closed_form_w2_height because the k=5 shapes n=10,11,12
    overshoot the true value; the derived upper-bound tables are built from
    these uncorrected numbers, so replicating them needs this exact function.
    """
    check_domain(n, k)
    dec = decompose_n(n)
    s = dec.s
    if k == 3:
        if dec.form == "2^s+1":
            return 2**s - 1
        if dec.form == "2^s+2":
            return 2**s
        if dec.form == "2^s+2^p+1":
            return 2**s + 2 ** (dec.p + 1) - 2
        return 2**s + 2 ** (dec.p + 1) - 1
    if k == 4:
        if dec.form == "2^s+1":
            return 2**s - 1
        if n in (2**s + 2, 2**s + 3):
            return 2 ** (s + 1) - 4
        return 2 ** (s + 1) - 1
    if dec.form == "2^s+1":
        return 2**s - 1
    return 2 ** (s + 1) - 1


def closed_form_w2_height(n: int, k: int) -> int:
    """Closed form for the height of w2 in the unoriented quotient.

    Follows tabulated_w2_height except at k=5, n in {10, 11, 12}, where the
    generic k>=5 rule overshoots: direct elimination gives 12 there (for n=10
    the tabulated 15 even exceeds half the formal dimension).  The value is
    also clamped at half the formal dimension, which every height obeys.
    """
    value = tabulated_w2_height(n, k)
    if k == 5 and n in (10, 11, 12):
        value = 2 ** ((n - 1).bit_length()) - 4
    return min(value, (k * (n - k)) // 2)


def rational_p1_height(n: int, k: int) -> int:
    """Height of the rational degree-4 class: floor(k/2) * floor((n-k)/2)."""
    if k < 4:
        raise ValueError("rational height needs k >= 4")
    if n < 2 * k:
        raise ValueError("need n >= 2k")
    return (k // 2) * ((n - k) // 2)
