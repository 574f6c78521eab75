"""Cup-length bounds from exact degree bookkeeping, plus every closed-form table.

Lower bounds come from verified nonzero products (the duality argument: a
nonzero product of positive-degree classes below the formal dimension N
extends by one more factor).  Upper bounds come from degree counting in the
first nonzero reduced degree r (r = 2 over Z2, r = 4 over Q) and, over Z2,
from the height of w2 with the next nonzero degree q = 3.  Reports keep the
closed-form table values and the engine-sharpened values side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2poly import Gf2Polynomial
from .grassmann import (
    GrassmannPresentation,
    OrientedSummary,
    check_domain,
    longest_monomial_product,
    oriented_quotient,
)
from .heights import decompose_n, height_direct, rational_p1_height


@dataclass(frozen=True)
class Bound:
    value: int
    method: str


@dataclass(frozen=True)
class BoundReport:
    """Best and table-replicating bounds for one (n, k) over one field."""

    n: int
    k: int
    field_tag: str
    lower: int
    lower_method: str
    upper: int
    upper_method: str
    paper_lower: int
    paper_lower_method: str
    paper_upper: int
    paper_upper_method: str
    cat_lower: int
    cat_upper: int
    paper_cat_lower: int
    exact: bool
    certificates: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(
                f"lower bound {self.lower} exceeds upper bound {self.upper} "
                f"for ({self.n}, {self.k}) over {self.field_tag}: computation bug"
            )


def upper_a1(N: int, r: int) -> int:
    """Degree counting: the cup-length never exceeds N / r."""
    return N // r


def check_a2(N: int, r: int, h: int) -> int | None:
    """Exact value N / r when a degree-r class has r * height = N."""
    if h < 1:
        raise ValueError("height must be positive")
    if r * h == N:
        return N // r
    return None


def lower_a3(N: int, product_length: int, product_degree: int) -> int:
    """A nonzero product of L positive-degree classes gives cup >= L, plus one
    more factor by duality while its degree is below the formal dimension N."""
    if product_length < 1:
        raise ValueError("need a nonempty product")
    if product_degree > N:
        raise ValueError("product degree exceeds the formal dimension")
    return product_length + 1 if product_degree < N else product_length


def upper_b1(N: int, h: int) -> int:
    """Nilpotency refinement of the degree count for r = 2, q = 3: a degree-2
    class of height h with 2h < N gives cup <= h + (N - 2h) // 3 < N / 2."""
    if not 0 < 2 * h < N:
        raise ValueError(f"nilpotency hypothesis 0 < 2 * {h} < {N} fails")
    result = h + (N - 2 * h) // 3
    if 2 * result >= N:
        raise RuntimeError("strict improvement postcondition violated")
    return result


def prop_b_bound(n: int, k: int) -> tuple[Bound, tuple[tuple[int, ...], int, int]]:
    """Closed-form lower bound for the cup-length over GF(2), with the nonzero product behind it.

    The certificate is (exponents over w2..wk, length, degree).  With m = n-k+3
    it is the product w2*w3 for the smallest space (B(a)), and otherwise the
    w2-power of exponent 4 on the exceptional set {9,10,11,12}, (m+1)/2 for odd m
    and m/2 for even m: tables B(b) and B(c) for k = 3, B(d) for k >= 4.
    """
    check_domain(n, k)
    m = n - k + 3
    if m == 6:
        return Bound(3, "B(a)"), ((1, 1), 2, 5)
    exceptional = m in (9, 10, 11, 12)
    c = 4 if exceptional else (m + 1) // 2
    value = 5 if exceptional else (m + 3) // 2
    method = "B(d)" if k > 3 else "B(c)" if exceptional else "B(b)"
    return Bound(value, method), ((c,) + (0,) * (k - 2), c, 2 * c)


def prop_d_bound(n: int, k: int) -> Bound:
    """Closed-form upper bound for the cup-length over GF(2).

    The tables D(a) (the smallest space) and D(b) are built from the tabulated
    w2 heights with q = 3.  The plain degree count (a1) replaces the table
    value when it is smaller, exactly when the tabulated height reaches or
    passes half the formal dimension.
    """
    check_domain(n, k)
    table = prop_d_upper_table_value(n, k)
    a1 = upper_a1(k * (n - k), 2)
    if a1 < table:
        return Bound(a1, "(a1)")
    return Bound(table, "D(a)" if (n, k) == (6, 3) else "D(b)")


def grossman_upper(dim: int, r: int) -> int:
    """Category bound 1 + dim/r for an (r-1)-connected space (connectedness assumed)."""
    if not (dim >= r >= 1):
        raise ValueError("need dim >= r >= 1")
    return 1 + dim // r


def cat_lower(cup: int) -> int:
    """Category exceeds the cup-length."""
    if cup < 0:
        raise ValueError("negative cup-length")
    return cup + 1


def summarize_oriented(pres: GrassmannPresentation) -> OrientedSummary:
    """Compute the height, longest product, and dimension vector of pres's oriented ring C (pres if it is C)."""
    ctx = pres.oriented()
    w2 = Gf2Polynomial.variable(ctx.weights, 2)
    ht = height_direct(ctx, w2).height
    return OrientedSummary(
        n=pres.n,
        k=pres.k,
        ht_w2=ht,
        longest=longest_monomial_product(ctx),
        char_dims=tuple(ctx.betti()),
    )


def full_report(
    n: int,
    k: int,
    field_tag: str = "Z2",
    summary: OrientedSummary | None = None,
) -> BoundReport:
    """Assemble closed-form and engine-sharpened bounds for (n, k).

    Over Q both bounds are closed forms in the degree-4 class height.  Over
    Z2 the paper's table bounds are re-derived from their certificates and
    sharpened by the oriented ring's w2 height and longest nonzero product.
    """
    check_domain(n, k)
    if field_tag not in ("Z2", "Q"):
        raise ValueError(f"unknown field tag {field_tag!r}")
    N = k * (n - k)
    certs: list[tuple[str, str]] = []
    if field_tag == "Q":
        h = rational_p1_height(n, k)
        certs.append(("degree-4-height", f"closed form {h}"))
        paper_low = best_low = Bound(lower_a3(N, h, 4 * h), "B(e)")
        paper_up = best_up = Bound(upper_a1(N, 4), "D(c)")
        a2_hit = check_a2(N, 4, h)
        if a2_hit is not None:
            certs.append(("(a2)", f"4 * {h} = {N} forces the exact value {a2_hit}"))
            best_low = Bound(a2_hit, "(a2)")
    else:
        paper_low, (cert_exps, cert_len, cert_deg) = prop_b_bound(n, k)
        paper_up = prop_d_bound(n, k)
        best_low, best_up = paper_low, paper_up

        if summary is None:
            summary = summarize_oriented(oriented_quotient(n, k))
        # (b1) needs no classes strictly between r = 2 and q.  The relations start
        # in degree n - k + 1 >= 4, so w3 is nonzero in degree 3 and q = 3.
        b2, b3 = summary.char_dims[2:4]
        if b2 != 1 or not b3:
            raise RuntimeError(
                f"characteristic subalgebra has dimensions {b2}, {b3} in degrees 2, 3,"
                " breaking the r = 2, q = 3 profile"
            )
        ht_or = summary.ht_w2
        reduced_weights = tuple(range(2, k + 1))

        cert_render = Gf2Polynomial(reduced_weights, [cert_exps]).render()
        cert_is_w2_power = all(e == 0 for e in cert_exps[1:])
        cert_survives = (
            cert_exps[0] <= ht_or
            if cert_is_w2_power
            else lower_a3(N, summary.longest[1], summary.longest[2])
            >= lower_a3(N, cert_len, cert_deg)
        )
        if not cert_survives:
            raise RuntimeError(
                f"table certificate {cert_render} vanishes for ({n}, {k}): computation bug"
            )
        certs.append(("table-certificate", f"{cert_render} nonzero, length {cert_len}, degree {cert_deg}"))
        table_low = lower_a3(N, cert_len, cert_deg)
        if table_low != paper_low.value:
            raise RuntimeError(
                f"certificate bound {table_low} disagrees with closed form {paper_low.value}"
            )

        certs.append(("oriented-height", f"ht = {ht_or}: w2^{ht_or} nonzero, w2^{ht_or + 1} zero"))
        if lower_a3(N, ht_or, 2 * ht_or) > best_low.value:
            best_low = Bound(lower_a3(N, ht_or, 2 * ht_or), "(a3) w2-power")

        exps, length, degree = summary.longest
        witness = Gf2Polynomial(reduced_weights, [exps]).render()
        certs.append(("longest-product", f"{witness} nonzero, length {length}, degree {degree}"))
        if lower_a3(N, length, degree) > best_low.value:
            best_low = Bound(lower_a3(N, length, degree), "(a3) product")

        # The table's upper bound is already at most the (a1) count N // 2.
        a2_hit = check_a2(N, 2, ht_or)
        if a2_hit is not None:
            certs.append(("(a2)", f"2 * {ht_or} = {N} forces the exact value {a2_hit}"))
            best_low = best_up = Bound(a2_hit, "(a2)")
        elif 2 * ht_or < N:
            sharp = upper_b1(N, ht_or)
            certs.append(("(b1) computed", f"exponent {ht_or}, q = 3: upper bound {sharp}"))
            if sharp < best_up.value:
                best_up = Bound(sharp, "(b1) computed height")

    return BoundReport(
        n=n,
        k=k,
        field_tag=field_tag,
        lower=best_low.value,
        lower_method=best_low.method,
        upper=best_up.value,
        upper_method=best_up.method,
        paper_lower=paper_low.value,
        paper_lower_method=paper_low.method,
        paper_upper=paper_up.value,
        paper_upper_method=paper_up.method,
        cat_lower=cat_lower(best_low.value),
        cat_upper=grossman_upper(N, 2),
        paper_cat_lower=cat_lower(paper_low.value),
        exact=best_low.value == best_up.value,
        certificates=tuple(certs),
    )


def prop_d_upper_table_value(n: int, k: int) -> int:
    """The raw table formula before intersecting with the plain degree count."""
    if (n, k) == (6, 3):
        return 3
    N = k * (n - k)
    dec = decompose_n(n)
    s, p, t = dec.s, dec.p, dec.t
    if k == 3:
        if dec.form == "2^s+1":
            return (2 ** (s + 2) - 7) // 3
        if dec.form == "2^s+2":
            return (2 ** (s + 2) - 3) // 3
        if dec.form == "2^s+2^p+1":
            return (2 ** (s + 2) + 5 * 2**p - 8) // 3
        return (2 ** (s + 2) + 5 * 2**p + 3 * t - 7) // 3
    if k == 4:
        if dec.form == "2^s+1":
            return (5 * 2**s - 13) // 3
        if dec.form == "2^s+2":
            return 2 ** (s + 1) - 4
        if n == 2**s + 3:
            return 2 ** (s + 1) - 3
        return (2 ** (s + 1) + 4 * n - 17) // 3
    if dec.form == "2^s+1":
        return ((k + 1) * 2**s + k - k * k - 1) // 3
    return (2 ** (s + 1) + k * n - k * k - 1) // 3
