"""Borel presentations of Grassmann cohomology mod 2 and the oriented reduction.

The unoriented ring is Z2[w1..wk] modulo the ideal generated by the homogeneous
components of 1/(1+w1+...+wk) in degrees n-k+1..n.  Classes on the oriented
double cover pulled back from the unoriented space form the characteristic
subalgebra, computed as the quotient by the same ideal with w1 adjoined; a
monomial in w2..wk is nonzero there iff it is not in I + (w1).
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .gf2linalg import Eliminator
from .gf2poly import Gf2Polynomial, ideal_gens_k3, inverse_series_components


class SizeCapExceeded(ValueError):
    """A ring's formal dimension exceeds its max_degree, or a degree's basis exceeds MAX_BASIS."""


# The default cap on a ring's formal dimension, the top every quotient is built to.
MAX_DEGREE = 400
# The most basis monomials (or partitions) of one degree; read when a degree is built.
MAX_BASIS = 200000


def monomial_basis(weights: tuple[int, ...], degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the given degree, in canonical ascending order.

    Canonical order sorts by the reversed exponent tuple, so multiplying every
    basis element by a fixed variable is order-preserving degree to degree.
    The ladder ranks columns by counting; this is the reference enumeration.
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


def _shifted(u: int, starts, targets, low: int, out: int) -> int:
    """Image of the bit vector u << low under a run table, shifted down by out.

    Run i holds the columns from starts[i] up to the next run's start (the
    last one up to the end of the degree) and moves them, in order, to the
    columns from targets[i] on.  Each step takes the bits of u from the start
    of the run that holds its highest set bit, moves them together and clears
    them, so only runs that hold a bit are visited.  out must not exceed the
    image of the lowest set bit; the ladder passes exactly that image, its
    predicted pivot, and _shift passes low = out = 0.
    """
    image, i = 0, len(starts)
    while u:
        # Bits left lie below the last run visited.
        i = bisect_right(starts, u.bit_length() - 1 + low, 0, i) - 1
        s = starts[i] - low
        if s <= 0:
            # The run holds every bit left, the lowest too.
            return image | u << targets[i] - s - out
        image |= u >> s << targets[i] - out
        u &= (1 << s) - 1
    return image


def _runs(rests, counts, w: int, head: bool) -> tuple[list[int], list[int]]:
    """Run table of a variable of weight w that maps each block of a degree into one block w up.

    rests holds, per nonempty target block in canonical order, the degree
    left to the variables that vary inside it, and counts[r] is a block's
    length at rest r; the source block of the same later exponents has rest
    r - w.  It lands, in order, on the head of its target block or on the
    tail.  Adjacent blocks that move by the same offset form one run.
    """
    starts, targets = [], []
    start = end = 0
    for r in rests:
        length = counts[r]
        n = counts[r - w] if r >= w else 0
        if n:
            target = end if head else end + length - n
            if not starts or target - start != targets[-1] - starts[-1]:
                starts.append(start)
                targets.append(target)
            start += n
        end += length
    return starts, targets


class GradedQuotient:
    """Z2[variables]/(homogeneous ideal), materialized one degree at a time.

    Degree d of the ideal is built as a signature ladder (matrix F5).  The row
    of signature (t, j), t a monomial of degree d - deg g_j, is x_i times the
    row of (t / x_i, j), x_i the last variable of t.  Rows reach the
    eliminator in increasing signature order: generator j ascending, then t
    from its highest column down, because a row's leading term is its lowest
    bit.  So each installed row is only reduced by rows of smaller signature
    and keeps its own, which makes it a valid source for the next degrees.  A
    signature whose t is a leading term of (g_1..g_{j-1}) is skipped, since
    its row would reduce to zero; for a regular sequence no other row does,
    and as many generators as variables with a finite quotient are one, so
    there a zero row raises RuntimeError.  The quotient vanishes above top,
    given (a formal dimension).  Every presentation of C = H/w1*H, H of
    Poincare duality in dimension N with Betti numbers b, lowers it to where
    C ends and drops the degrees above: dim C_d - (b_d - b_(d-1)) is the
    kernel of w1 on H^(d-1), which duality pairs with C^(N-d+1), so the
    first d with a kernel makes top N - d + 1.  A negative kernel raises
    RuntimeError.  Any other quotient is built to the top its caller gives.

    A column is known only by counting: column c of degree d is the monomial
    with c monomials of degree d before it in the canonical order, so ranks,
    widths and run tables all come from _counts.

    A row is kept shifted down to its pivot, as the eliminator holds it, and
    the pivot of x_i times a row is the image of the row's pivot, since run
    tables preserve order.  So a row of the last variable's one-run table is
    the source row object itself, shared by both degrees, with only its
    pivot moved.  A row whose pivot is free is stored there directly, as
    Eliminator.add would store it; only a row whose pivot is taken goes
    through add, and so does every row that reduces to zero.  A row is kept
    in _sig only if a degree up to top reads it.

    A quotient that keeps its rows takes its run tables from _table_store,
    which computes and packs the tables into each degree once for the last
    variable set built, so the rings of one sweep share them.

    ranks_only keeps of a built degree only its rank: its rows live on in
    _sig while a later degree may shift them, no eliminator is kept, and its
    run tables, lists of its own, are dropped once their degree is built, so
    dim works but a read that reduces (normal_form, is_zero, times,
    longest_monomial_product) raises ValueError.  Every pivot is still
    predicted, and every row whose pivot is taken still goes through add
    and is checked as above; but a row that a table of many
    runs moves is deferred (see Eliminator), its bits computed only if add
    reads it.
    """

    def __init__(self, weights, generators, top, ranks_only=False):
        self.weights = tuple(weights)
        self.top = top
        self.ranks_only = ranks_only
        self.generators: tuple[Gf2Polynomial, ...] = tuple(g for g in generators if g)
        for g in self.generators:
            if g.weights != self.weights:
                raise ValueError("generator over a different variable set")
            if g.homogeneous_degree() is None:
                raise ValueError("generators must be homogeneous and nonzero")
        # Per built degree: the rank of its ideal part and, unless ranks_only, its eliminator.
        self._ranks: list[int] = []
        self._elims: list[Eliminator] = []
        # Per variable position p and degree r: the number of monomials of
        # degree r in the variables up to p, for every degree built or given to times.
        self._counts: list[list[int]] = [[] for _ in self.weights]
        # Run tables of multiplication by each variable, for _shift: (source degree, position) ->
        # (starts, targets) as the arrays of _table_store; ranks_only drops its own once their degree is built.
        self._blocks: dict[tuple[int, int], tuple[array, array]] = {}
        # Per degree and pivot column: 1 + the generator whose row installed it, else 0.
        self._owner: list[bytearray] = []
        # Signature rows of the last max(weights) degrees: per generator, the
        # installed row of (t, j) by column of t, shifted down to its pivot as
        # the eliminator holds it (0 where none was installed), and beside it
        # the pivots.  Only the columns of the t a degree up to top reads are kept.
        self._sig: dict[int, list[tuple[list, list[int]] | None]] = {}
        # For a quotient C = H/w1*H, H's Betti numbers b_0..b_N, until _build learns top from them.
        self._cover_betti: list[int] | None = None

    def extend_to(self, degree: int) -> None:
        # Never past top, read again after each degree: the build may have learned it.
        while len(self._ranks) <= degree and not self._vanishes(len(self._ranks)):
            self._build(len(self._ranks))

    def _build(self, d: int) -> None:
        width = self._width(d)
        if width > MAX_BASIS:
            raise SizeCapExceeded(f"degree {d} basis has {width} monomials, cap {MAX_BASIS}")
        tables = self._block_tables(d) if self.ranks_only else _shared_tables(self, d)
        elim = Eliminator()
        piv, lazy = elim._piv, self.ranks_only
        owner = bytearray(width)

        # A row whose t ends in x_p is first read in degree d + min(weights[p:]),
        # which grows with p; the window keeps the columns of the t in x_0..x_last,
        # the variables whose rows some degree up to top reads.
        last = sum(d + min(self.weights[p:]) <= self.top for p in range(len(self.weights))) - 1
        sig: list[tuple[list, list[int]] | None] = []
        for j, g in enumerate(self.generators):
            te = d - g.homogeneous_degree()
            if te < 0:
                sig.append(None)
                continue
            keep = self._counts[last][te] if last >= 0 else 0
            rows, pivots = [0] * keep, [0] * keep
            sig.append((rows, pivots))
            mark = j + 1
            # Batches in increasing signature order: the source rows and pivots, how many
            # of them x_pos maps onto the t ending in x_pos (their first columns, in order,
            # onto those of t from offset on), and x_pos's run table.  Going down pos, then
            # down the source column, visits t from its highest column down.  te = 0 is the
            # generator itself, one row, unshifted.
            if te == 0:
                v = self._vectorize(g, d)
                p = (v & -v).bit_length() - 1
                owner_t, batches = b"\0", [([v >> p], [p], 1, 0, (0,), (0,))]
            else:
                owner_t, batches = self._owner[te], []
                for pos in range(len(self.weights) - 1, -1, -1):
                    w = self.weights[pos]
                    if te >= w:
                        n, offset = self._counts[pos][te - w], self._counts[pos - 1][te] if pos else 0
                        batches.append((*self._sig[d - w][j], n, offset, *tables[d - w, pos]))
            for source, spivots, n, offset, starts, targets in batches:
                # A table of one run (the last variable's, always) moves every row by
                # targets[0]: the row object stays as it is and only its pivot moves.
                lone = targets[0] if len(starts) == 1 else None
                for c in range(n - 1, -1, -1):
                    u, tc = source[c], c + offset
                    # A zero source (skipped, or reduced to zero) has only multiples that would reduce to zero.
                    if u and not 0 < owner_t[tc] <= j:
                        sp = spivots[c]
                        if lone is not None:
                            p = sp + lone
                        else:
                            # Run tables preserve order: the pivot lands where its run sends it.
                            i = bisect_right(starts, sp) - 1
                            p = sp - starts[i] + targets[i]
                            # With no eliminator kept, only add reads a row's bits: defer them.
                            u = [_shifted, u, starts, targets, sp, p] if lazy else _shifted(u, starts, targets, sp, p)
                        if p in piv:
                            # Only here can a row reduce to zero.
                            q = elim.add(u, p)
                            if not q:
                                if len(self.generators) == len(self.weights):
                                    raise RuntimeError(
                                        f"weights {self.weights}: a row of degree {d} from generator index {j} "
                                        "reduced to zero, so the generators are not a regular sequence"
                                    )
                                continue
                            u, p = piv[q - 1], q - 1
                        else:
                            piv[p] = u
                        owner[p] = mark
                        if tc < keep:
                            rows[tc], pivots[tc] = u, p
        self._ranks.append(elim.rank)
        # Only _shift reads the tables into d from here on, and a ranks_only quotient, whose
        # deferred rows hold their own, never calls it.
        if not self.ranks_only:
            self._elims.append(elim)
            self._blocks.update(tables)
        self._owner.append(owner)
        self._sig[d] = sig
        self._sig.pop(d - max(self.weights), None)
        # Learn top from the kernel of w1 on H^(d-1) (see the class docstring).
        if self._cover_betti is not None:
            b, dim = self._cover_betti, width - elim.rank
            step = b[d] - (b[d - 1] if d else 0)
            if dim < step:
                raise RuntimeError(f"degree {d} has dimension {dim}, below b_d - b_(d-1) = {step}")
            if dim > step:
                self._cover_betti, self.top = None, len(b) - d
                del self._ranks[self.top + 1 :], self._elims[self.top + 1 :], self._owner[self.top + 1 :]
                # Nothing reads a run table into a vanished degree.
                self._blocks = {key: t for key, t in self._blocks.items() if key[0] + self.weights[key[1]] <= self.top}
        if self._vanishes(d + 1):
            self._sig.clear()

    def _block_tables(self, d: int) -> dict[tuple[int, int], tuple[list[int], list[int]]]:
        """Run tables of multiplication by each variable into degree d, by (source degree, position).

        In the canonical order, the columns of a degree that share the
        exponents of the variables after x_p form one contiguous block, and
        the blocks come in the canonical order of those later exponents.  For
        p >= 1, x_p sends a block, in order, onto the tail of the block with
        the same later exponents one degree w_p up: the monomials of that
        block with x_p in them.  x_0 keeps the exponent of x_1, so it sends
        each block of the (x_0, x_1) level onto the head of its target; the
        blocks of x_0 alone, single columns, are never listed.  A block's
        length is a monomial count over the variables up to x_p, so the
        tables follow from _counts alone, and each is given as its maximal
        runs (see _runs): the last variable's is one run, a plain <<.
        """
        weights, counts, tables = self.weights, self._counts, {}
        # Degrees left to the variables up to p, one per nonempty block of
        # degree d, in canonical order.
        rests = [d]
        for p in range(len(weights) - 1, 0, -1):
            w = weights[p]
            if d >= w:
                tables[d - w, p] = _runs(rests, counts[p], w, head=False)
            if p > 1:
                below = counts[p - 1]
                rests = [s for r in rests for s in range(r, -1, -w) if below[s]]
        # rests now lists the (x_0, x_1) blocks; with x_0 alone, the one
        # block is the whole degree and x_0 fills its tail.
        if d >= weights[0]:
            level = min(1, len(weights) - 1)
            tables[d - weights[0], 0] = _runs(rests, counts[level], weights[0], head=level == 1)
        return tables

    def _width(self, degree: int) -> int:
        """The columns of a degree up to top, counted with every degree below it, built or not; 0 outside."""
        if self._vanishes(degree):
            return 0
        for d in range(len(self._counts[-1]), degree + 1):
            for p, w in enumerate(self.weights):
                below = self._counts[p - 1][d] if p else int(d == 0)
                self._counts[p].append(below + (self._counts[p][d - w] if d >= w else 0))
        return self._counts[-1][degree]

    def _shift(self, v: int, degree: int, pos: int) -> int:
        """The vector v of the given degree times the variable at pos."""
        return _shifted(v, *self._blocks[degree, pos], 0, 0)

    def _vectorize(self, poly: Gf2Polynomial, degree: int) -> int:
        """One bit per term, at its column.  From the last variable down, with r the degree
        left to x_1..x_p, the monomials before the term that share its exponents after x_p
        but have fewer factors x_p number counts[p][r] - counts[p][r - e_p w_p]: the rest
        are x_p^e_p times the monomials of degree r - e_p w_p."""
        weights, counts = self.weights, self._counts
        v = 0
        for t in poly.terms:
            c, r = 0, degree
            for p in range(len(weights) - 1, 0, -1):
                s = r - t.exps[p] * weights[p]
                c += counts[p][r] - counts[p][s]
                r = s
            v |= 1 << c
        return v

    def _devectorize(self, v: int, degree: int) -> Gf2Polynomial:
        """The terms of the set columns: from the last variable down, the monomials with e
        factors x_p take counts[p - 1][r - e w_p] columns, e = 0, 1, ..., so e_p is the number
        of these runs that lie wholly before the column."""
        weights, counts = self.weights, self._counts
        terms = []
        while v:
            low = v & -v
            c, r = low.bit_length() - 1, degree
            exps = [0] * len(weights)
            for p in range(len(weights) - 1, 0, -1):
                below = counts[p - 1]
                while c >= below[r]:
                    c -= below[r]
                    r -= weights[p]
                    exps[p] += 1
            exps[0] = r // weights[0]
            terms.append(tuple(exps))
            v ^= low
        return Gf2Polynomial(weights, terms)

    def _vanishes(self, degree: int) -> bool:
        return not 0 <= degree <= self.top

    def _need_rows(self, what: str) -> None:
        if self.ranks_only:
            raise ValueError(f"{what} needs the rows of the ladder, which a ranks_only quotient does not keep")

    def _reach(self, degree: int) -> bool:
        """Build the ladder up to degree; False if the quotient is zero there, top as learned."""
        if not self._vanishes(degree):
            self.extend_to(degree)
        return not self._vanishes(degree)

    def dim(self, degree: int) -> int:
        """Dimension of the degree-d component of the quotient."""
        if not self._reach(degree):
            return 0
        return self._counts[-1][degree] - self._ranks[degree]

    def _reduced(self, poly: Gf2Polynomial) -> tuple[int, int]:
        """The reduced vector of a homogeneous polynomial and its degree; (0, 0) for a zero class."""
        self._need_rows("normal_form")
        if poly.weights != self.weights:
            raise ValueError("polynomial over a different variable set")
        if not poly:
            return 0, 0
        d = poly.homogeneous_degree()
        if d is None:
            raise ValueError("normal form requires a homogeneous polynomial")
        if not self._reach(d):
            return 0, 0
        return self._elims[d].reduce(self._vectorize(poly, d)), d

    def normal_form(self, poly: Gf2Polynomial) -> Gf2Polynomial:
        return self._devectorize(*self._reduced(poly))

    def is_zero(self, poly: Gf2Polynomial) -> bool:
        """Ideal membership of a homogeneous polynomial."""
        return not self._reduced(poly)[0]

    def times(self, v: int, degree: int, x: Gf2Polynomial) -> int:
        """Reduced vector of the class v, over the columns of the given degree (none above top), times x."""
        self._need_rows("times")
        # A ring that may still lower its top learns it before v is checked, so a fresh and a
        # built ring refuse the same vectors: reaching v's degree alone may stop short of the
        # degree where top is learned.  Degree 0, of width 1, is never above top.
        if v and degree > 0 and self._cover_betti is not None:
            self.extend_to(self.top)
        target = product_degree(self.weights, degree, x, v, self._width(degree))
        if not (v and self._reach(target)):
            return 0
        return self._elims[target].reduce(term_products(x, v, degree, self._shift))


def _shared_tables(ring: GradedQuotient, d: int) -> dict[tuple[int, int], tuple[array, array]]:
    """The run tables into degree d of a quotient that keeps its rows, packed as arrays, each
    computed once per process: they depend only on the weights and d (see _block_tables)."""
    store = _table_store(ring.weights)
    if d not in store:
        store[d] = {key: (array("I", s), array("I", t)) for key, (s, t) in ring._block_tables(d).items()}
    return store[d]


@lru_cache(maxsize=1)
def _table_store(weights: tuple[int, ...]) -> dict[int, dict]:
    """Run tables by target degree for the last variable set built, shared by its quotients."""
    return {}


def product_degree(weights: tuple[int, ...], degree: int, x: Gf2Polynomial, v: int, width: int) -> int:
    """Degree of v times x, v checked to fit the width columns of its degree and x to be homogeneous over weights."""
    if x.weights != weights:
        raise ValueError("polynomial over a different variable set")
    dx = x.homogeneous_degree()
    if dx is None:
        raise ValueError("multiplication requires a nonzero homogeneous polynomial")
    if v < 0 or v >> width:
        raise ValueError(f"not a vector of degree {degree}: it must lie in [0, 2^{width})")
    return degree + dx


def term_products(x: Gf2Polynomial, v: int, degree: int, shift) -> int:
    """Sum over the terms of x of v times the term, each a chain of shift(vector, degree, position)."""
    acc = 0
    for t in x.terms:
        u, d = v, degree
        for pos, e in enumerate(t.exps):
            for _ in range(e):
                u, d = shift(u, d, pos), d + x.weights[pos]
        acc ^= u
    return acc


def class_height(ring, x: Gf2Polynomial) -> int:
    """Largest c with x^c nonzero in the ring, 0 if x is zero there, for x homogeneous of positive degree:
    the one walk over the powers of a class, through ring.times up to ring.N (a power above N is zero
    without a ladder), kept on the ring by class, so it is walked once per ring and freed with the ring."""
    heights = vars(ring).setdefault("_heights", {})
    if x not in heights:
        # x^c is kept as a vector in degree c * d; the unit is the vector 1 in degree 0.
        d, c, u = x.homogeneous_degree(), 0, ring.times(1, 0, x)
        while u:
            c += 1
            u = ring.times(u, c * d, x) if (c + 1) * d <= ring.N else 0
        heights[x] = c
    return heights[x]


def check_domain(n: int, k: int) -> None:
    """Refuse (n, k) unless n >= 2k >= 6, the range of every bound and closed form."""
    if not (k >= 3 and n >= 2 * k):
        raise ValueError(f"need n >= 2k >= 6, got (n, k) = ({n}, {k})")


def gaussian_binomial(n: int, k: int) -> list[int]:
    """b_0..b_N of G_k(R^n) mod 2, the partitions of each size in a k x (n-k) box: the
    coefficients of the product of (1 - q^(n-k+i)) / (1 - q^i), i = 1..k, as series cut at q^N."""
    N = k * (n - k)
    b = [1] + [0] * N
    for i in range(1, k + 1):
        for d in range(N, n - k + i - 1, -1):
            b[d] -= b[d - (n - k + i)]
        for d in range(i, N + 1):
            b[d] += b[d - i]
    return b


def formal_dimension(n: int, k: int, max_degree: int = MAX_DEGREE) -> int:
    """N = k(n - k), refused unless n >= 2k >= 6 and N <= max_degree."""
    check_domain(n, k)
    if k * (n - k) > max_degree:
        raise SizeCapExceeded(f"formal dimension {k * (n - k)} exceeds cap")
    return k * (n - k)


class GrassmannPresentation(GradedQuotient):
    """The ring Z2[w1..wk]/I for k-planes in n-space, with a lazy degree ladder.

    oriented() gives the characteristic subalgebra of the oriented double
    cover as a ring of the same type over w2..wk; context names which one a
    ring is.  Both vanish above the formal dimension N = k(n-k), so a class
    above N is zero without a ladder.  times is the height loop's product, as
    SchubertRing.times is.  ranks_only (see GradedQuotient) applies to this
    ring only: oriented() keeps its rows.
    """

    def __init__(self, n: int, k: int, max_degree: int = MAX_DEGREE, ranks_only=False):
        N = formal_dimension(n, k, max_degree)
        gens = tuple(inverse_series_components(range(1, k + 1), n, n - k + 1))
        # k generators in k variables with a finite quotient: a regular sequence, so checked.
        super().__init__(range(1, k + 1), gens, top=N, ranks_only=ranks_only)
        self.n, self.k, self.N, self.context, self.ideal_gens = n, k, N, "unoriented", gens
        self._oriented: GrassmannPresentation | None = None

    def betti(self) -> list[int]:
        """Per-degree dimensions b_0..b_N of the quotient ring."""
        return [self.dim(d) for d in range(self.N + 1)]

    def oriented(self) -> "GrassmannPresentation":
        """The oriented characteristic ring C of the same (n, k), made once by oriented_quotient; C's own is C.

        It keeps no reference back to this ring, so a finished ring is freed
        by reference counting rather than by the cyclic garbage collector.
        """
        if self.context != "unoriented":
            return self
        if self._oriented is None:
            self._oriented = oriented_quotient(self.n, self.k, self.N)
        return self._oriented


def oriented_quotient(n: int, k: int, max_degree: int = MAX_DEGREE) -> GrassmannPresentation:
    """C = H/w1*H as Z2[w2..wk] modulo the components n-k+1..n of 1/(1 + w2 + ... + wk), built to its top.

    That series is the image of 1/(1 + w1 + ... + wk) under w1 -> 0, a ring
    map, so its components are the unoriented relations with w1 set to zero,
    and the quotient is the one by I + (w1); no unoriented relation is computed.
    """
    N = formal_dimension(n, k, max_degree)
    weights = tuple(range(2, k + 1))
    gens = tuple(inverse_series_components(weights, n, n - k + 1))
    ring = GrassmannPresentation.__new__(GrassmannPresentation)
    GradedQuotient.__init__(ring, weights, gens, top=N)
    ring._cover_betti = gaussian_binomial(n, k)
    ring.n, ring.k, ring.N, ring.context, ring.ideal_gens = n, k, N, "oriented-characteristic", gens
    return ring


def k3_reduced_quotient(n: int) -> GradedQuotient:
    """Z2[w2,w3] modulo the closed-form three-plane generators: C for k = 3, built to its top."""
    N = formal_dimension(n, 3)
    ring = GradedQuotient((2, 3), ideal_gens_k3(n), N)
    ring._cover_betti = gaussian_binomial(n, 3)
    return ring


def k3_reduced_membership(n: int, x: Gf2Polynomial) -> bool:
    """Ideal membership against the closed-form generator route (k=3 only)."""
    return _last_k3_quotient(n).is_zero(x)


@lru_cache(maxsize=1)
def _last_k3_quotient(n: int) -> GradedQuotient:
    """The quotient of the last membership call, kept for the next call on the same n."""
    return k3_reduced_quotient(n)


def w1_adjoined_quotient(n: int, k: int) -> GradedQuotient:
    """Full-ring quotient by the presentation ideal plus (w1), a second route to C, built to its top."""
    N = formal_dimension(n, k)
    weights = tuple(range(1, k + 1))
    gens = inverse_series_components(weights, n, n - k + 1) + [Gf2Polynomial.variable(weights, 1)]
    ring = GradedQuotient(weights, gens, N)
    ring._cover_betti = gaussian_binomial(n, k)
    return ring


def longest_monomial_product(ctx: GrassmannPresentation) -> tuple[tuple[int, ...], int, int]:
    """Longest nonzero product of oriented classes, scored for the cup-length bound.

    States are quotient classes (degree, reduced vector), extended one
    variable at a time; states of one length with equal vectors merge and
    keep the lexicographically smallest exponent vector.  Returns
    (exponents, length, degree) maximizing length + (1 if degree < N), ties
    broken by larger length, then smaller exponent vector: of the longest
    states, one below N first, then the smallest exponent vector.

    Best-first, capped by the height h0 of the lightest variable x0 (the
    weights ascend), read from the ring's power walk (class_height): x0^(h0+1)
    = 0, so no step past h0 factors x0 is pushed.  With w0 <= w1 the two lightest
    weights, a child of length l in degree d with e0 factors x0 has no
    descendant longer than b = l + a + (R - w0 a) // w1, R = top - d,
    a = min(h0 - e0, R // w0): the most factors that fit in R with at most
    h0 - e0 of them x0, lightest first (a alone with one variable).  Steps
    wait in (b, l) groups, highest b first, then shortest l, and the walk
    stops once the next b is below the deepest length found, L* at the end.
    b never rises from parent to child, so a child's group comes after its
    parent's, and b never falls as e0 falls.  A state's least exponent
    vector is one step from the least vector of its parent state, and has
    the fewest factors x0 of the state's vectors, so by induction on length
    it arrives in the first group that reaches the state, whose merge keeps
    it.  A class of one length has the same descendants whatever its
    exponents, so an arrival at a state already merged is skipped.  Every
    state of length L* and its ancestors have b >= L*, so all are reached,
    with the unpruned walk's exponent vectors.
    """
    ctx._need_rows("longest_monomial_product")
    weights = ctx.weights
    ctx.extend_to(ctx.N)
    elims = ctx._elims
    shift = ctx._shift
    top = ctx.top
    w0 = weights[0]
    # With one variable no second term fits: (R - w0 a) // w1 is 0 for R <= top.
    w1 = weights[1] if len(weights) > 1 else top + 1
    h0 = class_height(ctx, Gf2Polynomial.variable(weights, w0))
    # Per length, the states merged so far; the unit: degree 0 has the single basis monomial 1 and no ideal rows.
    merged = {(0, 1): tuple(0 for _ in weights)}
    levels = {0: merged}
    length = deepest_len = 0
    groups: dict[tuple[int, int], list] = {}
    heap: list[tuple[int, int]] = []
    while True:
        for (d, nf), exps in merged.items():
            for pos, w in enumerate(weights):
                rest, e0 = top - d - w, exps[0] + (pos == 0)
                if rest < 0:
                    break
                if e0 > h0:
                    continue
                a = min(h0 - e0, rest // w0)
                b = length + 1 + a + (rest - w0 * a) // w1
                # A group below the deepest length found is never taken.
                if b < deepest_len:
                    continue
                key = (-b, length + 1)
                group = groups.setdefault(key, [])
                if not group:
                    heapq.heappush(heap, key)
                group.append((d, nf, pos, exps))
        if not heap or -heap[0][0] < deepest_len:
            break
        key = heapq.heappop(heap)
        length = key[1]
        level = levels.setdefault(length, {})
        merged = {}
        for d, nf, pos, exps in groups.pop(key):
            nd = d + weights[pos]
            nnf = elims[nd].reduce(shift(nf, d, pos))
            if nnf and (nd, nnf) not in level:
                nexps = exps[:pos] + (exps[pos] + 1,) + exps[pos + 1 :]
                old = merged.get((nd, nnf))
                if old is None or nexps < old:
                    merged[nd, nnf] = nexps
        level.update(merged)
        if merged:
            deepest_len = max(deepest_len, length)
    _, exps, d = min((d >= ctx.N, exps, d) for (d, _), exps in levels[deepest_len].items())
    return exps, deepest_len, d


RECORD_SCHEMA = 2
_RECORD_KEYS = {"schema", "n", "k", "top", "ht_w2", "longest_product"}


@dataclass(frozen=True)
class OrientedSummary:
    """What the bound assembly reads of the oriented ring C of (n, k), and its cache record.

    top is C's last nonzero degree, ht_w2 the height of w2, and longest a
    longest nonzero product (exponents over w2..wk, length, degree) as
    longest_monomial_product returns it.  ValueError on values that cannot
    belong together, whether they come from a cache record or a caller.
    """

    n: int
    k: int
    ht_w2: int
    longest: tuple[tuple[int, ...], int, int]
    top: int

    def __post_init__(self):
        check_domain(self.n, self.k)
        k, ht, top, N = self.k, self.ht_w2, self.top, self.k * (self.n - self.k)
        exps, length, degree = self.longest
        # A degree-2 cover pulls H^N back to 0 mod 2, so C ends below N.
        if top >= N:
            raise ValueError(f"top = {top}, but C vanishes in degree N = {N}")
        if len(exps) != k - 1 or min(exps) < 0:
            raise ValueError(f"the longest product needs {k - 1} nonnegative exponents")
        if length != sum(exps):
            raise ValueError("the longest product's length is not the sum of its exponents")
        if degree != sum(w * e for w, e in zip(range(2, k + 1), exps)):
            raise ValueError("the longest product's degree is not the degree of its exponents")
        if degree > top:
            raise ValueError(f"the longest product lies in degree {degree}, which has no classes")
        if not 0 <= 2 * ht <= top:
            raise ValueError(f"w2^{ht} lies in degree {2 * ht}, which has no classes")
        # A nonzero w2^a * m forces w2^a != 0, and w2^ht is itself a nonzero product of length ht.
        if not exps[0] <= ht <= length:
            raise ValueError(f"ht_w2 = {ht} is outside [{exps[0]}, {length}] set by the longest product")
        # No relation lies below degree n - k + 1 >= 4, so b_2 = 1 and w2 is nonzero.
        if ht < 1:
            raise ValueError(f"ht_w2 = {ht}, but w2 is nonzero (b_2 = 1)")


def _record_path(cache_dir: str, n: int, k: int) -> str:
    return os.path.join(cache_dir, f"gr_{n}_{k}_oriented.json")


def save_record(cache_dir: str, summary: OrientedSummary) -> str:
    """Atomically write the cache record of a summary; returns the file path."""
    exps, length, degree = summary.longest
    record = {
        "schema": RECORD_SCHEMA,
        "n": summary.n,
        "k": summary.k,
        "top": summary.top,
        "ht_w2": summary.ht_w2,
        "longest_product": [list(exps), length, degree],
    }
    path = _record_path(cache_dir, summary.n, summary.k)
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


def load_record(cache_dir: str, n: int, k: int) -> OrientedSummary | None:
    """The summary cached for (n, k); None on a miss.

    ValueError on (n, k) outside the domain, checked before any file is read,
    on a record that is malformed, of another schema or of another ring, and,
    prefixed with the ring, on values that OrientedSummary refuses.
    """
    check_domain(n, k)
    path = _record_path(cache_dir, n, k)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            record = json.load(fh)
    except ValueError as exc:  # JSON or text decoding
        raise ValueError(f"cache record {path} cannot be decoded: {exc}") from None
    if not isinstance(record, dict) or "schema" not in record:
        raise ValueError(f"unrecognized cache record shape in {path}")
    if record["schema"] != RECORD_SCHEMA:
        raise ValueError(f"unsupported cache schema {record['schema']!r} in {path}")
    if set(record) != _RECORD_KEYS:
        raise ValueError(f"unrecognized cache record shape in {path}")
    if (record["n"], record["k"]) != (n, k):
        raise ValueError(f"cache record {path} does not match its file name")
    top, ht, product = record["top"], record["ht_w2"], record["longest_product"]
    if not (
        isinstance(product, list)
        and len(product) == 3
        and _is_int_list(product[0])
        and _is_int_list([top, ht, *product[1:]])
    ):
        raise ValueError(f"cache record {path} has a field of the wrong type")
    exps, length, degree = product
    try:
        return OrientedSummary(n, k, ht, (tuple(exps), length, degree), top)
    except ValueError as exc:
        raise ValueError(f"cache record for ({n}, {k}): {exc}") from None


def _is_int_list(value) -> bool:
    """A JSON list of integers (booleans and floats excluded)."""
    return isinstance(value, list) and all(type(v) is int for v in value)
