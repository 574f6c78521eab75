"""The signature (F5) ladder against the shift-everything ladder it replaced.

Both build degree d of the ideal; a subspace has exactly one reduced echelon
form, so equal spans mean equal reduced echelon forms.  The grid below asserts
that, with both forms computed by this file's own Gauss-Jordan elimination,
not by Eliminator.  Golden digests pin the exact rows, owners and ranks of
a few ladders, and every installed row must reduce to zero where it was
installed.  The regularity check and the zero-row bookkeeping of
non-regular generator lists are pinned here too, and so is the pruned
longest-product search against the unpruned walk, and what a ranks-only
ladder keeps, defers and refuses.  CI also runs this file under python -O,
where an assert-based check would vanish.
"""

import gc
import hashlib
import random
import tracemalloc
import weakref
from array import array

import pytest

import cuplength.grassmann as grassmann
from cuplength.gf2linalg import Eliminator
from cuplength.gf2poly import Gf2Polynomial
from cuplength import checks, cli
from cuplength.grassmann import (
    GradedQuotient,
    GrassmannPresentation,
    SizeCapExceeded,
    k3_reduced_quotient,
    longest_monomial_product,
    monomial_basis,
    oriented_quotient,
    w1_adjoined_quotient,
)
from cuplength.bounds import summarize_oriented
from cuplength.heights import height_direct
from cuplength.schubert import SchubertRing

from conftest import ORIENTED_GRID, add_row, installed_rows, shift_bits


def reduced_echelon_form(rows) -> dict[int, int]:
    """Gauss-Jordan over GF(2), written apart from Eliminator: forward
    elimination to rows with distinct lowest bits, then back-substitution from
    the highest pivot down.  Returns pivot -> row, each pivot the lowest bit of
    its row and absent from every other row."""
    rref: dict[int, int] = {}
    for v in rows:
        while v and (p := (v & -v).bit_length() - 1) in rref:
            v ^= rref[p]
        if v:
            rref[p] = v
    mask = sum(1 << p for p in rref)
    for p in sorted(rref, reverse=True):
        # Every row above p is already reduced, so one xor clears each of its pivot bits.
        hits = rref[p] & mask ^ 1 << p
        while hits:
            rref[p] ^= rref[(hits & -hits).bit_length() - 1]
            hits &= hits - 1
    return rref


def shift_everything_ladder(weights, generators, top: int) -> list[dict[int, int]]:
    """The ladder as first written: degree d of the ideal is spanned by every
    reduced echelon row of degree d - w_i times x_i, for every i, plus the
    generators of degree d.  Returns the reduced echelon form of each degree."""
    bases, pivots = [], []
    for d in range(top + 1):
        basis = monomial_basis(weights, d)
        index = {m: i for i, m in enumerate(basis)}
        bases.append(basis)
        elim = Eliminator()
        for pos, w in enumerate(weights):
            if d < w:
                continue
            mapping = [index[m[:pos] + (m[pos] + 1,) + m[pos + 1 :]] for m in bases[d - w]]
            for _, row in sorted(pivots[d - w].items()):
                add_row(elim, shift_bits(row, mapping))
        for g in generators:
            if g and g.homogeneous_degree() == d:
                v = 0
                for t in g.terms:
                    v |= 1 << index[t.exps]
                add_row(elim, v)
        pivots.append(reduced_echelon_form(installed_rows(elim).values()))
    return pivots


RINGS = (
    [(n, 3) for n in range(6, 21)]
    + [(n, 4) for n in range(8, 15)]
    + [(n, 5) for n in range(10, 14)]
)


def quotients(n: int, k: int):
    pres = GrassmannPresentation(n, k)
    yield "unoriented", pres
    yield "oriented", pres.oriented()
    yield "w1-adjoined", w1_adjoined_quotient(n, k)
    if k == 3:
        yield "k3-closed-form", k3_reduced_quotient(n)


@pytest.mark.parametrize("n,k", RINGS)
def test_signature_ladder_matches_shift_everything_ladder(n, k):
    N = k * (n - k)
    for name, quotient in quotients(n, k):
        oracle = shift_everything_ladder(quotient.weights, quotient.generators, N)
        widths = [len(monomial_basis(quotient.weights, d)) for d in range(N + 1)]
        for d in range(N + 1):
            assert quotient.dim(d) == widths[d] - len(oracle[d]), (name, d)
        for d in range(quotient.top + 1):
            assert reduced_echelon_form(installed_rows(quotient._elims[d]).values()) == oracle[d], (name, d)
        # The oracle builds every degree: each one the ladder skipped is zero there too.
        for d in range(quotient.top + 1, N + 1):
            assert len(oracle[d]) == widths[d], (name, d)


def test_last_variable_shift_is_a_plain_bit_shift():
    quotient = GrassmannPresentation(10, 4)
    quotient.extend_to(24)
    last = len(quotient.weights) - 1
    for d in range(24 - quotient.weights[last] + 1):
        bumped = [m[:last] + (m[last] + 1,) for m in monomial_basis(quotient.weights, d)]
        target = monomial_basis(quotient.weights, d + quotient.weights[last])
        start = len(target) - len(bumped)
        # One block: every column of degree d moves by the same offset.
        assert quotient._blocks[d, last] == (array("I", [0]), array("I", [start]))
        assert [target.index(m) for m in bumped] == list(range(start, len(target)))
        full = (1 << len(bumped)) - 1
        assert quotient._shift(full, d, last) == full << start


class CountingEliminator(Eliminator):
    """An Eliminator that counts the rows it was given that reduced to zero."""

    zero_rows = 0

    def add(self, u: int, p: int) -> int:
        installed = super().add(u, p)
        if not installed:
            CountingEliminator.zero_rows += 1
        return installed


@pytest.mark.parametrize(
    "n,k,kind,zero_rows",
    [
        (9, 3, "unoriented", 0),
        (14, 5, "unoriented", 0),
        (9, 3, "oriented", 1),
        (9, 3, "w1-adjoined", 1),
    ],
)
def test_zero_rows_only_where_the_generators_are_not_regular(monkeypatch, n, k, kind, zero_rows):
    monkeypatch.setattr(grassmann, "Eliminator", CountingEliminator)
    monkeypatch.setattr(CountingEliminator, "zero_rows", 0)
    quotient = dict(quotients(n, k))[kind]
    quotient.extend_to(k * (n - k))
    assert CountingEliminator.zero_rows == zero_rows


def test_zero_row_in_a_regular_ladder_raises():
    # The oriented (9, 3) generators are three in two variables, not a
    # regular sequence; declared regular, their first zero row must stop
    # the build, naming the ring, the degree and the generator.
    ctx = GrassmannPresentation(9, 3).oriented()
    quotient = GradedQuotient(ctx.weights, ctx.ideal_gens, top=ctx.N, regular_name="(n, k) = (9, 3)")
    with pytest.raises(RuntimeError, match=r"\(n, k\) = \(9, 3\): a row of degree 11 from generator index 2"):
        quotient.extend_to(ctx.N)


def test_unoriented_ring_declares_its_generators_regular():
    pres = GrassmannPresentation(9, 3)
    assert pres.regular_name == "(n, k) = (9, 3)"
    assert pres.oriented().regular_name is None


def test_signature_rows_are_dropped_once_the_top_degree_is_built():
    pres = GrassmannPresentation(10, 4)
    pres.betti()
    assert pres._sig == {}
    # Later reads need only the finished degrees.
    w2 = Gf2Polynomial.variable(pres.weights, 2)
    assert pres.normal_form(w2**3)


def test_signature_rows_kept_for_the_last_max_weight_degrees():
    quotient = k3_reduced_quotient(12)
    quotient.extend_to(12)
    assert sorted(quotient._sig) == [10, 11, 12]


@pytest.mark.parametrize("n,k,top,zeros", [(9, 3, 8, [1, 7]), (10, 4, 12, [1, 11])])
def test_isolated_zero_degrees_do_not_stop_the_ladder(n, k, top, zeros):
    # A zero degree below the top leaves the build going.
    ctx = GrassmannPresentation(n, k).oriented()
    betti = ctx.betti()
    assert ctx.top == top
    assert [d for d in range(top) if betti[d] == 0] == zeros
    assert betti[top] and not any(betti[top + 1 :])


@pytest.mark.parametrize("n,k", RINGS)
def test_unoriented_ladder_builds_to_the_formal_dimension(n, k):
    pres = GrassmannPresentation(n, k)
    assert pres.betti()[-1] == 1
    assert pres.top == pres.N


@pytest.mark.parametrize("read", ["betti", "longest_product"])
@pytest.mark.parametrize("n,k", [(9, 3), (10, 4), (16, 7), (19, 5)])
def test_stopped_ladder_keeps_only_degrees_up_to_its_top(n, k, read):
    ctx = GrassmannPresentation(n, k).oriented()
    if read == "betti":
        ctx.betti()
    else:
        longest_monomial_product(ctx)
    assert ctx.top < ctx.N
    assert len(ctx._elims) == len(ctx._owner) == ctx.top + 1
    assert ctx._sig == {}
    # Block tables into the dropped degrees go with them.
    assert ctx._blocks
    assert max(d + ctx.weights[p] for d, p in ctx._blocks) <= ctx.top


@pytest.mark.parametrize("first", ["dim", "normal_form", "times", "none"])
def test_reads_above_the_learned_top_are_zero_and_build_nothing(monkeypatch, first):
    ctx = GrassmannPresentation(16, 7).oriented()
    w2 = Gf2Polynomial.variable(ctx.weights, 2)
    reads = {
        "dim": lambda: ctx.dim(60),
        "normal_form": lambda: ctx.normal_form(w2**30),
        "times": lambda: ctx.times(1, 0, w2**30),
    }
    # On a fresh ring each read learns the top (48, of N = 63) while it builds, then answers zero.
    if first != "none":
        assert not reads[first]()
        assert ctx.top == 48
    ctx.betti()
    built = len(ctx._elims), [len(c) for c in ctx._counts], len(ctx._blocks)
    monkeypatch.setattr(ctx, "_build", lambda d: pytest.fail(f"built degree {d}"))
    for read in reads.values():
        assert not read()
    assert ctx.dim(ctx.N) == 0
    assert (len(ctx._elims), [len(c) for c in ctx._counts], len(ctx._blocks)) == built


def test_basis_cap_between_the_stopped_ladder_and_the_formal_dimension(monkeypatch):
    # The oriented (16, 7) ladder stops at its top 48, short of N = 63, so a basis cap wider
    # than every degree up to the top but narrower than degree N no longer refuses it.
    ctx = GrassmannPresentation(16, 7).oriented()
    expected = ctx.betti()
    assert ctx.top == 48
    built = max(len(monomial_basis(ctx.weights, d)) for d in range(ctx.top + 1))
    assert built < len(monomial_basis(ctx.weights, ctx.N))
    monkeypatch.setattr(grassmann, "MAX_BASIS", built)
    capped = GrassmannPresentation(16, 7).oriented()
    assert capped.betti() == expected
    monkeypatch.setattr(grassmann, "MAX_BASIS", built - 1)
    below = GrassmannPresentation(16, 7).oriented()
    with pytest.raises(SizeCapExceeded):
        below.betti()


@pytest.mark.parametrize("n,k", sorted(random.Random(0).sample(ORIENTED_GRID, 16)) + [(16, 7)])
def test_oriented_top_by_duality_matches_the_zero_degree_rule(n, k):
    # The oriented ring learns its top from the unoriented Betti numbers.  A plain quotient of the
    # same generators has no end rule and is built to N: it has the same rows up to that top, and
    # its last nonzero degree is the top.
    assert len(ORIENTED_GRID) == 64
    ctx = GrassmannPresentation(n, k).oriented()
    plain = GradedQuotient(ctx.weights, ctx.ideal_gens, ctx.N)
    dims = [plain.dim(d) for d in range(ctx.N + 1)]
    assert plain.top == ctx.N and len(plain._elims) == ctx.N + 1
    assert ctx.betti() == dims
    assert max(d for d, dim in enumerate(dims) if dim) == ctx.top < ctx.N
    assert len(ctx._elims) == ctx.top + 1
    for d in range(ctx.top + 1):
        assert installed_rows(ctx._elims[d]) == installed_rows(plain._elims[d]), d
    # No degree above the top was built.
    assert len(ctx._counts[-1]) == ctx.top + 1


def test_oriented_16_7_learns_its_top_at_degree_16_and_builds_nothing_above_it(monkeypatch):
    ctx = GrassmannPresentation(16, 7).oriented()
    build, seen = ctx._build, []

    def recording_build(d):
        build(d)
        seen.append((d, ctx.top))

    monkeypatch.setattr(ctx, "_build", recording_build)
    ctx.betti()
    # dim C_16 - (b_16 - b_15) is the first nonzero kernel of w1, on H^15: top = 63 - 15.
    assert seen == [(d, 63) for d in range(16)] + [(d, 48) for d in range(16, 49)]


def test_a_degree_below_the_cokernel_of_w1_raises():
    ctx = GrassmannPresentation(9, 3).oriented()
    # A b_1 one too high asks C_1 for a class that w1 * H^0 misses, but C_1 = 0 < b_1 - b_0.
    ctx._cover_betti[1] += 1
    with pytest.raises(RuntimeError, match="degree 1 has dimension 0, below"):
        ctx.betti()


def unpruned_longest_product(ctx, target=0):
    """The longest-product search as it was before pruning: every reachable
    class at every length, with the same merge rule and scoring.  Kept as an
    oracle for the pruned search.  A target skips every child whose bound
    l + (top - d) // min(weights) is below it, one pruned pass at that length."""
    weights = ctx.weights
    ctx.extend_to(ctx.N)
    elims = ctx._elims
    shift = ctx._shift
    frontier = {(0, 1): tuple(0 for _ in weights)}
    best_exps = tuple(0 for _ in weights)
    best_len = 0
    best_deg = 0

    def score(length, degree):
        return length + (1 if degree < ctx.N else 0)

    length = 0
    while frontier:
        length += 1
        nxt = {}
        for (d, nf), exps in frontier.items():
            for pos, w in enumerate(weights):
                nd = d + w
                if nd > ctx.top or length + (ctx.top - nd) // min(weights) < target:
                    continue
                nnf = elims[nd].reduce(shift(nf, d, pos))
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


# The oriented rings of the bench's sweep workload (sweep 6 12 16, 7 14 16, 5 10 20), and (24, 6).
SWEEP_RINGS = [(n, 6) for n in range(12, 17)] + [(n, 7) for n in range(14, 17)] + [(n, 5) for n in range(10, 21)]


@pytest.mark.parametrize("n,k", SWEEP_RINGS + [(24, 6)])
def test_pruned_search_matches_unpruned_search_on_oriented_rings(n, k):
    ctx = GrassmannPresentation(n, k).oriented()
    assert longest_monomial_product(ctx) == unpruned_longest_product(ctx)


@pytest.mark.parametrize("n,k", sorted(random.Random(1).sample(ORIENTED_GRID, 16)))
def test_capped_search_matches_the_uncapped_walk_on_a_sample_of_the_oriented_grid(n, k):
    # The uncapped walk pruned at the capped answer's length L still finds the true answer: a
    # longer product and its ancestors have uncapped bounds above L.  Unlike the full walk, this
    # pass stays well under a second on the largest rings of the sample.
    ctx = GrassmannPresentation(n, k).oriented()
    result = longest_monomial_product(ctx)
    assert result == unpruned_longest_product(ctx, result[1])


@pytest.mark.parametrize("n,k", [(6, 3), (9, 3), (8, 4), (10, 4), (10, 5), (11, 5)])
def test_pruned_search_matches_unpruned_search_on_unoriented_rings(n, k):
    # Weights start at 1 here: the unit's bound is N itself, and the longest
    # product is shorter, so the walk ends below the bound it starts from.
    pres = GrassmannPresentation(n, k)
    expected = unpruned_longest_product(pres)
    assert expected[1] < pres.N
    assert longest_monomial_product(pres) == expected


def count_reductions(monkeypatch, search, ring):
    calls = []
    reduce = Eliminator.reduce
    with monkeypatch.context() as m:
        m.setattr(Eliminator, "reduce", lambda self, v: calls.append(v) or reduce(self, v))
        result = search(ring)
    return result, len(calls)


@pytest.mark.parametrize(
    "n,k,oriented",
    [(n, k, True) for n, k in SWEEP_RINGS + [(24, 6)]]
    + [(n, k, False) for n, k in [(6, 3), (9, 3), (8, 4), (10, 4), (10, 5), (11, 5)]],
)
def test_search_reduces_as_often_as_one_pass_at_the_answers_length(monkeypatch, n, k, oriented):
    # No level is walked twice: the height h0 of the lightest variable x0, already
    # read here, is kept on the ring, so the capped walk reduces at most the steps of
    # the single pass at the final length pruned by the uncapped bound.
    ring = GrassmannPresentation(n, k)
    ring = ring.oriented() if oriented else ring
    ring.extend_to(ring.N)
    h0 = height_direct(ring, Gf2Polynomial.variable(ring.weights, ring.weights[0])).height
    result, walk = count_reductions(monkeypatch, longest_monomial_product, ring)
    expected, one_pass = count_reductions(monkeypatch, lambda r: unpruned_longest_product(r, result[1]), ring)
    assert result == expected
    assert walk <= one_pass


def test_a_cold_summary_walks_the_powers_of_w2_once(monkeypatch):
    # The summary's height of w2 and the search's cap h0 (w2 is C's lightest variable) read
    # one walk: a cold summary makes the reductions of a cold search alone, and a search
    # after the height makes the walk's ht + 1 fewer.
    summary, cold_summary = count_reductions(monkeypatch, summarize_oriented, oriented_quotient(16, 6))
    _, cold_search = count_reductions(monkeypatch, longest_monomial_product, oriented_quotient(16, 6))
    ring = oriented_quotient(16, 6)
    w2 = Gf2Polynomial.variable(ring.weights, 2)
    record, walk = count_reductions(monkeypatch, lambda r: height_direct(r, w2), ring)
    _, search = count_reductions(monkeypatch, longest_monomial_product, ring)
    assert record.height == summary.ht_w2 == 15
    assert walk == record.height + 1
    assert search == cold_search - walk
    assert cold_summary == cold_search


def test_a_second_height_query_walks_no_power(monkeypatch):
    # The answer is kept on the ring, by class: asking again reduces (or, on the Schubert
    # ring, shifts) nothing, and the ring is still freed by reference counting.
    shifts = []
    shift = SchubertRing._shift
    monkeypatch.setattr(SchubertRing, "_shift", lambda self, *a: shifts.append(a) or shift(self, *a))
    gc.disable()
    try:
        for make in (oriented_quotient, SchubertRing):
            ring = make(10, 4)
            x = Gf2Polynomial.variable(ring.weights, 2) ** 2 + Gf2Polynomial.variable(ring.weights, 4)
            first, walk = count_reductions(monkeypatch, lambda r: height_direct(r, x), ring)
            walked = len(shifts)
            second, again = count_reductions(monkeypatch, lambda r: height_direct(r, x), ring)
            assert first == second and first.height > 0
            assert again == 0 and len(shifts) == walked
            assert walk + walked > 0
            ref = weakref.ref(ring)
            del ring
            assert ref() is None
    finally:
        gc.enable()


def random_oriented_ring(seed: int) -> GradedQuotient:
    """Z2[w2..wk] modulo k random homogeneous generators in the consecutive
    degrees D..D+k-1, as the oriented generators lie, cut off at a random N."""
    rng = random.Random(seed)
    k = rng.randint(3, 5)
    weights = tuple(range(2, k + 1))
    D = rng.randint(3, 9)
    gens = []
    for d in range(D, D + k):
        basis = monomial_basis(weights, d)
        if basis:
            gens.append(Gf2Polynomial(weights, rng.sample(basis, rng.randint(1, len(basis)))))
    N = rng.randint(D + 2, 3 * D + 2)
    ring = GradedQuotient(weights, gens, top=N)
    ring.N = N
    return ring


@pytest.mark.parametrize("seed", range(25))
def test_pruned_search_matches_unpruned_search_on_random_rings(seed):
    ring = random_oriented_ring(seed)
    assert longest_monomial_product(ring) == unpruned_longest_product(ring)


def test_pruned_search_reduces_a_fraction_of_the_states(monkeypatch):
    calls = []
    reduce = Eliminator.reduce
    monkeypatch.setattr(Eliminator, "reduce", lambda self, v: calls.append(v) or reduce(self, v))
    ctx = GrassmannPresentation(16, 6).oriented()
    ctx.extend_to(ctx.N)
    longest_monomial_product(ctx)
    pruned = len(calls)
    unpruned_longest_product(ctx)
    assert 0 < 4 * pruned < len(calls) - pruned


@pytest.mark.parametrize("n,k", RINGS + [(24, 4), (16, 5), (13, 6)])
def test_ranks_only_betti_vector_equals_the_full_ladders(n, k):
    # Equal ranks and owner bytes, degree by degree, pin every pivot and the
    # generator whose row took it, though the ranks-only rows are deferred.
    ranks_only, full = GrassmannPresentation(n, k, ranks_only=True), GrassmannPresentation(n, k)
    assert ranks_only.betti() == full.betti()
    assert ranks_only._ranks == full._ranks
    assert ranks_only._owner == full._owner


@pytest.mark.parametrize("n,k", [(9, 3), (12, 5), (16, 7)])
def test_ranks_only_ladder_over_non_regular_generators_matches_the_full_ladder(monkeypatch, n, k):
    # The oriented generators are not a regular sequence, so rows reduce to
    # zero: in both modes alike, each through add.
    monkeypatch.setattr(grassmann, "Eliminator", CountingEliminator)
    ctx = GrassmannPresentation(n, k).oriented()
    built = {}
    for ranks_only in (True, False):
        monkeypatch.setattr(CountingEliminator, "zero_rows", 0)
        quotient = GradedQuotient(ctx.weights, ctx.ideal_gens, top=ctx.N, ranks_only=ranks_only)
        quotient.extend_to(ctx.N)
        built[ranks_only] = quotient.top, quotient._ranks, quotient._owner, CountingEliminator.zero_rows
    assert built[True] == built[False]
    assert built[True][-1] > 0


def count_shifts(monkeypatch, build) -> int:
    calls = []
    shifted = grassmann._shifted
    with monkeypatch.context() as m:
        m.setattr(grassmann, "_shifted", lambda *args: calls.append(None) or shifted(*args))
        build()
    return len(calls)


def test_ranks_only_ladder_computes_the_bits_of_few_of_its_shifted_rows(monkeypatch):
    # A ranks-only row moved by a table of many runs is deferred, and its bits
    # are computed only if an add reads it: 4,421 shifts against 16,152.
    deferred = count_shifts(monkeypatch, GrassmannPresentation(24, 4, ranks_only=True).betti)
    full = count_shifts(monkeypatch, GrassmannPresentation(24, 4).betti)
    assert 2 * deferred < full


class TrackedEliminator(Eliminator):
    """An Eliminator whose live instances can be listed."""

    live: weakref.WeakSet = weakref.WeakSet()

    def __init__(self):
        super().__init__()
        TrackedEliminator.live.add(self)


@pytest.mark.parametrize("ranks_only,kept", [(True, 0), (False, 21)])
def test_ranks_only_ladder_keeps_no_eliminator_and_only_the_signature_window(monkeypatch, ranks_only, kept):
    monkeypatch.setattr(grassmann, "Eliminator", TrackedEliminator)
    monkeypatch.setattr(TrackedEliminator, "live", weakref.WeakSet())
    ring = GrassmannPresentation(12, 5, ranks_only=ranks_only)
    ring.extend_to(20)
    assert len(TrackedEliminator.live) == kept
    assert len(ring._ranks) == 21
    assert sorted(ring._sig) == [16, 17, 18, 19, 20]


def test_ranks_only_ladder_holds_no_row_after_betti(monkeypatch):
    monkeypatch.setattr(grassmann, "Eliminator", TrackedEliminator)
    monkeypatch.setattr(TrackedEliminator, "live", weakref.WeakSet())
    ring = GrassmannPresentation(12, 5, ranks_only=True)
    betti = ring.betti()
    assert ring._sig == {} and ring._elims == [] and ring._blocks == {}
    assert not TrackedEliminator.live
    assert ring.dim(ring.N) == 1
    # The full ladder keeps its tables for the reads that shift rows, and has the same Betti vector.
    full = GrassmannPresentation(12, 5)
    assert full.betti() == betti and full._blocks


def test_ranks_only_ladder_drops_each_run_table_once_its_degree_is_built():
    ring = GrassmannPresentation(16, 5, ranks_only=True)
    for d in range(ring.N + 1):
        ring.dim(d)
        assert len(ring._ranks) == d + 1
        assert ring._blocks == {}, d


def test_quotients_over_one_variable_set_share_their_run_tables_and_ranks_only_adds_none():
    # Run tables depend only on the weights and the degree: two rings that keep their rows hold
    # the same packed arrays, computed once.  A ranks_only ladder computes lists of its own.
    grassmann._table_store.cache_clear()
    GrassmannPresentation(12, 5, ranks_only=True).betti()
    assert grassmann._table_store.cache_info().currsize == 0
    first, second = GrassmannPresentation(12, 5).oriented(), GrassmannPresentation(14, 5).oriented()
    first.betti()
    second.betti()
    shared = first._blocks.keys() & second._blocks.keys()
    assert len(shared) == len(first._blocks) > 0
    for key in shared:
        starts, targets = first._blocks[key]
        assert type(starts) is type(targets) is array
        assert second._blocks[key][0] is starts and second._blocks[key][1] is targets, key


def test_reads_that_need_rows_refuse_a_ranks_only_ring():
    ring = GrassmannPresentation(9, 3, ranks_only=True)
    w2 = Gf2Polynomial.variable(ring.weights, 2)
    reads = {
        "normal_form": lambda: ring.normal_form(w2),
        "is_zero": lambda: ring.is_zero(w2),
        "times": lambda: ring.times(1, 0, w2),
        "longest_monomial_product": lambda: longest_monomial_product(ring),
    }
    # Refused on a fresh ring and on a built one alike.
    for build in (lambda: None, ring.betti):
        build()
        for read in reads.values():
            with pytest.raises(ValueError, match="ranks_only quotient does not keep"):
                read()


def test_oriented_ring_of_a_ranks_only_ring_keeps_its_rows():
    ctx = GrassmannPresentation(9, 3, ranks_only=True).oriented()
    assert not ctx.ranks_only
    assert height_direct(ctx, Gf2Polynomial.variable(ctx.weights, 2)).height == 4


def test_ranks_only_ladder_still_checks_regularity():
    ctx = GrassmannPresentation(9, 3).oriented()
    quotient = GradedQuotient(
        ctx.weights, ctx.ideal_gens, top=ctx.N, regular_name="(n, k) = (9, 3)", ranks_only=True
    )
    with pytest.raises(RuntimeError, match=r"\(n, k\) = \(9, 3\): a row of degree 11 from generator index 2"):
        quotient.extend_to(ctx.N)


def test_ring_command_and_betti_duality_use_ranks_only_rings(monkeypatch, capsys):
    seen = []
    betti = GrassmannPresentation.betti
    monkeypatch.setattr(GrassmannPresentation, "betti", lambda self: seen.append(self.ranks_only) or betti(self))
    assert cli.main(["ring", "9", "3"]) == 0
    assert seen == [True]
    assert all(ok for _, ok, _ in checks.betti_duality(None))
    assert seen == [True] * 11


def test_betti_duality_fails_a_palindromic_vector_with_the_right_total(monkeypatch):
    betti = GrassmannPresentation.betti

    def shuffled(self):
        # Moves one class from degree 3 to degree 2 and, dually, from N - 3 to N - 2.
        b = betti(self)
        b[2] += 1
        b[-3] += 1
        b[3] -= 1
        b[-4] -= 1
        return b

    monkeypatch.setattr(GrassmannPresentation, "betti", shuffled)
    lines = checks.betti_duality(None)
    assert ("(6,3)", False, "betti vector differs from the Gaussian binomial coefficients") in lines
    assert lines[-1] == ("10 rings", False, "palindromic, correct totals, odd-n height gap")


def traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ranks_only_ladder_peaks_well_below_the_full_ladder():
    full = traced_peak(lambda: GrassmannPresentation(16, 5).betti())
    ranks_only = traced_peak(lambda: GrassmannPresentation(16, 5, ranks_only=True).betti())
    assert ranks_only < 0.6 * full


def ladder_digest(quotient) -> str:
    """sha256 over every built degree's rank, installed rows {p: u << p} and owner bytes."""
    h = hashlib.sha256()
    for d, (rank, elim, owner) in enumerate(zip(quotient._ranks, quotient._elims, quotient._owner)):
        rows = installed_rows(elim)
        h.update(f"{d} {rank} {len(rows)}\n".encode())
        for p in sorted(rows):
            h.update(f"{p} {rows[p]:x}\n".encode())
        h.update(bytes(owner))
    return h.hexdigest()


LADDERS = {
    "unoriented (9, 3)": (lambda: GrassmannPresentation(9, 3), 18),
    "unoriented (13, 6)": (lambda: GrassmannPresentation(13, 6), 42),
    "unoriented (16, 5)": (lambda: GrassmannPresentation(16, 5), 55),
    "oriented (16, 7)": (lambda: GrassmannPresentation(16, 7).oriented(), 63),
    "w1-adjoined (10, 4)": (lambda: w1_adjoined_quotient(10, 4), 24),
    "k3 closed form n = 12": (lambda: k3_reduced_quotient(12), 27),
}

# Digests of the ladder as built before rows at free pivots were stored
# directly: the same rows, pivots, owners and ranks, degree by degree.
GOLDEN_DIGESTS = {
    "unoriented (13, 6)": "58681963a35c1a5ba3451bb82100862d95c5d429b73c6eba35d3371dfa6aa561",
    "unoriented (16, 5)": "9c4540fbe9629ebed43e5bd0c5fa8c75ebc27f4e451c772f49637efccba16039",
    "oriented (16, 7)": "d99cd14628afd73f07dce89a85b5e59a64feb687cdb4aaba8a21f35c9aa3ceab",
    "w1-adjoined (10, 4)": "0b9c5b1fe58df862a1b1f9b834abc6268715b4fe80318beffc2d5d2e168d923c",
    "k3 closed form n = 12": "d3fc48f0b6c537fe19afea72a2615f5b226d2ecc67e8ca5bb714792db1262579",
}


def built_ladder(name: str):
    make, top = LADDERS[name]
    quotient = make()
    quotient.extend_to(top)
    return quotient


@pytest.mark.parametrize("name", GOLDEN_DIGESTS)
def test_ladder_rows_owners_and_ranks_match_golden_digests(name):
    quotient = built_ladder(name)
    assert len(quotient._elims) == len(quotient._owner) == len(quotient._ranks) > 1
    assert ladder_digest(quotient) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", ["unoriented (9, 3)", "oriented (16, 7)", "w1-adjoined (10, 4)", "k3 closed form n = 12"])
def test_every_installed_row_reduces_to_zero_on_every_built_degree(name):
    quotient = built_ladder(name)
    # Degree 0 and the degrees below the first generator install no row; a read there reduces nothing.
    assert not quotient._elims[0]._piv
    for d, elim in enumerate(quotient._elims):
        assert len(elim._piv) == quotient._ranks[d]
        for p, row in installed_rows(elim).items():
            assert elim.reduce(row) == 0, (d, p)
        if not elim._piv:
            assert elim.reduce(1) == 1
