"""H*(G_k(R^n); Z2) on its Schubert basis, one class sigma_lambda per partition lambda in the k x (n-k)
box.  By the Pieri rule, w_i sigma_lambda is the sum of the sigma_mu, mu in the box, with mu/lambda a
vertical strip of i boxes (Milnor-Stasheff, Characteristic Classes, section 6)."""

from __future__ import annotations

from itertools import combinations

from .gf2poly import Gf2Polynomial
from . import grassmann
from .grassmann import SizeCapExceeded, formal_dimension, product_degree, term_products


def _strips(mask: int, i: int, n: int) -> list[int]:
    """The subset mask with i of its elements moved up by one, each onto a place below n left free."""
    bits = [1 << b for b in range(n - 1) if mask >> b & 1]  # n - 1 has no place above it
    return [mask ^ t | t << 1 for t in map(sum, combinations(bits, i)) if not (mask ^ t) & t << 1]


class SchubertRing:
    """The unoriented ring for (n, k), with the contract of GradedQuotient.times.

    lambda is the k-subset {lambda_r + k - 1 - r} of range(n) as a bit mask, of element sum
    |lambda| + k(k-1)/2; a vertical strip moves elements up by one.  A class of degree d is a
    bit vector over these masks in increasing order, lexicographic in lambda.
    """

    context = "unoriented"

    def __init__(self, n: int, k: int, max_degree: int = grassmann.MAX_DEGREE):
        self.n, self.k, self.N = n, k, formal_dimension(n, k, max_degree)
        self.weights = tuple(range(1, k + 1))
        # _fewer[j][p][s]: the j-subsets of range(p) with element sum s; p - 1 is in one or not.
        self._least = k * (k - 1) // 2
        zero, unit = [0] * (self.N + self._least + 1), [1] + [0] * (self.N + self._least)
        self._fewer = [[unit] * (n + 1)]
        for j in range(1, k + 1):
            row, prev = [zero], self._fewer[-1]
            for p in range(1, n + 1):
                row.append([c + (prev[p - 1][s - p + 1] if s >= p - 1 else 0) for s, c in enumerate(row[-1])])
            self._fewer.append(row)
        self._counts = self._fewer[k][n][self._least :]  # partitions per degree: the Betti numbers

    def _rank(self, mask: int, s: int) -> int:
        """Column of a k-subset of element sum s: the k-subsets of that sum below it."""
        rank = 0
        for table in self._fewer[self.k : 0 : -1]:
            b = mask.bit_length() - 1
            rank, s, mask = rank + table[b][s], s - b, mask ^ 1 << b
        return rank

    def _unrank(self, c: int, s: int) -> int:
        """The k-subset in column c of element sum s."""
        mask = 0
        for table in self._fewer[self.k : 0 : -1]:
            b = next(p for p in range(self.n) if table[p + 1][s] > c)
            c, s, mask = c - table[b][s], s - b, mask | 1 << b
        return mask

    def _shift(self, v: int, d: int, pos: int) -> int:
        """The class v of degree d times w_(pos + 1), by the Pieri rule."""
        i, s, out = pos + 1, d + self._least, 0
        count, cap = self._counts[d + i], grassmann.MAX_BASIS
        if count > cap:
            raise SizeCapExceeded(f"degree {d + i} basis has {count} partitions, cap {cap}")
        # A mask reached from an even number of source columns cancels; each other one is ranked once.
        images: set[int] = set()
        for c in [c for c, bit in enumerate(bin(v)[2:][::-1]) if bit == "1"]:
            images.symmetric_difference_update(_strips(self._unrank(c, s), i, self.n))
        for mu in images:
            out |= 1 << self._rank(mu, s + i)
        return out

    def times(self, v: int, degree: int, x: Gf2Polynomial) -> int:
        """The class v (a vector in the given degree) times x; every class above N is 0."""
        target = product_degree(self.weights, degree, x, v, self._counts[degree] if 0 <= degree <= self.N else 0)
        return term_products(x, v, degree, self._shift) if v and target <= self.N else 0
