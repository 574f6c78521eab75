"""Bit-packed GF(2) linear algebra: rows are Python ints, bit j is column j."""

from __future__ import annotations


class Eliminator:
    """Incremental echelon accumulator over GF(2): each added row is reduced
    against the current pivots until its lowest bit is a new pivot, then
    installed as it stands.  No row is rewritten; reads reduce against them."""

    __slots__ = ("_piv", "_mask")

    def __init__(self):
        self._piv: dict[int, int] = {}
        self._mask = 0

    @property
    def rank(self) -> int:
        return len(self._piv)

    def add(self, v: int) -> int:
        """Insert a vector; returns the row installed for it, or 0 if it was in the span."""
        piv = self._piv
        while v:
            low = v & -v
            p = low.bit_length() - 1
            r = piv.get(p)
            if r is None:
                piv[p] = v
                self._mask |= low
                return v
            v ^= r
        return 0

    def reduce(self, v: int) -> int:
        """Normal form of v, zero iff v is in the span: the one vector of v + span
        with no pivot bit (a nonzero sum of rows keeps the lowest of their pivots).
        Each xor clears the lowest hit and sets bits only above it, so the loop ends."""
        piv = self._piv
        mask = self._mask
        hits = v & mask
        while hits:
            v ^= piv[(hits & -hits).bit_length() - 1]
            hits = v & mask
        return v

    def finalize(self) -> dict[int, int]:
        """Reduced echelon form of the rows, pivot -> row; the rows stay as installed."""
        return {p: 1 << p | self.reduce(r ^ 1 << p) for p, r in self._piv.items()}
