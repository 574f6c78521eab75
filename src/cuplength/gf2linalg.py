"""Bit-packed GF(2) linear algebra: rows are Python ints, bit j is column j."""

from __future__ import annotations


class Eliminator:
    """Incremental reduced-echelon accumulator over GF(2).

    Rows are added one at a time; each is reduced against the current pivots
    until its lowest bit is a new pivot, then installed as it stands.  The
    first reduce() or pivot_rows() after an add back-substitutes, so every
    pivot column appears in exactly one row.
    """

    __slots__ = ("_piv", "_mask", "_final")

    def __init__(self):
        self._piv: dict[int, int] = {}
        self._mask = 0
        self._final = True

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
                self._final = False
                return v
            v ^= r
        return 0

    def reduce(self, v: int) -> int:
        """Normal form of v against the current rows (zero iff v is in the span)."""
        if not self._final:
            self.finalize()
        piv = self._piv
        hits = v & self._mask
        while hits:
            low = hits & -hits
            v ^= piv[low.bit_length() - 1]
            hits ^= low
        return v

    def finalize(self) -> None:
        """Back-substitute so no row has a bit in another row's pivot column."""
        if self._final:
            return
        piv = self._piv
        mask = self._mask
        # Higher pivots first: each row above p is already clear of every other
        # pivot column, so one xor per pivot bit of the row finishes it.
        for p in sorted(piv, reverse=True):
            acc = piv[p]
            hits = acc & mask ^ (1 << p)
            while hits:
                low = hits & -hits
                acc ^= piv[low.bit_length() - 1]
                hits ^= low
            piv[p] = acc
        self._final = True

    def pivot_rows(self) -> dict[int, int]:
        """Snapshot of the pivot -> row map, back-substituted."""
        self.finalize()
        return dict(self._piv)
