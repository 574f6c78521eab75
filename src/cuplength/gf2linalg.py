"""Bit-packed GF(2) linear algebra: rows are Python ints, bit j is column j."""

from __future__ import annotations


class Eliminator:
    """Incremental reduced-echelon accumulator over GF(2).

    Rows are added one at a time; each is reduced against the current pivots
    and either absorbed (linearly dependent) or installed as a new pivot row.
    finalize() back-substitutes so every pivot column appears in exactly one row.
    """

    __slots__ = ("_piv", "_final")

    def __init__(self):
        self._piv: dict[int, int] = {}
        self._final = True

    @property
    def rank(self) -> int:
        return len(self._piv)

    def add(self, v: int) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        piv = self._piv
        while v:
            p = (v & -v).bit_length() - 1
            r = piv.get(p)
            if r is None:
                piv[p] = v
                self._final = False
                return True
            v ^= r
        return False

    def reduce(self, v: int) -> int:
        """Normal form of v against the current rows (zero iff v is in the span)."""
        piv = self._piv
        done = 0
        while True:
            pending = v >> done
            if not pending:
                return v
            q = done + (pending & -pending).bit_length() - 1
            r = piv.get(q)
            if r is None:
                done = q + 1
            else:
                v ^= r

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def finalize(self) -> None:
        """Back-substitute so no row has a bit in another row's pivot column."""
        if self._final:
            return
        piv = self._piv
        for p in sorted(piv, reverse=True):
            v = piv[p]
            tail = v ^ (1 << p)
            acc = v
            while tail:
                low = tail & -tail
                q = low.bit_length() - 1
                tail ^= low
                if q != p and (acc >> q) & 1:
                    r = piv.get(q)
                    if r is not None:
                        acc ^= r
            piv[p] = acc
        self._final = True

    def pivot_rows(self) -> dict[int, int]:
        """Snapshot of the pivot -> row map."""
        return dict(self._piv)
