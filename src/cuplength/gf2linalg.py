"""Bit-packed GF(2) linear algebra: rows are Python ints, bit j is column j."""

from __future__ import annotations


class Eliminator:
    """Incremental echelon accumulator over GF(2): each added row is reduced
    against the current pivots until its lowest bit is a new pivot, then
    installed as it stands.  No row is rewritten; reads reduce against them.

    A row is stored shifted down to its pivot p, its lowest set bit: the row
    v is kept as p -> v >> p, an odd integer, so it costs only the bits from
    its pivot up, and the caller may hand in a row object it keeps elsewhere.
    A caller that knows p is free may store p -> u into _piv itself, as add
    would: rows are only ever added, so reads rebuild their pivot mask
    whenever _piv has grown.  A row may also be deferred, a list [shift,
    source, *args] whose bits are shift(source, *args), source an int or a
    deferred row: add turns each one it reads, the incoming row and each row
    it xors, into bits once and in place, so a row that no add reads is never
    computed.  Only add reads deferred rows; reduce and finalize need ints."""

    __slots__ = ("_piv", "_mask", "_masked")

    def __init__(self):
        self._piv: dict[int, int] = {}
        # Bit p set for each pivot p, built when _piv held _masked rows.
        self._mask = self._masked = 0

    @property
    def rank(self) -> int:
        return len(self._piv)

    def add(self, u: int | list, p: int) -> int:
        """Insert the row u << p, u odd; returns 1 + the pivot it was installed at, or 0 if it was in the span."""
        piv = self._piv
        if u.__class__ is list:
            u = _bits(u)
        while True:
            r = piv.get(p)
            if r is None:
                piv[p] = u
                return p + 1
            if r.__class__ is list:
                piv[p] = r = _bits(r)
            u ^= r
            if not u:
                return 0
            s = (u & -u).bit_length() - 1
            u >>= s
            p += s

    def reduce(self, v: int) -> int:
        """Normal form of v, zero iff v is in the span: the one vector of v + span
        with no pivot bit (a nonzero sum of rows keeps the lowest of their pivots).
        Each xor clears the lowest hit and sets bits only above it, so the loop ends."""
        piv = self._piv
        if self._masked != len(piv):
            # One digit per column up to the highest pivot, read as a binary numeral.
            digits = bytearray(b"0") * (max(piv) + 1)
            for p in piv:
                digits[p] = 49  # ord("1")
            self._mask, self._masked = int(digits[::-1], 2), len(piv)
        mask = self._mask
        hits = v & mask
        while hits:
            p = (hits & -hits).bit_length() - 1
            v ^= piv[p] << p
            hits = v & mask
        return v

    def finalize(self) -> dict[int, int]:
        """Reduced echelon form of the rows, pivot -> row; the rows stay as installed."""
        return {p: 1 << p | self.reduce((u ^ 1) << p) for p, u in self._piv.items()}


def _bits(row: list) -> int:
    """The bits of a deferred row, computed once: the list becomes [bits]."""
    if len(row) > 1:
        shift, source, *args = row
        row[:] = (shift(_bits(source) if source.__class__ is list else source, *args),)
    return row[0]
