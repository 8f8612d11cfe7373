"""Exact linear algebra over the two-element field.

Vectors are Python ints used as bitmasks (bit c = coordinate c), so row
operations are single XORs on arbitrarily wide rows.

Elimination is the standard column reduction with a pivot table (see
Chen-Kerber, *Persistent homology computation with a twist*, 2011): a
dict maps each pivot bit to its reduced column.  A column is XORed only
with the pivot whose bit is its current highest set bit, until that bit
has no pivot (the column becomes a new pivot) or the column is zero.
Columns are taken in their given order and the highest set bit is the
pivot, so the pivot bits, and every canonical object derived from them,
are reproducible.  Only ``kernel_basis`` records which input columns
were combined.  ``mod2`` is the one mod-2 sum of a sequence of terms.
"""

from __future__ import annotations


def mod2(items) -> frozenset:
    """The items that occur an odd number of times: equal items cancel in pairs."""
    odd = set()
    for x in items:
        if x in odd:
            odd.remove(x)
        else:
            odd.add(x)
    return frozenset(odd)


def _reduce(v: int, pivots: dict[int, int]) -> int:
    """Clear top bits of ``v`` against the pivot table: zero or an unowned top bit."""
    while v and (pivot := pivots.get(v.bit_length() - 1)):
        v ^= pivot
    return v


def _pivots(vectors) -> dict[int, int]:
    """The pivot table of ``vectors``: pivot bit -> reduced vector."""
    pivots: dict[int, int] = {}
    for v in vectors:
        v = _reduce(v, pivots)
        if v:
            pivots[v.bit_length() - 1] = v
    return pivots


class F2Matrix:
    """A linear map F2^ncols -> F2^nrows stored column-wise.

    ``columns[c]`` is the image of the c-th standard basis vector, packed
    into an int over the target coordinates; a bit at or above ``nrows``
    is a layout error and raises ValueError.  Only `kernel_basis` records
    which input columns each reduced column combines.
    """

    def __init__(self, nrows: int, columns: list[int]):
        self.nrows = nrows
        self.columns = list(columns)
        for c, col in enumerate(self.columns):
            if col >> nrows:
                raise ValueError(f"column {c} has a bit at or above row {nrows}")
        self._pivots: dict[int, int] | None = None

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def _eliminate(self) -> dict[int, int]:
        if self._pivots is None:
            self._pivots = _pivots(self.columns)
        return self._pivots

    def rank(self) -> int:
        return len(self._eliminate())

    def kernel_basis(self) -> list[int]:
        """Bitmask vectors over the source coordinates spanning the null space.

        One elimination.  A pivot column's input combination holds only bits
        of pivot columns, so the combination of zero column c has top bit c and
        no other has bit c: the fully reduced echelon basis, top bits ascending.
        """
        pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> (column, combination)
        kernel: list[int] = []
        for c, v in enumerate(self.columns):
            combo = 1 << c
            while v and (pivot := pivots.get(v.bit_length() - 1)):
                v ^= pivot[0]
                combo ^= pivot[1]
            if v:
                pivots[v.bit_length() - 1] = (v, combo)
            else:
                kernel.append(combo)
        return kernel

    def solve(self, target: int) -> bool:
        """Whether ``target`` lies in the column space; no preimage is kept."""
        return _reduce(target, self._eliminate()) == 0

    def apply(self, vector: int) -> int:
        """Image of ``vector``; coordinates at or past ``ncols`` are ignored."""
        out = 0
        for c in bits(vector & ((1 << self.ncols) - 1)):
            out ^= self.columns[c]
        return out


def reduced_echelon(vectors: list[int]) -> list[int]:
    """Canonical reduced-echelon basis of the span, pivots descending."""
    basis = sorted(_pivots(vectors).items(), reverse=True)
    # back-substitute so each pivot bit appears in exactly one vector
    for k in range(len(basis)):
        pbit, pvec = basis[k]
        for j in range(k):
            if basis[j][1] >> pbit & 1:
                basis[j] = (basis[j][0], basis[j][1] ^ pvec)
    return [vec for _, vec in basis]


def coordinates(vector: int, echelon_basis: list[int]) -> int | None:
    """Express a vector in a reduced-echelon basis; None if outside the span."""
    coords = 0
    for k, bvec in enumerate(echelon_basis):
        pbit = bvec.bit_length() - 1
        if vector >> pbit & 1:
            vector ^= bvec
            coords |= 1 << k
    return coords if vector == 0 else None


def bits(vector: int):
    """Indices of the set bits, ascending."""
    while vector:
        low = vector & -vector
        yield low.bit_length() - 1
        vector ^= low
