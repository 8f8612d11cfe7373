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
are reproducible.  ``mod2`` is the one mod-2 sum of a sequence of terms.
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


def _reduce(v: int, combo: int, pivots: dict[int, tuple[int, int]]) -> tuple[int, int]:
    """Clear top bits of ``v`` against the pivot table, tracking the combination.

    Returns ``(v, combo)`` where ``v`` is zero or has a top bit no pivot owns.
    """
    while v:
        pivot = pivots.get(v.bit_length() - 1)
        if pivot is None:
            break
        v ^= pivot[0]
        combo ^= pivot[1]
    return v, combo


class F2Matrix:
    """A linear map F2^ncols -> F2^nrows stored column-wise.

    ``columns[c]`` is the image of the c-th standard basis vector, packed
    into an int over the target coordinates; a bit at or above ``nrows``
    is a layout error and raises ValueError.
    """

    def __init__(self, nrows: int, columns: list[int]):
        self.nrows = nrows
        self.columns = list(columns)
        for c, col in enumerate(self.columns):
            if col >> nrows:
                raise ValueError(f"column {c} has a bit at or above row {nrows}")
        self._pivots: dict[int, tuple[int, int]] | None = None

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def _eliminate(self) -> dict[int, tuple[int, int]]:
        # pivot_bit -> (reduced_column, combination); the combination
        # records which input columns were XORed together, and its top
        # bit is the column that owns the pivot.
        if self._pivots is None:
            pivots: dict[int, tuple[int, int]] = {}
            for c, col in enumerate(self.columns):
                v, combo = _reduce(col, 1 << c, pivots)
                if v:
                    pivots[v.bit_length() - 1] = (v, combo)
            self._pivots = pivots
        return self._pivots

    def rank(self) -> int:
        return len(self._eliminate())

    def kernel_basis(self) -> list[int]:
        """Bitmask vectors over the source coordinates spanning the null space.

        Each column that owns no pivot is reduced again, to zero, against
        the pivot table.  The vectors depend on the elimination order;
        pass them through `reduced_echelon` for a canonical basis.
        """
        pivots = self._eliminate()
        owners = {combo.bit_length() - 1 for _, combo in pivots.values()}
        return [
            _reduce(col, 1 << c, pivots)[1]
            for c, col in enumerate(self.columns)
            if c not in owners
        ]

    def solve(self, target: int) -> int | None:
        """A source vector mapping to ``target``, or None when unsolvable."""
        v, combo = _reduce(target, 0, self._eliminate())
        return combo if v == 0 else None

    def apply(self, vector: int) -> int:
        """Image of ``vector``; coordinates at or past ``ncols`` are ignored."""
        out = 0
        for c in bits(vector & ((1 << self.ncols) - 1)):
            out ^= self.columns[c]
        return out


def reduced_echelon(vectors: list[int]) -> list[int]:
    """Canonical reduced-echelon basis of the span, pivots descending."""
    pivots: dict[int, tuple[int, int]] = {}
    for v in vectors:
        v, _ = _reduce(v, 0, pivots)
        if v:
            pivots[v.bit_length() - 1] = (v, 0)
    basis = sorted(((pbit, vec) for pbit, (vec, _) in pivots.items()), reverse=True)
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
