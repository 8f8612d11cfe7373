"""The dense GF(2) elimination that the sparse `gf2.F2Matrix` is compared with.

Every vector here is a Python int used as a bitmask over its coordinates,
columns included, so a column is as wide as its highest row.  The
elimination is the one `gf2` does on row tuples: columns are taken in their
given order, the pivot is the highest set bit, and a column is XORed only
with the pivot that owns its current highest bit.  `DenseMatrix` answers
`rank`, `kernel_basis`, `solve` and `apply` as `F2Matrix` does, with the
columns as bitmasks, and `reduced_echelon` and `coordinates` are the dense
forms of `gf2.reduced_echelon` and `gf2.coordinates`.
"""

from simpdelta.gf2 import bits


def rows_mask(rows) -> int:
    """The bitmask of a tuple of distinct rows."""
    v = 0
    for r in rows:
        v |= 1 << r
    return v


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


class DenseMatrix:
    """A linear map F2^ncols -> F2^nrows whose columns are bitmasks."""

    def __init__(self, nrows: int, columns: list[int]):
        self.nrows = nrows
        self.columns = list(columns)
        self.pivots = _pivots(self.columns)

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def rank(self) -> int:
        return len(self.pivots)

    def kernel_basis(self) -> list[int]:
        """The null space, each vector the input combination of a zero column."""
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
        return _reduce(target, self.pivots) == 0

    def apply(self, vector: int) -> int:
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
