"""Exact linear algebra over the two-element field.

A matrix is stored column-wise, each column an ascending tuple of the
rows where it is 1, so a face column costs its q + 1 entries however many
rows the matrix has.  Every vector that crosses the interface (the target
of ``solve``, the argument and value of ``apply``, kernel vectors and the
vectors of ``reduced_echelon`` and ``coordinates``) has the same format:
the ascending tuple of its nonzero coordinates.

Elimination is the standard sparse column reduction with a pivot table
(Chen-Kerber, *Persistent homology computation with a twist*, 2011; Bauer,
*Ripser*, 2021): a dict maps each pivot row to its reduced column, a set
of rows.  A column is XORed (a symmetric difference) only with the pivot
that owns its current largest row, until that row has no pivot (the
column becomes a new pivot) or the column is empty.  Columns are taken in
their given order and the largest row is the pivot, so the pivot rows,
and every canonical object derived from them, are reproducible.  Only
``kernel_basis`` records which input columns were combined.  ``mod2`` is
the one mod-2 sum of a sequence of terms.
"""

from __future__ import annotations

from operator import itemgetter


def mod2(items) -> frozenset:
    """The items that occur an odd number of times: equal items cancel in pairs."""
    odd = set()
    for x in items:
        if x in odd:
            odd.remove(x)
        else:
            odd.add(x)
    return frozenset(odd)


def _reduce(v: set, pivots: dict) -> set:
    """Clear the largest rows of ``v`` against the pivot table: empty or an
    unowned largest row.  ``v`` is changed in place."""
    while v and (pivot := pivots.get(max(v))):
        v ^= pivot
    return v


def _pivots(columns) -> dict:
    """The pivot table of ``columns``, ascending row tuples: pivot row ->
    reduced column, a set of rows.  A column whose largest row has no pivot
    yet is its own reduced column, kept as a frozenset."""
    pivots: dict = {}
    for col in columns:
        if not col:
            continue
        pivot = pivots.get(col[-1])
        if pivot is None:
            pivots[col[-1]] = frozenset(col)
            continue
        v = set(col)
        v ^= pivot
        if v := _reduce(v, pivots):
            pivots[max(v)] = v
    return pivots


class F2Matrix:
    """A linear map F2^ncols -> F2^nrows stored column-wise.

    ``columns[c]`` is the image of the c-th standard basis vector: the
    ascending tuple of the target rows where it is 1.  A row at or above
    ``nrows`` is a layout error and raises ValueError.  Only
    `kernel_basis` records which input columns each reduced column
    combines.
    """

    def __init__(self, nrows: int, columns: list[tuple[int, ...]]):
        self.nrows = nrows
        self.columns = list(columns)
        if max(map(itemgetter(-1), filter(None, self.columns)), default=-1) >= nrows:
            c = next(c for c, col in enumerate(self.columns) if col and col[-1] >= nrows)
            raise ValueError(f"column {c} has a row at or above row {nrows}")
        self._pivots: dict | None = None

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def _eliminate(self) -> dict:
        if self._pivots is None:
            self._pivots = _pivots(self.columns)
        return self._pivots

    def rank(self) -> int:
        return len(self._eliminate())

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Vectors over the source coordinates spanning the null space.

        One elimination.  A pivot column's input combination holds only
        pivot columns, so the combination of empty column c has last entry c
        and no other has entry c: the fully reduced echelon basis, last
        entries ascending.
        """
        # pivot row -> (reduced column, input combination); a column that is
        # its own reduction keeps its tuple, and its combination is (c,)
        pivots: dict = {}
        kernel: list[tuple[int, ...]] = []
        for c, col in enumerate(self.columns):
            if col and col[-1] not in pivots:
                pivots[col[-1]] = (col, (c,))
                continue
            v, combo = set(col), {c}
            while v and (pivot := pivots.get(top := max(v))):
                v.symmetric_difference_update(pivot[0])
                combo.symmetric_difference_update(pivot[1])
            if v:
                pivots[top] = (v, combo)
            else:
                kernel.append(tuple(sorted(combo)))
        return kernel

    def solve(self, target: tuple[int, ...]) -> bool:
        """Whether ``target`` lies in the column space; no preimage is kept."""
        return not _reduce(set(target), self._eliminate())

    def apply(self, vector: tuple[int, ...]) -> tuple[int, ...]:
        """Image of ``vector``; indices at or past ``ncols`` are ignored."""
        out: set = set()
        for c in vector:
            if c >= self.ncols:
                break
            out.symmetric_difference_update(self.columns[c])
        return tuple(sorted(out))


def reduced_echelon(vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Canonical reduced-echelon basis of the span, pivots (last entries)
    descending."""
    pivots = _pivots(vectors)
    basis = [(prow, set(vec)) for prow, vec in sorted(pivots.items(), reverse=True)]
    # back-substitute so each pivot appears in exactly one vector
    for k, (prow, pvec) in enumerate(basis):
        for _, vec in basis[:k]:
            if prow in vec:
                vec ^= pvec
    return [tuple(sorted(vec)) for _, vec in basis]


def coordinates(vector, echelon_basis: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The positions in a reduced-echelon basis that sum to ``vector``, a
    collection of indices; None if it is outside the span."""
    v = set(vector)
    coords = []
    for k, bvec in enumerate(echelon_basis):
        if bvec[-1] in v:
            v.symmetric_difference_update(bvec)
            coords.append(k)
    return None if v else tuple(coords)


def bits(vector: int):
    """Indices of the set bits of an int, ascending: a bitmask as a vector."""
    while vector:
        low = vector & -vector
        yield low.bit_length() - 1
        vector ^= low
