"""Sparse GF(2) linear algebra: columns and vectors as ascending index tuples."""

import pytest
from dense_oracle import (DenseMatrix, coordinates as dense_coordinates,
                          reduced_echelon as dense_reduced_echelon, rows_mask)
from hypothesis import example, given, strategies as st

from simpdelta.gf2 import F2Matrix, bits, coordinates, mod2, reduced_echelon


def rows(vector: int) -> tuple:
    """A bitmask as the ascending tuple of its indices."""
    return tuple(bits(vector))


def test_small_matrix():
    # columns (1,1) and (0,1) of a 2x2 matrix
    m = F2Matrix(2, [(0, 1), (1,)])
    assert m.ncols == 2
    assert m.rank() == 2
    assert m.apply((0,)) == (0, 1)
    assert m.apply((0, 1)) == (0,)
    # indices past ncols are ignored
    assert m.apply((0, 2)) == (0, 1)
    assert m.kernel_basis() == []
    assert m.solve((0, 1)) is True
    assert m.solve((0,)) is True


def test_singular_matrix():
    # two equal columns plus a zero column
    m = F2Matrix(3, [(0, 2), (0, 2), ()])
    assert m.rank() == 1
    ker = m.kernel_basis()
    assert len(ker) == 2
    for v in ker:
        assert m.apply(v) == ()
    assert m.solve((1,)) is False


def test_column_past_the_rows_is_refused():
    # rows past the matrix are a layout error, not more rows to eliminate
    with pytest.raises(ValueError, match="column 0 has a row at or above row 2"):
        F2Matrix(2, [(0, 1, 2), (3,)])
    with pytest.raises(ValueError, match="column 1 has a row at or above row 2"):
        F2Matrix(2, [(0, 1), (2,)])
    assert F2Matrix(0, [(), ()]).rank() == 0


def test_bits_roundtrip():
    assert list(bits(0)) == []
    assert list(bits(0b10110)) == [1, 2, 4]
    v = 0
    for b in bits(0b10110):
        v |= 1 << b
    assert v == 0b10110


def test_reduced_echelon_canonical():
    basis = reduced_echelon([(0, 1), (1, 2), (0, 2), (0, 1)])
    assert basis == reduced_echelon(reversed([(0, 1), (1, 2), (0, 2)]))
    # each pivot, the last entry, appears in exactly one basis vector
    pivots = [v[-1] for v in basis]
    assert len(set(pivots)) == len(basis)
    for v in basis:
        for w in basis:
            if w is not v:
                assert v[-1] not in w


def test_coordinates():
    basis = reduced_echelon([(0, 1), (1, 2)])
    assert coordinates((0, 2), basis) is not None
    assert coordinates((0,), basis) is None
    coords = coordinates((0, 2), basis)
    assert tuple(sorted(mod2(r for k in coords for r in basis[k]))) == (0, 2)


@given(st.lists(st.integers(0, 7), max_size=30)
       | st.lists(st.integers(), unique=True, max_size=30))
@example([])
@example([3, 3])
@example([1, 2, 1, 1, 2, 5])
@example(list(range(20)))
def test_mod2_keeps_the_items_of_odd_count(items):
    parity = frozenset(x for x in items if items.count(x) % 2)
    assert mod2(items) == parity
    assert type(mod2(items)) is frozenset


vectors_st = st.lists(st.integers(0, 2**10 - 1), min_size=0, max_size=12)


@given(vectors_st)
def test_rank_nullity(columns):
    m = F2Matrix(10, list(map(rows, columns)))
    assert m.rank() + len(m.kernel_basis()) == len(columns)
    for v in m.kernel_basis():
        assert m.apply(v) == ()


@given(vectors_st, st.integers(0, 2**12 - 1))
def test_solve_consistency(columns, x):
    m = F2Matrix(10, list(map(rows, columns)))
    x &= (1 << len(columns)) - 1
    assert m.solve(m.apply(rows(x))) is True


@given(vectors_st)
def test_echelon_spans(columns):
    basis = reduced_echelon(list(map(rows, columns)))
    for col in columns:
        assert coordinates(rows(col), basis) is not None
    assert len(basis) == F2Matrix(10, list(map(rows, columns))).rank()


# -- differential test against the scan-every-pivot elimination -------------
#
# The reference below reduces each column against every earlier pivot in
# turn, testing one bit per pivot.  It is slow but obviously correct, and it
# is what `gf2` did before the pivot table.  Its vectors are bitmasks, read
# as index tuples at the comparison.


def _scan_eliminate(columns):
    """(pivots, kernel) with pivots as (pivot_bit, reduced_column, combination)."""
    pivots, kernel = [], []
    for c, v in enumerate(columns):
        combo = 1 << c
        for pbit, pval, pcombo in pivots:
            if v >> pbit & 1:
                v ^= pval
                combo ^= pcombo
        if v:
            pivots.append((v.bit_length() - 1, v, combo))
        else:
            kernel.append(combo)
    return pivots, kernel


def _scan_solve(pivots, target):
    v, combo = target, 0
    for pbit, pval, pcombo in pivots:
        if v >> pbit & 1:
            v ^= pval
            combo ^= pcombo
    return combo if v == 0 else None


def _scan_reduced_echelon(vectors):
    basis = []
    for v in vectors:
        for pbit, pvec in basis:
            if v >> pbit & 1:
                v ^= pvec
        if v:
            basis.append((v.bit_length() - 1, v))
    basis.sort(reverse=True)
    for k in range(len(basis)):
        pbit, pvec = basis[k]
        for j in range(k):
            if basis[j][1] >> pbit & 1:
                basis[j] = (basis[j][0], basis[j][1] ^ pvec)
    return [vec for _, vec in basis]


@st.composite
def wide_matrices(draw):
    """Matrices over more than 64 rows with dependent, duplicate and zero columns.

    Each column is the XOR of a subset of a few generators, so the rank is
    low and columns reduce through long chains; a zero column and a copy
    of an earlier column are inserted at drawn positions.
    """
    nrows = draw(st.integers(65, 160))
    gens = draw(
        st.lists(
            st.one_of(
                st.integers(1, 2**nrows - 1),
                st.integers(0, nrows - 1).map(lambda b: 1 << b),
                st.integers(1, 2**8 - 1),
            ),
            min_size=1,
            max_size=10,
        )
    )
    masks = draw(st.lists(st.integers(0, 2 ** len(gens) - 1), min_size=1, max_size=24))
    columns = []
    for mask in masks:
        v = 0
        for k in bits(mask):
            v ^= gens[k]
        columns.append(v)
    columns.insert(draw(st.integers(0, len(columns))), 0)
    copy = columns[draw(st.integers(0, len(columns) - 1))]
    columns.insert(draw(st.integers(0, len(columns))), copy)
    return nrows, columns


@given(wide_matrices(), st.lists(st.integers(0, 2**160 - 1), max_size=4))
def test_elimination_matches_scan_oracle(matrix, xs):
    nrows, columns = matrix
    m = F2Matrix(nrows, list(map(rows, columns)))
    pivots, kernel = _scan_eliminate(columns)
    assert m.kernel_basis() == list(map(rows, kernel))
    assert m.rank() == len(pivots)
    assert reduced_echelon(m.kernel_basis()) == list(map(rows, _scan_reduced_echelon(kernel)))
    # the one-pass kernel is already fully reduced, last entries ascending
    assert m.kernel_basis()[::-1] == reduced_echelon(m.kernel_basis())
    assert len(m.kernel_basis()) == m.ncols - m.rank()
    for v in m.kernel_basis():
        assert m.apply(v) == ()
    # targets inside the image, and arbitrary ones that mostly are not
    full = (1 << len(columns)) - 1
    targets = ([rows_mask(m.apply(rows(x & full))) for x in xs]
               + [x & ((1 << nrows) - 1) for x in xs])
    for target in targets:
        assert type(m.solve(rows(target))) is bool
        assert m.solve(rows(target)) == (_scan_solve(pivots, target) is not None)
    assert (reduced_echelon(list(map(rows, columns)))
            == list(map(rows, _scan_reduced_echelon(columns))))


# -- differential test against the dense bitmask elimination ----------------
#
# The dense oracle's vectors are bitmasks, read as index tuples at the
# comparison.


@st.composite
def sparse_matrices(draw):
    """Matrices of a few rows per column over up to 300 rows, with sums of
    two earlier columns and zero columns, so columns reduce in chains."""
    nrows = draw(st.integers(1, 300))
    column = st.sets(st.integers(0, nrows - 1), max_size=6).map(sorted).map(tuple)
    columns = []
    for kind in draw(st.lists(st.sampled_from("ccccsz"), max_size=40)):
        if kind == "s" and columns:
            # the sum of two earlier columns, or of one with itself: zero
            a = draw(st.sampled_from(columns))
            b = draw(st.sampled_from(columns))
            columns.append(rows(rows_mask(a) ^ rows_mask(b)))
        elif kind == "z":
            columns.append(())
        else:
            columns.append(draw(column))
    return nrows, columns


@given(sparse_matrices() | wide_matrices().map(lambda m: (m[0], list(map(rows, m[1])))),
       st.lists(st.integers(0, 2**300 - 1), max_size=4))
@example((3, [(0, 2), (0, 2), ()]), [0b010, 0b111])
def test_sparse_elimination_matches_the_dense_oracle(matrix, xs):
    nrows, columns = matrix
    m = F2Matrix(nrows, columns)
    dense = DenseMatrix(nrows, list(map(rows_mask, columns)))
    assert m.ncols == dense.ncols
    assert m.rank() == dense.rank()
    assert m.kernel_basis() == list(map(rows, dense.kernel_basis()))
    full = (1 << m.ncols) - 1
    for x in xs:
        assert m.apply(rows(x)) == rows(dense.apply(x))
        # a target in the image, and one that mostly is not
        for target in (dense.apply(x & full), x & ((1 << nrows) - 1)):
            assert m.solve(rows(target)) is dense.solve(target)
    basis = reduced_echelon(columns)
    dense_basis = dense_reduced_echelon(list(map(rows_mask, columns)))
    assert basis == list(map(rows, dense_basis))
    for x in xs:
        # a sum of basis vectors, whose coordinates are its picks, and a
        # vector that mostly lies outside the span
        picks = x & ((1 << len(basis)) - 1)
        inside = 0
        for k in bits(picks):
            inside ^= dense_basis[k]
        assert coordinates(rows(inside), basis) == rows(picks)
        for v in (inside, x & ((1 << nrows) - 1)):
            want = dense_coordinates(v, dense_basis)
            assert coordinates(rows(v), basis) == (None if want is None else rows(want))
