"""Chain complexes over F2 attached to the finite models.

A complex is held, and compared, as its differential alone: per degree,
one column per basis vector, the ascending tuple of the degree-(q-1)
basis indices in its boundary.  Two complexes per model: the associated
complex (basis = the model basis, differential = sum of all faces),
built once per model for degrees 0..max_degree and kept on it, and the
normalized one, the subcomplex whose degree q part is the intersection
of the kernels of d_1 ... d_q.  On that subcomplex the associated
differential is d_0 (May, *Simplicial Objects in Algebraic Topology*,
§22), so the normalized differential is d_0 alone, read from the face
table.  They compute the same homology, which the tests and the CLI
verify degreewise.  Both read the faces from the model's face table over
basis indices (``Model.faces``, one list per face), not from labels.
All linear algebra is exact sparse elimination from `gf2`, and every
vector over a basis, a column or a cycle, is in its one format: the
ascending tuple of the basis indices where it is 1.
"""

from __future__ import annotations

from .gf2 import F2Matrix, coordinates, mod2
from .models import F2Element, Model
from .words import face


class NotACycleError(Exception):
    """A homology-class query was made for a non-cycle."""


class ChainComplexF2:
    """Nonnegatively graded complex, degrees 0..top, held as its differential.

    ``diff[q]`` lists, per degree-q basis vector, its boundary as the
    ascending tuple of the degree-(q-1) basis indices it meets;
    ``diff[0]`` holds one empty tuple per degree-0 basis vector, so
    ``len(diff[q])`` is the dimension.  Vectors passed to the methods
    are ascending tuples of basis indices, as in `gf2`.
    Homology is defined for q <= top - 1 (the differential into degree
    top is unknown beyond the truncation).
    Complexes are equal when their differentials are, whatever matrices
    they keep for rank and solve; a complex is mutable, so it has no hash.
    """

    def __init__(self, diff: list[list[tuple[int, ...]]]):
        self.diff = diff
        self._solvers: dict[int, F2Matrix] = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.diff == other.diff

    def __repr__(self) -> str:
        return f"ChainComplexF2(diff={self.diff!r})"

    @property
    def top(self) -> int:
        return len(self.diff) - 1

    def dim(self, q: int) -> int:
        return len(self.diff[q]) if 0 <= q <= self.top else 0

    def _matrix(self, q: int) -> F2Matrix:
        if q not in self._solvers:
            nrows = self.dim(q - 1)
            cols = self.diff[q] if 1 <= q <= self.top else []
            self._solvers[q] = F2Matrix(nrows, cols)
        return self._solvers[q]

    def rank_d(self, q: int) -> int:
        """Rank of the differential leaving degree q."""
        if q < 1 or q > self.top:
            return 0
        return self._matrix(q).rank()

    def cycle_rank(self, q: int) -> int:
        return self.dim(q) - self.rank_d(q)

    def homology_rank(self, q: int) -> int:
        if not 0 <= q <= self.top - 1:
            raise ValueError(f"homology defined for degrees 0..{self.top - 1}")
        return self.cycle_rank(q) - self.rank_d(q + 1)

    def boundary_vector(self, q: int, vec: tuple[int, ...]) -> tuple[int, ...]:
        return self._matrix(q).apply(vec)

    def is_cycle_vector(self, q: int, vec: tuple[int, ...]) -> bool:
        return not self.boundary_vector(q, vec)

    def same_class(self, q: int, v1: tuple[int, ...], v2: tuple[int, ...]) -> bool:
        """Whether two degree-q cycles differ by a boundary."""
        if not self.is_cycle_vector(q, v1):
            raise NotACycleError(f"first argument is not a cycle in degree {q}")
        if not self.is_cycle_vector(q, v2):
            raise NotACycleError(f"second argument is not a cycle in degree {q}")
        if q + 1 > self.top:
            raise ValueError(
                f"boundaries into degree {q} need degree {q + 1} inside the window"
            )
        return self._matrix(q + 1).solve(tuple(sorted(set(v1) ^ set(v2))))

    def betti_rows(self) -> list[tuple[int, int, int, int]]:
        return [
            (q, self.dim(q), self.rank_d(q), self.homology_rank(q))
            for q in range(self.top)
        ]


def associated_complex(model: Model) -> ChainComplexF2:
    """Differential = mod-2 sum of all faces, in the model's basis order.

    Built for degrees 0..max_degree on first use and kept on the model:
    repeated calls return the same object, whose eliminated matrices are
    reused by every later query.  Treat it as read-only.
    """
    if model._associated is None:
        diff = [[()] * len(model.basis(0))]
        for q in range(1, model.max_degree + 1):
            diff.append(_face_columns(model, q, 0, 0))
        model._associated = ChainComplexF2(diff)
    return model._associated


def _face_columns(model: Model, q: int, first_face: int, stride: int) -> list[tuple]:
    """Faces d_first_face .. d_q of each degree-q label, one column per label.

    Read off ``model.faces(q)``: a column is the ascending tuple of its
    rows.  Face d_r is placed over the degree-(q-1) basis shifted by
    ``(r - first_face) * stride`` rows: stride dim(q-1) stacks the faces
    (the columns of a face-kernel matrix), so row k * stride + t is face k
    at index t, and stride 0 sums them mod 2 (the associated differential),
    keeping the rows hit an odd number of times.  A zero face (-1) is no
    row.  Sorted, a column's zero faces come first and are cut off, and
    the hits of one row are adjacent, so they cancel pairwise in one pass.
    """
    faces = model.faces(q)[first_face:]
    if stride:
        shifts = range(0, len(faces) * stride, stride)
        return [tuple([s + t for s, t in zip(shifts, row) if t >= 0])
                for row in zip(*faces)]
    cols = []
    for hits in map(sorted, zip(*faces)):
        del hits[:hits.count(-1)]
        odd = []
        for t in hits:
            if odd and odd[-1] == t:
                odd.pop()
            else:
                odd.append(t)
        cols.append(tuple(odd))
    return cols


def normalized_complex(model: Model) -> ChainComplexF2:
    """Degree q = intersection of ker d_1 .. ker d_q, differential d_0.

    Basis vectors are canonical reduced-echelon vectors over the model
    basis.  Every face but d_0 vanishes on them, so the differential is
    d_0 alone, read from ``model.faces(q)[0]`` and expressed in the
    degree-(q-1) basis, one column of basis indices per vector.
    """
    top = model.max_degree
    nbases = [_face_kernel(model, q, 1) for q in range(top + 1)]
    diff = [[()] * len(nbases[0])]
    for q in range(1, top + 1):
        d0 = model.faces(q)[0]
        cols = []
        for vec in nbases[q]:
            image = mod2(d0[c] for c in vec if d0[c] >= 0)
            coords = coordinates(image, nbases[q - 1])
            if coords is None:
                raise AssertionError(
                    "d_0 left the normalized subspace; the model actions are broken"
                )
            cols.append(coords)
        diff.append(cols)
    return ChainComplexF2(diff)


def _face_kernel(model: Model, q: int, first_face: int) -> list[tuple[int, ...]]:
    """Reduced-echelon basis of the common kernel of d_first_face .. d_q.

    The faces are stacked into one matrix whose columns are the degree-q
    labels; its one elimination (`kernel_basis`) gives the basis, pivots
    descending once reversed, as vectors over ``model.basis(q)``.  In
    degree 0 every face lands in the zero space: the kernel is everything.
    """
    if q == 0:
        return [(c,) for c in range(len(model.basis(0)))]
    stride = model.dimension(q - 1)
    cols = _face_columns(model, q, first_face, stride)
    rows = stride * (q + 1 - first_face)
    return F2Matrix(rows, cols).kernel_basis()[::-1]


def _elements(model: Model, q: int, first_face: int) -> list[F2Element]:
    labels = model.basis(q)
    return [
        F2Element(q, frozenset(map(labels.__getitem__, v)))
        for v in _face_kernel(model, q, first_face)
    ]


def normalized_subspace(model: Model, q: int) -> list[F2Element]:
    """Echelon basis of the common kernel of d_1, ..., d_q in degree q."""
    return _elements(model, q, 1)


def cycle_subspace(model: Model, q: int) -> list[F2Element]:
    """Echelon basis of the normalized cycles in degree q.

    These are the elements every face kills, d_0 included: the common
    kernel of d_0, ..., d_q over the whole degree-q basis.
    """
    return _elements(model, q, 0)


def element_vector(model: Model, x: F2Element) -> tuple[int, ...]:
    """The vector of a model element over ``model.basis(x.degree)``, the
    basis of the associated complex in that degree: the sorted indices of
    its labels."""
    index = {lbl: c for c, lbl in enumerate(model.basis(x.degree))}
    return tuple(sorted(map(index.__getitem__, x.support)))


def nonzero_face(model: Model, x: F2Element) -> int | None:
    """Index of the first face of x that does not vanish, or None."""
    for r in range(x.degree + 1):
        if model.apply_word(face(r), x):
            return r
    return None


def is_cycle(model: Model, x: F2Element) -> bool:
    """Normalized cycle test straight from the face actions: every face of
    x vanishes.  The associated test, that the face sum vanishes, is
    ``not model.boundary(x)``.
    """
    return nonzero_face(model, x) is None


def same_class(model: Model, z1: F2Element, z2: F2Element) -> bool:
    """Homologous test in the associated complex of the model."""
    if z1.degree != z2.degree:
        raise NotACycleError("cycles live in different degrees")
    v1, v2 = element_vector(model, z1), element_vector(model, z2)
    return associated_complex(model).same_class(z1.degree, v1, v2)
