"""Chain complexes over F2 attached to the finite models.

Two complexes per model: the associated complex (differential = sum of
all faces) and the normalized one (degree q part = intersection of the
kernels of d_1 ... d_q, differential d_0).  They compute the same
homology, which the tests and the CLI verify degreewise.  All linear
algebra is exact bit-packed elimination from `gf2`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2 import F2Matrix, bits, coordinates, reduced_echelon
from .models import F2Element, Model


class NotACycleError(Exception):
    """A homology-class query was made for a non-cycle."""


@dataclass
class ChainComplexF2:
    """Nonnegatively graded complex, degrees 0..top.

    ``diff[q]`` lists, per degree-q basis vector, its boundary as a
    bitmask over the degree-(q-1) basis.  Homology is defined for
    q <= top - 1 (the differential into degree top is unknown beyond the
    truncation).
    """

    labels: list[list[str]]
    diff: list[list[int]]
    _solvers: dict[int, F2Matrix] = field(default_factory=dict, repr=False)

    @property
    def top(self) -> int:
        return len(self.labels) - 1

    def dim(self, q: int) -> int:
        return len(self.labels[q]) if 0 <= q <= self.top else 0

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

    def d_squared_is_zero(self) -> bool:
        for q in range(2, self.top + 1):
            lower = self._matrix(q - 1)
            for col in self.diff[q]:
                if lower.apply(col):
                    return False
        return True

    def boundary_vector(self, q: int, vec: int) -> int:
        return self._matrix(q).apply(vec)

    def is_cycle_vector(self, q: int, vec: int) -> bool:
        return self.boundary_vector(q, vec) == 0

    def same_class(self, q: int, v1: int, v2: int) -> bool:
        """Whether two degree-q cycles differ by a boundary."""
        if not self.is_cycle_vector(q, v1):
            raise NotACycleError(f"first argument is not a cycle in degree {q}")
        if not self.is_cycle_vector(q, v2):
            raise NotACycleError(f"second argument is not a cycle in degree {q}")
        if q + 1 > self.top:
            raise ValueError(
                f"boundaries into degree {q} need degree {q + 1} inside the window"
            )
        return self._matrix(q + 1).solve(v1 ^ v2) is not None

    def betti_rows(self) -> list[tuple[int, int, int, int]]:
        return [
            (q, self.dim(q), self.rank_d(q), self.homology_rank(q))
            for q in range(self.top)
        ]

    def betti_csv(self) -> str:
        lines = ["degree,dim,rank_d,betti"]
        for row in self.betti_rows():
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def _index_map(labels) -> dict:
    return {lbl: c for c, lbl in enumerate(labels)}


def associated_complex(model: Model, max_degree: int | None = None) -> ChainComplexF2:
    """Differential = mod-2 sum of all faces, in the model's basis order.

    The complex is built once per model and top degree and then shared:
    repeated calls return the same object, whose eliminated matrices are
    reused by every later query.  Treat it as read-only.
    """
    top = model.max_degree if max_degree is None else max_degree
    memo = vars(model).setdefault("_associated", {})
    if top not in memo:
        memo[top] = _build_associated(model, top)
    return memo[top]


def _build_associated(model: Model, top: int) -> ChainComplexF2:
    labels = [list(model.basis(q)) for q in range(top + 1)]
    diff: list[list[int]] = [[]]
    for q in range(1, top + 1):
        index = _index_map(labels[q - 1])
        cols = []
        for lbl in labels[q]:
            v = 0
            for r in range(q + 1):
                img = model.face_label(r, lbl, q)
                if img is not None:
                    v ^= 1 << index[img]
            cols.append(v)
        diff.append(cols)
    pretty = [[model.label_str(lbl) for lbl in row] for row in labels]
    return ChainComplexF2(pretty, diff)


def normalized_complex(model: Model, max_degree: int | None = None) -> ChainComplexF2:
    """Degree q = intersection of ker d_1 .. ker d_q, differential d_0.

    Basis vectors are canonical reduced-echelon representatives over the
    model basis; their labels are rendered as formal sums.
    """
    top = model.max_degree if max_degree is None else max_degree
    model_labels = [list(model.basis(q)) for q in range(top + 1)]
    nbases = [_face_kernel(model, q, model_labels[q], 1) for q in range(top + 1)]

    def d0(q: int, vec: int) -> int:
        index = _index_map(model_labels[q - 1])
        out = 0
        for c in bits(vec):
            img = model.face_label(0, model_labels[q][c], q)
            if img is not None:
                out ^= 1 << index[img]
        return out

    labels: list[list[str]] = []
    diff: list[list[int]] = [[]]
    for q in range(top + 1):
        labels.append(
            [
                " + ".join(
                    model.label_str(model_labels[q][c]) for c in bits(vec)
                )
                for vec in nbases[q]
            ]
        )
        if q >= 1:
            cols = []
            for vec in nbases[q]:
                coords = coordinates(d0(q, vec), nbases[q - 1])
                if coords is None:
                    raise AssertionError(
                        "d_0 left the normalized subspace; the model actions are broken"
                    )
                cols.append(coords)
            diff.append(cols)
    return ChainComplexF2(labels, diff)


def _face_kernel(model: Model, q: int, labels, first_face: int) -> list[int]:
    """Reduced-echelon basis of the common kernel of d_first_face .. d_q.

    The faces are stacked into one matrix whose columns are the labels;
    the basis vectors are bitmasks over ``labels``.  In degree 0 every
    face lands in the zero space, so the kernel is everything.
    """
    if q == 0:
        return [1 << c for c in range(len(labels))]
    lower = model.basis(q - 1)
    index = _index_map(lower)
    cols = []
    for lbl in labels:
        stacked = 0
        for r in range(first_face, q + 1):
            img = model.face_label(r, lbl, q)
            if img is not None:
                stacked ^= 1 << (index[img] + (r - first_face) * len(lower))
        cols.append(stacked)
    rows = len(lower) * (q + 1 - first_face)
    return reduced_echelon(F2Matrix(rows, cols).kernel_basis())


def _elements(q: int, labels, vectors: list[int]) -> list[F2Element]:
    return [F2Element(q, frozenset(labels[c] for c in bits(v))) for v in vectors]


def normalized_subspace(model: Model, q: int) -> list[F2Element]:
    """Echelon basis of the common kernel of d_1, ..., d_q in degree q."""
    labels = model.basis(q)
    return _elements(q, labels, _face_kernel(model, q, labels, 1))


def cycle_subspace(model: Model, q: int, labels=None) -> list[F2Element]:
    """Echelon basis of the normalized cycles in degree q.

    Restricting to a face-stable subset of basis labels cuts the search
    to that slice of the model.
    """
    labels = list(model.basis(q) if labels is None else labels)
    return _elements(q, labels, _face_kernel(model, q, labels, 0))


def element_vector(model: Model, complex_labels: list[str], x: F2Element) -> int:
    """Coordinates of a model element in an associated-complex basis."""
    index = {lbl: c for c, lbl in enumerate(complex_labels)}
    v = 0
    for lbl in x.support:
        v ^= 1 << index[model.label_str(lbl)]
    return v


def nonzero_face(model: Model, x: F2Element) -> int | None:
    """Index of the first face of x that does not vanish, or None."""
    for r in range(x.degree + 1):
        if model.apply_generator(("d", r), x):
            return r
    return None


def is_cycle(model: Model, x: F2Element, mode: str = "normalized") -> bool:
    """Cycle test straight from the face actions, no complex needed.

    normalized: every face of x vanishes; associated: the face sum does.
    """
    if mode == "normalized":
        return nonzero_face(model, x) is None
    if mode == "associated":
        return not model.boundary(x)
    raise ValueError(f"unknown cycle mode {mode!r}")


def same_class(model: Model, z1: F2Element, z2: F2Element) -> bool:
    """Homologous test in the associated complex of the model."""
    if z1.degree != z2.degree:
        raise NotACycleError("cycles live in different degrees")
    q = z1.degree
    chain = associated_complex(model, min(model.max_degree, q + 1))
    v1 = element_vector(model, chain.labels[q], z1)
    v2 = element_vector(model, chain.labels[q], z2)
    return chain.same_class(q, v1, v2)
