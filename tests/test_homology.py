"""GF(2) chain complexes for the finite models.

Betti numbers are pinned to the known homotopy types: the simplex is
contractible, its boundary is a circle, the quotient sphere has one class
on top, and the normalized complex must agree with the associated one.
"""

import sys

import pytest
from diagnostics import d_squared_is_zero
from label_oracle import letter_image, letter_label

from simpdelta import gf2, homology
from simpdelta.gf2 import F2Matrix, bits, coordinates, reduced_echelon
from simpdelta.homology import (
    ChainComplexF2,
    NotACycleError,
    associated_complex,
    cycle_subspace,
    element_vector,
    is_cycle,
    normalized_complex,
    normalized_subspace,
    same_class,
)
from simpdelta.models import (
    algebra_model,
    boundary_delta_model,
    delta_model,
    sphere_model,
)
from simpdelta.words import FACE, face

MODELS = [
    delta_model(1, 3),
    delta_model(2, 4),
    boundary_delta_model(2, 4),
    sphere_model(2, 4),
    sphere_model(3, 5),
    algebra_model(2, 4, 2),
]


def test_frozen_betti_tables():
    assert associated_complex(delta_model(1, 3)).betti_rows() == [
        (0, 2, 0, 1),
        (1, 3, 1, 0),
        (2, 4, 2, 0),
    ]
    assert normalized_complex(delta_model(1, 3)).betti_rows() == [
        (0, 2, 0, 1),
        (1, 1, 1, 0),
        (2, 0, 0, 0),
    ]
    # the boundary of the 2-simplex is a circle
    assert normalized_complex(boundary_delta_model(2, 3)).betti_rows() == [
        (0, 3, 0, 1),
        (1, 3, 2, 1),
        (2, 0, 0, 0),
    ]
    assert associated_complex(sphere_model(2, 4)).betti_rows() == [
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (2, 1, 0, 1),
        (3, 3, 0, 0),
    ]
    assert normalized_complex(sphere_model(2, 4)).betti_rows() == [
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (2, 1, 0, 1),
        (3, 0, 0, 0),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_p2_sphere_algebra_homology_is_the_closed_form(n):
    """SphereAlgebra(n, P=2) is Sym^<=2 of K(F_2, n): its homotopy is the
    unit, the class in degree n and delta_i of it in degree n + i for
    2 <= i <= n (Bousfield 1967; Dwyer 1980), and nothing else up to 2n."""
    model = algebra_model(n, 2 * n + 1, 2)
    want = [int(q == 0 or q == n or n + 2 <= q <= 2 * n) for q in range(2 * n + 1)]
    for complex_ in (associated_complex(model), normalized_complex(model)):
        assert [complex_.homology_rank(q) for q in range(2 * n + 1)] == want


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_complexes_agree(model):
    """Normalized chains compute the same homology with smaller matrices."""
    assoc = associated_complex(model)
    norm = normalized_complex(model)
    assert d_squared_is_zero(assoc)
    assert d_squared_is_zero(norm)
    for q in range(assoc.top):
        assert assoc.homology_rank(q) == norm.homology_rank(q)
        assert norm.dim(q) <= assoc.dim(q)


def test_rank_bounds():
    cc = associated_complex(delta_model(1, 3))
    with pytest.raises(ValueError):
        cc.homology_rank(cc.top)
    with pytest.raises(ValueError):
        cc.homology_rank(-1)


def test_complexes_compare_by_their_differential_alone():
    # the matrices a complex keeps once it answers a rank query do not
    # make it unequal to a complex that answered none
    a = ChainComplexF2([[()], [(0,)], [()]])
    b = ChainComplexF2([[()], [(0,)], [()]])
    assert a == b
    assert a.rank_d(1) == 1 and a.rank_d(2) == 0
    assert a == b and b == a
    assert a != ChainComplexF2([[()], [()], [()]])
    assert a != a.diff
    with pytest.raises(TypeError):
        hash(a)


def test_normalized_subspace():
    dm = delta_model(1, 3)
    sub = normalized_subspace(dm, 1)
    assert [dm.element_str(x) for x in sub] == ["0-0 + 0-1"]
    for x in sub:
        for r in range(1, x.degree + 1):
            assert not dm.apply_word(face(r), x)
    # degree 0 is all of the module
    assert len(normalized_subspace(dm, 0)) == 2


def test_cycle_subspace():
    dm = delta_model(1, 3)
    assert cycle_subspace(dm, 1) == []
    am = algebra_model(2, 4, 2)
    z = am.fundamental_class()
    cycles = cycle_subspace(am, 2)
    strs = {am.element_str(x) for x in cycles}
    assert strs == {"(0-1-2)", "(0-1-2)*(0-1-2)"}
    for x in cycles:
        assert is_cycle(am, x)
    assert any(x == z for x in cycles)


def test_is_cycle_modes():
    dm = delta_model(1, 3)
    edge = dm.element([(0, 1)], 1)
    degenerate = dm.element([(0, 0)], 1)
    assert dm.boundary(edge)
    # both faces of a degenerate edge coincide, so the face sum cancels
    assert not dm.boundary(degenerate)
    assert not is_cycle(dm, degenerate)
    assert not is_cycle(dm, edge)


def test_same_class():
    dm = delta_model(1, 3)
    v0 = dm.element([(0,)], 0)
    v1 = dm.element([(1,)], 0)
    # the simplex is connected, so any two vertices agree in H_0
    assert same_class(dm, v0, v1)
    assert not same_class(dm, v0, dm.zero(0))
    with pytest.raises(NotACycleError):
        same_class(dm, dm.element([(0, 1)], 1), dm.zero(1))
    sm = sphere_model(2, 4)
    top = sm.fundamental_class()
    assert not same_class(sm, top, sm.zero(2))


def test_same_class_argument_errors():
    dm = delta_model(1, 3)
    vertex = dm.element([(0,)], 0)
    edge = dm.element([(0, 1)], 1)
    with pytest.raises(NotACycleError, match="different degrees"):
        same_class(dm, vertex, edge)
    complex_ = associated_complex(dm)
    with pytest.raises(NotACycleError, match="second argument"):
        complex_.same_class(1, (), element_vector(dm, edge))
    # the boundaries into the top degree lie outside the window
    assert complex_.top == 3
    with pytest.raises(ValueError, match="need degree 4 inside the window"):
        complex_.same_class(3, (), ())


def test_element_vector_roundtrip():
    dm = delta_model(1, 3)
    cc = associated_complex(dm)
    x = dm.element([(0, 1), (1, 1)], 1)
    vec = element_vector(dm, x)
    assert len(vec) == 2
    assert cc.is_cycle_vector(1, ()) and not cc.is_cycle_vector(1, vec)
    assert cc.boundary_vector(1, vec) != ()
    # d then d is zero on every basis vector
    for k in range(cc.dim(2)):
        assert cc.boundary_vector(1, cc.boundary_vector(2, (k,))) == ()


def test_associated_complex_is_shared_per_model():
    dm = delta_model(1, 3)
    cc = associated_complex(dm)
    assert associated_complex(dm) is cc
    assert cc.top == dm.max_degree
    # an equal but distinct model builds its own complex
    other = delta_model(1, 3)
    assert associated_complex(other) is not cc
    assert associated_complex(other).diff == cc.diff


def test_normalized_complex_leaves_the_associated_complex_unbuilt():
    dm = delta_model(2, 4)
    normalized_complex(dm)
    assert dm._associated is None


def test_face_kernels_eliminate_once(monkeypatch):
    # `kernel_basis` is already the reduced-echelon basis, so no stacked-face
    # kernel runs a second elimination through `reduced_echelon`
    calls = []
    original = gf2.reduced_echelon

    def count(vectors):
        calls.append(len(vectors))
        return original(vectors)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("simpdelta") and \
                getattr(module, "reduced_echelon", None) is original:
            monkeypatch.setattr(module, "reduced_echelon", count)
    for model in MODELS + [algebra_model(3, 6, 4)]:
        normalized_complex(model)
        for q in range(model.max_degree + 1):
            normalized_subspace(model, q)
            cycle_subspace(model, q)
    assert calls == []


def test_same_class_reads_one_complex_at_every_degree(monkeypatch):
    dm = delta_model(1, 3)
    read = []
    build = homology.associated_complex

    def record(*args):
        read.append(build(*args))
        return read[-1]

    monkeypatch.setattr(homology, "associated_complex", record)
    assert same_class(dm, dm.element([(0,)], 0), dm.element([(1,)], 0))
    assert same_class(dm, dm.zero(2), dm.zero(2))
    assert len(read) == 2 and read[0] is read[1]
    assert read[0].top == dm.max_degree


@pytest.mark.parametrize(
    "make", [lambda: delta_model(1, 3), lambda: algebra_model(2, 5, 2)],
    ids=["Delta(1)", "SphereAlgebra(2, P=2)"],
)
def test_shared_complex_verdicts_match_fresh_build(make):
    model = make()
    fresh = associated_complex(make())
    for q in range(model.max_degree):
        cycles = cycle_subspace(model, q) + [model.zero(q)]
        for z1 in cycles:
            for z2 in cycles:
                v1 = element_vector(model, z1)
                v2 = element_vector(model, z2)
                assert same_class(model, z1, z2) == fresh.same_class(q, v1, v2)
    assert associated_complex(model) is not fresh


# -- the label-string construction, kept as the oracle -----------------------


def _oracle_stacked_faces(model, q, first_face):
    """Faces d_first_face .. d_q of each label, stacked in a loop of its own,
    each column the ascending tuple of its rows."""
    lower = model.basis(q - 1)
    index = {lbl: c for c, lbl in enumerate(lower)}
    cols = []
    for lbl in model.basis(q):
        stacked = 0
        for r in range(first_face, q + 1):
            img = letter_label(model, (FACE, r), lbl, q)
            if img is not None:
                stacked ^= 1 << (index[img] + (r - first_face) * len(lower))
        cols.append(tuple(bits(stacked)))
    return cols


def _oracle_face_kernel(model, q):
    """Common kernel of d_1 .. d_q."""
    if q == 0:
        return [(c,) for c in range(len(model.basis(q)))]
    cols = _oracle_stacked_faces(model, q, 1)
    return reduced_echelon(F2Matrix(len(model.basis(q - 1)) * q, cols).kernel_basis())


def _oracle_normalized_diff(model):
    """Normalized differential: d_0 of each kernel vector, label by label."""
    labels = [model.basis(q) for q in range(model.max_degree + 1)]
    nbases = [_oracle_face_kernel(model, q) for q in range(model.max_degree + 1)]

    def d0(q, vec):
        index = {lbl: c for c, lbl in enumerate(labels[q - 1])}
        out = 0
        for c in vec:
            img = letter_label(model, (FACE, 0), labels[q][c], q)
            if img is not None:
                out ^= 1 << index[img]
        return tuple(bits(out))

    diff = [[()] * len(nbases[0])]
    for q in range(1, model.max_degree + 1):
        diff.append([coordinates(d0(q, vec), nbases[q - 1]) for vec in nbases[q]])
    return diff


def _oracle_betti_rows(diff):
    ranks = [0] + [
        F2Matrix(len(diff[q - 1]), diff[q]).rank() for q in range(1, len(diff))
    ]
    return [
        (q, len(diff[q]), ranks[q], len(diff[q]) - ranks[q] - ranks[q + 1])
        for q in range(len(diff) - 1)
    ]


def _oracle_element_vector(model, x):
    """Match rendered label strings, as element_vector once did."""
    strings = [model.label_str(lbl) for lbl in model.basis(x.degree)]
    index = {s: c for c, s in enumerate(strings)}
    v = 0
    for lbl in x.support:
        v ^= 1 << index[model.label_str(lbl)]
    return tuple(bits(v))


@pytest.mark.parametrize(
    "model",
    MODELS + [
        algebra_model(2, 4, 4),
        algebra_model(2, 4, 3, quotient=True),
        algebra_model(0, 4, 3),
        algebra_model(1, 6, 5),
        algebra_model(3, 6, 4),
        algebra_model(2, 6, 3),
        # its top degree q = n has generators, and degree q - 1 has none
        algebra_model(4, 4, 3),
    ],
    ids=lambda m: m.name,
)
def test_face_rows_match_label_oracle(model):
    """``faces(q)[r]`` is face d_r's row: per degree-q label, the index of
    the oracle's image in the degree-(q-1) basis, -1 where it is none."""
    for q in range(model.max_degree + 1):
        index = {lbl: c for c, lbl in enumerate(model.basis(q - 1))}
        want = tuple(
            [index.get(letter_image(model, (FACE, r), lbl), -1)
             for lbl in model.basis(q)]
            for r in range(q + 1)
        )
        assert model.faces(q) == want, q


@pytest.mark.parametrize(
    "model",
    [algebra_model(2, 5, 2), algebra_model(2, 4, 4),
     algebra_model(3, 5, 3, quotient=True)],
    ids=lambda m: m.name,
)
def test_monomial_indices_enumerate_the_basis(model):
    """The algebra's face table rests on this: index tuples list the basis
    position by position, and the sphere basis is sorted, so sorting
    indices sorts labels."""
    for q in range(model.max_degree + 1):
        gens = model.underlying.basis(q)
        assert list(gens) == sorted(gens)
        monos = [tuple(gens[f] for f in m) for m in model.monomial_indices(q)]
        assert monos == list(model.basis(q)), q


@pytest.mark.parametrize(
    "model",
    MODELS + [algebra_model(2, 5, 2), algebra_model(2, 4, 4)],
    ids=lambda m: f"{m.name}-top{m.max_degree}",
)
def test_label_free_complexes_match_label_oracle(model):
    diff = _oracle_normalized_diff(model)
    norm = normalized_complex(model)
    assert norm.diff == diff
    assert norm.betti_rows() == _oracle_betti_rows(diff)
    assoc = associated_complex(model)
    for q in range(1, model.max_degree + 1):
        # the stacked layout itself: a block shifted by a whole stride keeps
        # every kernel, so only the columns show it
        stride = len(model.basis(q - 1))
        for first_face in (0, 1):
            cols = homology._face_columns(model, q, first_face, stride)
            assert cols == _oracle_stacked_faces(model, q, first_face), (q, first_face)
    for q in range(model.max_degree + 1):
        for c, lbl in enumerate(model.basis(q)):
            x = model.element([lbl], q)
            assert element_vector(model, x) == _oracle_element_vector(model, x)
            if q >= 1:
                boundary = _oracle_element_vector(model, model.boundary(x))
                assert assoc.diff[q][c] == boundary
