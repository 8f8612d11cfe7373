"""Finite simplicial models: bases, actions, products.

Dimension counts are checked against closed-form binomials and the
simplicial identities are checked exhaustively on every model the rest
of the suite relies on.
"""

import json
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from simpdelta.models import (
    DegreeMismatchError,
    F2Element,
    OutOfRangeError,
    TruncationOverflowError,
    algebra_model,
    boundary_delta_model,
    delta_model,
    dump_model,
    evaluate_em,
    sphere_model,
    tensor,
    verify_simplicial_identities,
)
from simpdelta.transforms import shuffle_map
from simpdelta.words import (
    DEGENERACY,
    FACE,
    Word,
    degeneracy,
    face,
    is_defined,
    parse_word,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

ALL_MODELS = [
    delta_model(1, 4),
    delta_model(2, 4),
    boundary_delta_model(2, 4),
    sphere_model(2, 5),
    sphere_model(3, 6),
    algebra_model(2, 5, 2),
    algebra_model(2, 6, 4, quotient=True),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_simplicial_identities_hold(model):
    assert verify_simplicial_identities(model) == []


def test_dimension_formulas():
    # nondecreasing (q+1)-tuples in {0..n}
    dm = delta_model(2, 4)
    assert [len(dm.basis(q)) for q in range(5)] == [
        math.comb(q + 3, q + 1) for q in range(5)
    ]
    # all but the tuples using every vertex
    bm = boundary_delta_model(2, 4)
    assert [len(bm.basis(q)) for q in range(5)] == [
        math.comb(q + 3, q + 1) - math.comb(q, 2) for q in range(5)
    ]
    sm = sphere_model(3, 6)
    assert [len(sm.basis(q)) for q in range(7)] == [
        math.comb(q, 3) for q in range(7)
    ]


def test_basis_is_lazy_and_cached():
    dm = delta_model(6, 30)
    x = dm.element([tuple(range(7))], 6)
    # high-degree action without ever enumerating high-degree bases
    y = dm.apply_word(parse_word("s8 s5 s0"), x)
    assert y.degree == 9
    assert not dm._basis.get(9)
    with pytest.raises(TruncationOverflowError):
        dm.basis(31)


def test_sphere_is_the_quotient_of_delta():
    dm = delta_model(2, 4)
    sm = sphere_model(2, 4)
    # labels not using every vertex are identified with the basepoint
    assert sm.face_label(0, (0, 1, 2), 2) is None
    assert sm.degen_label(0, (0, 1, 2), 2) == (0, 0, 1, 2)
    for q in range(5):
        full = [lbl for lbl in dm.basis(q) if len(set(lbl)) == 3]
        assert tuple(full) == sm.basis(q)


def test_generator_action_edges():
    dm = delta_model(1, 2)
    v = dm.element([(0,)], 0)
    z = dm.apply_word(face(0), v)
    assert z.degree == -1 and not z
    with pytest.raises(OutOfRangeError):
        dm.apply_word(face(1), v)
    top = dm.element([(0, 0, 1)], 2)
    with pytest.raises(TruncationOverflowError):
        dm.apply_word(degeneracy(0), top)


def test_word_action_absorbs_after_annihilation():
    # the two faces walk 1 -> 0 -> -1, so the word is defined with zero
    # normal form; the model action must not range-check the trailing s3
    # against the degrees the climb back up revisits
    dm = delta_model(1, 4)
    w = parse_word("s3 s0 s0 d0 d0")
    assert is_defined(w, 1)
    out = dm.apply_word(w, dm.element([(0, 1)], 1))
    assert out.degree == 2 and not out
    # an out-of-range letter with no annihilation before it still raises
    with pytest.raises(OutOfRangeError):
        dm.apply_word(parse_word("s3 s0"), dm.element([(0, 1)], 1))


def _oracle_act_by_letter(model, generator, x):
    """Generator-by-generator action: one letter, cancelled mod 2 at once."""
    kind, r = generator
    m = x.degree
    if m < 0:
        return model.zero(m + 1 if kind == DEGENERACY else m - 1)
    if r > m:
        raise OutOfRangeError(generator, m)
    acc: set = set()
    if kind == DEGENERACY:
        if m + 1 > model.max_degree:
            raise TruncationOverflowError(
                f"s{r} pushes degree {m} past max_degree {model.max_degree}"
            )
        for lbl in x.support:
            acc ^= {model.degen_label(r, lbl, m)}
        return F2Element(m + 1, frozenset(acc))
    if m > 0:
        for lbl in x.support:
            img = model.face_label(r, lbl, m)
            if img is not None:
                acc ^= {img}
    return F2Element(m - 1, frozenset(acc))


def _oracle_act_by_word(model, w, x):
    cur = x
    for generator in reversed(w.factors):
        if cur.degree < 0:
            return model.zero(x.degree + w.degree_shift())
        cur = _oracle_act_by_letter(model, generator, cur)
    return cur


def _outcome(act):
    """The image, or the type of the exception the action raised."""
    try:
        return act()
    except (OutOfRangeError, TruncationOverflowError) as exc:
        return type(exc)


@pytest.mark.parametrize("model, word, labels, degree, want", [
    # d0(0-1) = d0(1-1) = 1, so the two images cancel
    (delta_model(1, 4), "d0", [(0, 1), (1, 1)], 1, F2Element(0, frozenset())),
    # the degeneracy is checked even though there is nothing to act on
    (delta_model(1, 4), "s0", [], 4, TruncationOverflowError),
    # the faces reach degree -1, so s3 is absorbed unchecked
    (delta_model(1, 4), "s3 s0 s0 d0 d0", [(0, 1)], 1, F2Element(2, frozenset())),
    # a face out of degree 0 is zero, even on the algebra's unit
    (algebra_model(2, 5, 2), "d0", [()], 0, F2Element(-1, frozenset())),
], ids=["cancel", "empty-overflow", "absorbed", "face-at-degree-0"])
def test_word_action_pinned_cases(model, word, labels, degree, want):
    x = model.element(labels, degree)
    w = parse_word(word)
    assert _outcome(lambda: model.apply_word(w, x)) == want
    assert _outcome(lambda: _oracle_act_by_word(model, w, x)) == want


@settings(max_examples=400)
@given(st.data())
def test_word_action_matches_generator_oracle(data):
    """One pass over the letters equals acting generator by generator."""
    model = data.draw(st.sampled_from(ALL_MODELS), label="model")
    q = data.draw(st.integers(-1, model.max_degree), label="degree")
    basis = model.basis(q)
    labels = data.draw(
        st.lists(st.sampled_from(basis), max_size=6, unique=True)
        if basis
        else st.just([]),
        label="labels",
    )
    letters = data.draw(
        st.lists(
            st.tuples(st.sampled_from((FACE, DEGENERACY)), st.integers(0, q + 2)),
            max_size=5,
        ),
        label="word",
    )
    w = Word(tuple(letters))
    x = model.element(labels, q)
    assert _outcome(lambda: model.apply_word(w, x)) == _outcome(
        lambda: _oracle_act_by_word(model, w, x)
    )


def test_boundary_operator():
    dm = delta_model(2, 3)
    x = dm.element([(0, 1, 2)], 2)
    b = dm.boundary(x)
    assert dm.element_str(b) == "0-1 + 0-2 + 1-2"
    assert not dm.boundary(b)


def test_element_arithmetic():
    dm = delta_model(1, 2)
    a = dm.element([(0, 1)], 1)
    b = dm.element([(0, 0)], 1)
    assert len(a + b) == 2
    assert not a + a
    assert dm.element_str(a + b) == "0-0 + 0-1"
    with pytest.raises(DegreeMismatchError):
        a + dm.element([(0,)], 0)
    assert dm.element_str(dm.zero(1)) == "0"


def test_algebra_basis_and_unit():
    am = algebra_model(2, 5, 2)
    z = am.fundamental_class()
    assert am.basis(2) == ((), ((0, 1, 2),), ((0, 1, 2), (0, 1, 2)))
    assert am.label_str(()) == "1"
    one = am.unit(2)
    assert am.multiply(one, z) == z
    assert am.element_str(am.multiply(z, z)) == "(0-1-2)*(0-1-2)"
    # faces are algebra maps, so they kill any monomial with a dead factor
    assert not am.apply_word(face(0), am.multiply(z, z))
    assert am.apply_word(face(0), am.unit(2)) == am.unit(1)


def test_algebra_product_properties():
    am = algebra_model(2, 6, 4)
    z = am.fundamental_class()
    s0z = am.apply_word(degeneracy(0), z)
    s1z = am.apply_word(degeneracy(1), z)
    a, b, c = s0z, s1z, s0z + s1z
    assert am.multiply(a, b) == am.multiply(b, a)
    assert am.multiply(am.multiply(a, b), c) == am.multiply(a, am.multiply(b, c))
    with pytest.raises(DegreeMismatchError):
        am.multiply(z, s0z)


def test_truncation_semantics():
    window = algebra_model(2, 5, 2)
    quotient = algebra_model(2, 5, 2, quotient=True)
    z2 = window.multiply(window.fundamental_class(), window.fundamental_class())
    with pytest.raises(TruncationOverflowError):
        window.multiply(z2, z2)
    assert not quotient.multiply(z2, z2)
    # within the bound the two semantics agree
    assert quotient.multiply(
        quotient.fundamental_class(), quotient.fundamental_class()
    ) == z2
    with pytest.raises(ValueError):
        algebra_model(2, 5, 1)


def test_tensor_evaluation():
    dm = delta_model(1, 3)
    x = dm.element([(0, 1)], 1)
    out = evaluate_em(shuffle_map(), tensor(x, x), dm, dm)
    assert (out.left_degree, out.right_degree) == (2, 2)
    labels = sorted((dm.label_str(a), dm.label_str(b)) for a, b in out.pairs)
    assert labels == [("0-0-1", "0-1-1"), ("0-1-1", "0-0-1")]
    with pytest.raises(DegreeMismatchError):
        tensor(x, x) + tensor(x, dm.element([(0,)], 0))


def test_model_dump_golden():
    got = dump_model(delta_model(1, 2))
    want = json.loads((GOLDEN / "delta1_model.json").read_text())
    assert got == want
