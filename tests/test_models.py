"""Finite simplicial models: bases, actions, products.

Dimension counts are checked against closed-form binomials and the
simplicial identities are checked exhaustively on every model the rest
of the suite relies on.
"""

import json
import math
import pathlib
from collections import Counter
from functools import partial
from itertools import chain

import pytest
from diagnostics import dump_model, verify_simplicial_identities
from hypothesis import given, settings, strategies as st
from label_oracle import letter_label

from simpdelta.models import (
    DegreeMismatchError,
    F2Element,
    Model,
    OutOfRangeError,
    TensorElement,
    TruncationOverflowError,
    algebra_model,
    binomial,
    boundary_delta_model,
    delta_model,
    evaluate_em,
    sphere_model,
    tensor,
)
from simpdelta.relations import _chain_map_transform
from simpdelta.transforms import higher_shuffle, shuffle_map
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


def _all_models():
    return [
        delta_model(1, 4),
        delta_model(2, 4),
        boundary_delta_model(2, 4),
        sphere_model(2, 5),
        sphere_model(3, 6),
        algebra_model(2, 5, 2),
        algebra_model(2, 6, 4, quotient=True),
    ]


ALL_MODELS = _all_models()


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


@pytest.mark.parametrize("model", ALL_MODELS + [
    delta_model(0, 3),
    sphere_model(0, 3),
    algebra_model(3, 5, 3),
    algebra_model(1, 4, 5, quotient=True),
], ids=lambda m: m.name)
def test_closed_form_dimension_is_the_basis_size(model):
    assert [model.dimension(q) for q in range(-1, model.max_degree + 1)] == [
        len(model.basis(q)) for q in range(-1, model.max_degree + 1)
    ]


def test_closed_form_dimension_builds_nothing():
    am = algebra_model(7, 15, 2)
    assert am.dimension(15) == 20_714_266
    assert am._basis == {} and am.underlying._basis == {}


def check_capped(count, exact, caps):
    """``count(cap)`` is ``exact`` for no cap and every cap at or over it,
    and in (cap, exact] for every cap below it."""
    assert count(None) == exact
    for cap in caps:
        got = count(cap)
        assert got == exact if exact <= cap else cap < got <= exact, cap


# each module model's count in degree d, by math.comb
MODULE_COUNTS = {
    delta_model: lambda n, d: math.comb(n + d + 1, d + 1),
    boundary_delta_model: lambda n, d: math.comb(n + d + 1, d + 1) - math.comb(d, n),
    sphere_model: lambda n, d: math.comb(d, n),
}


# From the empty boundary of Delta(0) to degrees far past n^2, and counts on
# both sides of the 10^4000 past which a refusal shows a bound. The grids keep
# the names of the log-space estimates they first checked, so their ids stay
# the same; each case now checks the capped count that took their place.
@pytest.mark.parametrize("build", [delta_model, boundary_delta_model, sphere_model])
@pytest.mark.parametrize("n, degree", [
    (0, 0), (0, 5), (1, 0), (1, 1), (2, 7), (3, 2), (5, 12),
    (10, 4_500), (10, 44_989), (10, 44_990), (10, 449_989), (10, 449_990),
    (10, 10**6), (100, 10**9), (1, 10**12), (2, 10**12), (10, 10**9), (3, 10**20),
    (2000, 12000), (3000, 10000), (4000, 12000), (5000, 12000),
    (6000, 14001), (7000, 14001), (10_000, 30_000),
])
def test_ln_dimension_is_the_log_of_the_dimension(build, n, degree):
    model, exact = build(n, degree), MODULE_COUNTS[build](n, degree)
    check_capped(partial(model.dimension, degree), exact,
                 {0, max(exact - 1, 0), exact, 200_000, 10**4000})


@pytest.mark.parametrize("n, degree, poly", [
    (1, 1, 2), (2, 5, 2), (3, 7, 4), (5, 3, 300_000), (1, 1, 199_999),
    (4, 9, 3_000_000), (6000, 12000, 3), (7000, 14001, 2),
])
def test_algebra_ln_dimension_is_the_log_of_the_dimension(n, degree, poly):
    # the last has a sphere count past 4,000 digits, itself over 10^4000
    model = algebra_model(n, degree, poly)
    exact = math.comb(math.comb(degree, n) + poly, poly)
    check_capped(partial(model.dimension, degree), exact,
                 {0, max(exact - 1, 0), exact, 200_000, 10**4000})


@given(st.integers(0, 300), st.integers(-2, 302), st.data())
def test_capped_binomial_is_math_comb(n, k, data):
    # caps at, just below and just over a partial product C(m + i, i),
    # where the loop may stop, and one anywhere
    exact = math.comb(n, k) if k >= 0 else 0
    j = max(min(k, n - k), 0)
    i = data.draw(st.integers(0, j))
    partial_product = math.comb(n - j + i, i)
    caps = {partial_product - 1, partial_product, partial_product + 1,
            data.draw(st.integers(0, 2 * exact + 1))}
    check_capped(partial(binomial, n, k), exact, caps)


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
    top = sm.element([(0, 1, 2)], 2)
    assert letter_label(sm, (FACE, 0), (0, 1, 2), 2) is None
    assert not sm.apply_word(face(0), top)
    assert letter_label(sm, (DEGENERACY, 0), (0, 1, 2), 2) == (0, 0, 1, 2)
    assert sm.apply_word(degeneracy(0), top) == sm.element([(0, 0, 1, 2)], 3)
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
        img = letter_label(model, generator, lbl, m)
        if img is not None:
            acc ^= {img}
    return F2Element(m + 1 if kind == DEGENERACY else m - 1, frozenset(acc))


def _oracle_act_by_word(model, w, x):
    cur = x
    for generator in reversed(w.factors):
        if cur.degree < 0:
            return model.zero(x.degree + w.degree_shift())
        cur = _oracle_act_by_letter(model, generator, cur)
    return cur


def _outcome(act):
    """The image, or what the raised exception says: type, message, fields."""
    try:
        return act()
    except OutOfRangeError as exc:
        return OutOfRangeError, str(exc), exc.generator, exc.degree
    except TruncationOverflowError as exc:
        return TruncationOverflowError, str(exc)


@pytest.mark.parametrize("model, word, labels, degree, want", [
    # d0(0-1) = d0(1-1) = 1, so the two images cancel
    (delta_model(1, 4), "d0", [(0, 1), (1, 1)], 1, F2Element(0, frozenset())),
    # the degeneracy is checked even though there is nothing to act on
    (delta_model(1, 4), "s0", [], 4,
     (TruncationOverflowError, "s0 pushes degree 4 past max_degree 4")),
    # the faces reach degree -1, so s3 is absorbed unchecked
    (delta_model(1, 4), "s3 s0 s0 d0 d0", [(0, 1)], 1, F2Element(2, frozenset())),
    # a face out of degree 0 is zero, even on the algebra's unit
    (algebra_model(2, 5, 2), "d0", [()], 0, F2Element(-1, frozenset())),
    # ... and as the last letter of a longer word
    (delta_model(1, 4), "d0 d1", [(0, 1)], 1, F2Element(-1, frozenset())),
    (delta_model(2, 4), "id", [(0, 1, 2), (0, 0, 1)], 2,
     F2Element(2, frozenset({(0, 1, 2), (0, 0, 1)}))),
    # one word at one degree on two models: only the second overflows, so
    # a plan made for the first must not serve the second
    (delta_model(1, 4), "s0 s0", [(0, 1)], 1,
     F2Element(3, frozenset({(0, 0, 0, 1)}))),
    (delta_model(1, 2), "s0 s0", [(0, 1)], 1,
     (TruncationOverflowError, "s0 pushes degree 2 past max_degree 2")),
    (delta_model(1, 4), "s3 s0", [(0, 1)], 1,
     (OutOfRangeError, "s3 is not defined on degree 2", (DEGENERACY, 3), 2)),
    # one walk, letter by letter: the first failing letter decides, and
    # within a letter the range check comes before the truncation check
    (delta_model(1, 2), "d5 s0", [(0, 0, 1)], 2,
     (TruncationOverflowError, "s0 pushes degree 2 past max_degree 2")),
    (delta_model(1, 2), "s0 d5", [(0, 0, 1)], 2,
     (OutOfRangeError, "d5 is not defined on degree 2", (FACE, 5), 2)),
    (delta_model(1, 2), "s5", [(0, 0, 1)], 2,
     (OutOfRangeError, "s5 is not defined on degree 2", (DEGENERACY, 5), 2)),
    # a face can reverse the order of two factors, so the image is re-sorted
    (algebra_model(2, 5, 2), "d1", [((0, 0, 1, 2, 2), (0, 1, 1, 1, 2))], 4,
     F2Element(3, frozenset({((0, 1, 1, 2), (0, 1, 2, 2))}))),
], ids=["cancel", "empty-overflow", "absorbed", "face-at-degree-0",
        "last-face-at-degree-0", "identity", "roomy", "tight", "out-of-range",
        "overflow-first", "out-of-range-first", "range-before-overflow",
        "algebra-resort"])
def test_word_action_pinned_cases(model, word, labels, degree, want):
    x = model.element(labels, degree)
    w = parse_word(word)
    assert _outcome(lambda: _oracle_act_by_word(model, w, x)) == want
    for plan in ("cold", "cached"):
        assert _outcome(lambda: model.apply_word(w, x)) == want, plan


@settings(max_examples=400)
@given(st.data())
def test_word_action_matches_generator_oracle(data):
    """One pass over the letters equals acting generator by generator."""
    index = data.draw(st.integers(0, len(ALL_MODELS) - 1), label="model")
    model = ALL_MODELS[index]
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
    want = _outcome(lambda: _oracle_act_by_word(model, w, x))
    # a fresh model compiles the word on the first call, reuses it on the second
    fresh = _all_models()[index]
    for plan in ("cold", "cached"):
        assert _outcome(lambda: fresh.apply_word(w, x)) == want, plan


@pytest.mark.parametrize("word", ["d5 s0", "s0 d5"])
def test_failing_plan_raises_a_new_exception_each_call(word):
    model = delta_model(1, 2)
    x = model.element([(0, 0, 1)], 2)
    caught = []
    for _ in range(2):
        with pytest.raises((OutOfRangeError, TruncationOverflowError)) as info:
            model.apply_word(parse_word(word), x)
        caught.append(info.value)
    first, second = caught
    assert first is not second
    assert type(first) is type(second)
    assert str(first) == str(second)
    assert vars(first) == vars(second)  # generator and degree, where present
    # no plan keeps an exception and its frames
    assert not any(
        isinstance(part, BaseException)
        for plan in model._plans.values()
        for part in plan
    )


@pytest.mark.parametrize("word", ["d5 s0", "s0 d5", "s0 s0"])
def test_a_failing_word_leaves_no_plan(word):
    model = delta_model(1, 2)
    x = model.element([(0, 0, 1)], 2)
    model.apply_word(parse_word("d0"), x)
    plans = dict(model._plans)
    for _ in range(2):
        with pytest.raises((OutOfRangeError, TruncationOverflowError)):
            model.apply_word(parse_word(word), x)
    assert model._plans == plans and len(plans) == 1


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(st.sampled_from((FACE, DEGENERACY)), st.integers(0, 6)),
        max_size=5,
    ),
    st.integers(0, 4),
)
def test_word_action_raises_exactly_when_undefined(letters, m):
    """With headroom for every letter, only definedness can fail."""
    w = Word(tuple(letters))
    model = delta_model(1, m + len(letters))
    x = model.element(list(model.basis(m)[:2]), m)
    try:
        model.apply_word(w, x)
    except OutOfRangeError:
        raised = True
    else:
        raised = False
    assert raised == (not is_defined(w, m))


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


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_one_label_elements_are_shared(model):
    q = model.n
    for lbl in model.basis(q)[:3]:
        x = model.element([lbl], q)
        assert x is model.element([lbl], q)
        assert x == F2Element(q, frozenset({lbl}))
        # repeated labels still cancel mod 2
        assert model.element([lbl, lbl], q) == F2Element(q, frozenset())
    assert model.zero(q) is model.zero(q) == F2Element(q, frozenset())
    # a one-label image is the shared element of its label
    img = model.apply_word(degeneracy(0), model.element([model.basis(q)[0]], q))
    (lbl,) = img.support
    assert img is model.element([lbl], q + 1)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_a_table_hit_is_a_read_of_the_shared_image(model, monkeypatch):
    q = model.n
    filled = []
    for w in (face(0), degeneracy(0)):  # zero and nonzero images among them
        target = w.target_degree(q)
        for lbl in model.basis(q)[:3]:
            x = model.element([lbl], q)
            first = model.apply_word(w, x)
            _, _, table = model._plans[(w, q)]
            assert table[lbl] is first
            assert first is model.element(list(first.support), target)
            filled.append((w, x, first))
    calls = []
    monkeypatch.setattr(Model, "element", lambda *args: calls.append(args))
    for w, x, first in filled:
        assert model.apply_word(w, x) is first
    assert calls == []


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


def _oracle_evaluate_em(transform, element, left_model, right_model):
    """Term by term and pair by pair, acting letter by letter, no caches."""
    i, j = element.left_degree, element.right_degree
    k, l = transform.target(i, j)
    acc: set = set()
    if k >= 0 and l >= 0:
        for wl, wr in transform.terms(i, j):
            for a, b in element.pairs:
                left = _oracle_act_by_word(left_model, wl, left_model.element([a], i))
                if not left:
                    continue
                right = _oracle_act_by_word(right_model, wr, right_model.element([b], j))
                for la in left.support:
                    for lb in right.support:
                        acc ^= {(la, lb)}
    return TensorElement(k, l, frozenset(acc))


EM_TRANSFORMS = pytest.mark.parametrize("transform", [
    shuffle_map(), higher_shuffle(1), higher_shuffle(2), _chain_map_transform(),
], ids=["D", "D1", "D2", "chain-map"])
# the delta pair shares labels between its two models
EM_MODELS = pytest.mark.parametrize("left, right", [
    (delta_model(1, 3), delta_model(2, 3)),
    (sphere_model(1, 4), sphere_model(2, 4)),
    (algebra_model(1, 4, 2), algebra_model(2, 4, 3)),
], ids=["delta", "sphere", "algebra"])


def _em_inputs(left, right):
    """Every bidegree's empty tensor, then pairs sharing left and right labels."""
    for i in range(left.max_degree + 1):
        for j in range(right.max_degree + 1):
            xs = [left.element(list(left.basis(i)[:n]), i) for n in (0, 2, 3)]
            ys = [right.element(list(right.basis(j)[:n]), j) for n in (0, 2)]
            for x in xs:
                for y in ys:
                    yield tensor(x, y)


@EM_TRANSFORMS
@EM_MODELS
def test_evaluate_em_matches_term_oracle(left, right, transform):
    seen = set()
    for t in _em_inputs(left, right):
        want = _outcome(lambda: _oracle_evaluate_em(transform, t, left, right))
        assert _outcome(lambda: evaluate_em(transform, t, left, right)) == want
        if isinstance(want, TensorElement):
            if min(want.left_degree, want.right_degree) < 0:
                seen.add("negative")
        else:
            seen.add(want[0].__name__)
    # every case reaches a truncating input, and one with a negative target
    # bidegree where the transform has one
    assert "TruncationOverflowError" in seen
    assert ("negative" in seen) == (min(transform.target(0, 0)) < 0)


_MISSING = object()


def _per_word_evaluate_em(transform, element, left_model, right_model):
    """evaluate_em before word tables: one image dict per word, keyed by Word."""
    i, j = element.left_degree, element.right_degree
    k, l = transform.target(i, j)
    acc: set = set()
    if k >= 0 and l >= 0 and element.pairs:
        pairs = [
            (a, b, left_model.element([a], i), right_model.element([b], j))
            for a, b in element.pairs
        ]
        lcache: dict = {}  # word -> {label: image label, or None for zero}
        rcache: dict = {}
        for wl, wr in transform.terms(i, j):
            limages = lcache.get(wl)
            if limages is None:
                limages = lcache[wl] = {}
            rimages = rcache.get(wr)
            if rimages is None:
                rimages = rcache[wr] = {}
            for a, b, xa, xb in pairs:
                la = limages.get(a, _MISSING)
                if la is _MISSING:
                    out = left_model.apply_word(wl, xa)
                    la = limages[a] = next(iter(out.support), None)
                if la is None:
                    continue
                lb = rimages.get(b, _MISSING)
                if lb is _MISSING:
                    out = right_model.apply_word(wr, xb)
                    lb = rimages[b] = next(iter(out.support), None)
                if lb is None:
                    continue
                acc ^= {(la, lb)}
    return TensorElement(k, l, frozenset(acc))


def _one_pair_inputs(left, right):
    """Per bidegree, the first and last labels of each side, one pair each."""
    for i in range(left.max_degree + 1):
        for j in range(right.max_degree + 1):
            for a in {*left.basis(i)[:1], *left.basis(i)[-1:]}:
                for b in {*right.basis(j)[:1], *right.basis(j)[-1:]}:
                    yield tensor(left.element([a], i), right.element([b], j))


@EM_TRANSFORMS
@EM_MODELS
def test_evaluate_em_makes_the_per_word_calls(left, right, transform, monkeypatch):
    # rows keyed by word change how images are looked up, not which are
    # made: one call per (word, label), and a right image only where the
    # left one is nonzero; with one pair, in the same order too.  Where
    # several pairs raise, the calls before the raise follow the loop
    # order (pairs outside, terms inside), so only the outcome and the
    # lack of repeats are compared there
    apply_word = Model.apply_word
    calls = []

    def record(model, w, x):
        calls.append((model, w.factors, x.degree, x.support))
        return apply_word(model, w, x)

    monkeypatch.setattr(Model, "apply_word", record)
    several = 0
    for t in chain(_one_pair_inputs(left, right), _em_inputs(left, right)):
        runs = []
        for evaluate in (_per_word_evaluate_em, evaluate_em):
            calls.clear()
            outcome = _outcome(lambda: evaluate(transform, t, left, right))
            runs.append((outcome, list(calls)))
        (want, want_calls), (got, got_calls) = runs
        assert got == want
        if len(t.pairs) <= 1:
            assert got_calls == want_calls
        else:
            assert len(set(got_calls)) == len(got_calls)
            if isinstance(want, TensorElement):
                several += 1
                assert Counter(got_calls) == Counter(want_calls)
    assert several


def test_image_tables_are_bounded_by_the_basis(monkeypatch):
    """The numeric sweep's Delta(4) (x) Delta(4) evaluations fill each
    plan's image table at most once per source label, and every
    ``theta_label`` call is a table miss."""
    lm, rm = delta_model(4, 4), delta_model(4, 4)
    rule = type(lm).theta_label
    calls = []

    def record(model, gather, label):
        calls.append(model)
        return rule(model, gather, label)

    monkeypatch.setattr(type(lm), "theta_label", record)
    t = _chain_map_transform()
    for i in range(5):
        for j in range(5 - i):
            for la in lm.basis(i):
                for lb in rm.basis(j):
                    x = tensor(lm.element([la], i), rm.element([lb], j))
                    assert not evaluate_em(t, x, lm, rm).pairs
    for model in (lm, rm):
        tables = [(m, table) for (_, m), (_, _, table) in model._plans.items()
                  if table is not None]
        assert tables
        assert all(len(table) <= model.dimension(m) for m, table in tables)
        assert any(len(table) == model.dimension(m) for m, table in tables)
        assert calls.count(model) == sum(len(table) for _, table in tables)


def test_model_dump_golden():
    got = dump_model(delta_model(1, 2))
    want = json.loads((GOLDEN / "delta1_model.json").read_text())
    assert got == want


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_model_dump_is_the_word_action(model):
    """Every dumped entry is the apply_word image of that one label."""
    for m, entry in enumerate(dump_model(model)["degrees"]):
        labels = model.basis(m)
        assert len(entry["faces"]) == m + 1
        assert ("degeneracies" in entry) == (m < model.max_degree)
        for letter, key in ((face, "faces"), (degeneracy, "degeneracies")):
            for i, table in enumerate(entry.get(key, [])):
                assert list(table) == [model.label_str(lbl) for lbl in labels]
                for lbl in labels:
                    got = table[model.label_str(lbl)]
                    if key == "faces" and m == 0:
                        # a vertex's face prints as the empty label, though
                        # the action out of degree 0 is the zero map
                        assert got == model.label_str(())
                        continue
                    out = model.apply_word(letter(i), model.element([lbl], m))
                    assert len(out) <= 1
                    want = next((model.label_str(img) for img in out.support), None)
                    assert got == want, (key, i, lbl)
