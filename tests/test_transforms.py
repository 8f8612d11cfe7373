"""Bidegree-indexed tensor-word transforms.

The shuffle family is compared against an independent enumeration of
monotone interleavings (the Pascal recursion), not against the
combinations call used inside the module.
"""

import gc
import math
import weakref
from collections import Counter

import pytest

from simpdelta import relations, transforms
from simpdelta.transforms import (
    EMTransform,
    IndexFunction,
    IndexMismatchError,
    boundary_left,
    boundary_right,
    degen0_left,
    degen0_right,
    diagonal_faces,
    diagonal_identity,
    dump_bidegree,
    dwyer_defect,
    em_equal,
    face0_left,
    higher_shuffle,
    identity_transform,
    shuffle_map,
    word_pair,
    zero_transform,
)
from simpdelta.words import Word, face, parse_word
from sum_oracle import nested_sums


def interleavings(i, j):
    """Position sets of the size-j pile in a monotone (i, j)-interleaving."""
    if i == 0:
        return {frozenset(range(j))}
    if j == 0:
        return {frozenset()}
    out = set(interleavings(i - 1, j))
    out |= {s | {i + j - 1} for s in interleavings(i, j - 1)}
    return out


def word_indices(w):
    assert all(kind == "s" for kind, _ in w.factors)
    idx = [r for _, r in w.factors]
    assert idx == sorted(idx, reverse=True), "degeneracies written descending"
    return frozenset(idx)


def reduced_strs(transform, i, j):
    return sorted((str(a), str(b)) for a, b in transform.reduced(i, j))


def test_shuffle_matches_interleaving_oracle():
    d = shuffle_map()
    for i in range(5):
        for j in range(5):
            terms = d.terms(i, j)
            assert len(terms) == math.comb(i + j, i)
            got = {(word_indices(wl), word_indices(wr)) for wl, wr in terms}
            want = {
                (s, frozenset(range(i + j)) - s) for s in interleavings(i, j)
            }
            assert got == want
            for left_set, right_set in got:
                assert len(left_set) == j and len(right_set) == i


def test_shuffle_frozen_values():
    d = shuffle_map()
    assert d.terms(0, 0) == frozenset({(Word(), Word())})
    assert reduced_strs(d, 1, 1) == [("s0", "s1"), ("s1", "s0")]
    assert d.target(1, 1) == (2, 2)
    assert d.target(2, 1) == (3, 3)


def test_refinement_base_values():
    d0 = higher_shuffle(0)
    assert reduced_strs(d0, 0, 0) == []
    assert reduced_strs(d0, 0, 1) == []
    assert reduced_strs(d0, 1, 0) == [("id", "s0")]
    assert reduced_strs(d0, 1, 1) == [("s1", "s0")]
    d1 = higher_shuffle(1)
    assert reduced_strs(d1, 1, 1) == [("id", "s0 d0")]
    assert d1.target(1, 1) == (1, 1)
    assert higher_shuffle(2).target(3, 2) == (3, 3)


def test_diagonal_identity_support():
    phi1 = diagonal_identity(1)
    assert reduced_strs(phi1, 1, 1) == [("id", "id")]
    for ij in ((0, 1), (2, 1), (2, 2), (3, 1)):
        assert phi1.reduced(*ij) == frozenset()


def test_symmetrized_defect_base():
    a0 = dwyer_defect(0)
    assert reduced_strs(a0, 0, 0) == [("id", "id")]
    for ij in ((1, 0), (0, 1), (1, 1), (2, 1)):
        assert a0.reduced(*ij) == frozenset()


def test_twist_symmetry_of_shuffle():
    # over F2 the shuffle product is symmetric
    assert em_equal(shuffle_map().twist(), shuffle_map(), 6)


def test_twist_is_an_involution():
    for f in (shuffle_map(), higher_shuffle(1), dwyer_defect(2)):
        assert em_equal(f.twist().twist(), f, 5)


def test_suspension_shifts_words_and_grid():
    s = degen0_right().suspend()
    assert s.terms(1, 1) == frozenset({(Word(), parse_word("s1"))})
    assert s.terms(1, 0) == frozenset()
    assert s.terms(0, 1) == frozenset()
    assert s.target(1, 1) == (1, 2)
    assert higher_shuffle(0).suspend().target(2, 2) == (3, 3)


def test_word_pair_reduction_drops_annihilated_terms():
    wp = word_pair(parse_word("d0 d0"), Word())
    assert wp.index_fn.rows == ((1, 0, -2), (0, 1, 0))
    assert wp.terms(1, 2)
    assert wp.reduced(1, 2) == frozenset()


def test_reduction_cancels_equal_normal_forms():
    # d1 s0 = d0 s0 = id: two equal normal forms cancel mod 2, a third survives
    pair = word_pair(parse_word("d1 s0"), Word()) + identity_transform()
    assert len(pair.terms(1, 1)) == 2
    assert pair.reduced(1, 1) == frozenset()
    triple = pair + word_pair(parse_word("d0 s0"), Word())
    assert reduced_strs(triple, 1, 1) == [("id", "id")]


def test_composition_cancels_a_product_made_twice():
    # d0 d1 * s0 and d0 * d1 s0 are both d0 d1 s0: made twice, it cancels
    f = EMTransform(IndexFunction(((1, 0, -1), (0, 1, 0))), lambda i, j: {
        (parse_word("d0 d1"), Word()), (face(0), Word())})
    g = EMTransform(IndexFunction(((1, 0, 1), (0, 1, 0))), lambda i, j: {
        (parse_word("s0"), Word()), (parse_word("d1 s0"), Word())})
    assert (f * g).terms(2, 1) == {
        (parse_word("d0 d1 d1 s0"), Word()), (parse_word("d0 s0"), Word())}


def test_composition_index_arithmetic():
    comp = degen0_left() * face0_left()
    assert comp.target(2, 3) == (2, 3)
    assert (boundary_left() * degen0_left()).target(2, 3) == (2, 3)
    fn = IndexFunction(((1, 0, -1), (0, 1, 0)))
    assert fn.after(fn)(5, 7) == (3, 7)
    # conjugation by the swap: the twisted value at (i, j) is swap(fn(j, i))
    assert fn.twisted()(5, 7) == (5, 6)


def test_equality_report_witness():
    rep = em_equal(identity_transform(), degen0_left() * face0_left(), 4)
    assert not rep
    assert rep.witness == (0, 0)
    assert rep.bidegrees_checked == 1
    assert sorted((str(a), str(b)) for a, b in rep.left_only) == [("id", "id")]
    assert rep.right_only == frozenset()


def test_equality_window_floor():
    """The k = 1 defect misses the identity at (1, 0) but holds on i+j >= 2."""
    full = em_equal(dwyer_defect(1), diagonal_identity(1), 6)
    assert not full
    assert full.witness == (1, 0)
    assert sorted((str(a), str(b)) for a, b in full.left_only) == [
        ("d0", "id"),
        ("d1", "id"),
    ]
    above = em_equal(dwyer_defect(1), diagonal_identity(1), 6, min_total=2)
    assert above
    assert above.bidegrees_checked == 25


def test_index_mismatch_is_refused():
    with pytest.raises(IndexMismatchError):
        word_pair(face(0), face(0)) + identity_transform()


def test_zero_transform():
    z = zero_transform(IndexFunction(((1, 0, 0), (0, 1, 0))))
    assert z.reduced(3, 2) == frozenset()
    assert em_equal(z + identity_transform(), identity_transform(), 4)


def test_dump_bidegree_schema():
    assert dump_bidegree(shuffle_map(), 1, 1) == {
        "bidegree": [1, 1],
        "target": [2, 2],
        "terms": [["s0", "s1"], ["s1", "s0"]],
    }
    assert dump_bidegree(higher_shuffle(1), 1, 1, reduced=True) == {
        "bidegree": [1, 1],
        "target": [1, 1],
        "terms": [["id", "s0 d0"]],
    }


# Transforms built by sums, each a function giving the transforms to
# compare: the defects and refinements, the chain map, and both sides of
# each part of the relations whose sides are sums.
SUM_BUILT = {
    **{f"A^{k}": (lambda k=k: [dwyer_defect(k)]) for k in range(5)},
    **{f"D^{k}": (lambda k=k: [higher_shuffle(k)]) for k in range(1, 5)},
    "chain map": lambda: [relations._chain_map_transform()],
    **{
        name: (lambda name=name: [
            side for _, lhs, rhs in relations._SYMBOLIC[name][1]() for side in (lhs, rhs)
        ])
        for name in ("simp1", "simp2", "simp3", "simp4")
    },
}
SUM_WINDOW = 10


@pytest.fixture(scope="module")
def nested():
    return nested_sums(SUM_BUILT)


@pytest.mark.parametrize("name", list(SUM_BUILT))
def test_flat_sums_equal_the_nested_binary_sums(nested, name):
    flat, oracle = SUM_BUILT[name](), nested[name]
    assert len(flat) == len(oracle)
    assert any(t._summands for t in flat)
    for f, o in zip(flat, oracle):
        assert not o._summands
        assert not any(t._summands for t in f._summands), "a summand is a sum"
        for total in range(SUM_WINDOW + 1):
            for i in range(total + 1):
                assert f.terms(i, total - i) == o.terms(i, total - i), (i, total - i)


def test_sums_are_flat_and_associative():
    d = shuffle_map()
    a, b, c = diagonal_faces() * d, d * boundary_left(), d * boundary_right()
    left, right = (a + b) + c, a + (b + c)
    assert left._summands == right._summands == (a, b, c)
    for total in range(7):
        for i in range(total + 1):
            assert left.terms(i, total - i) == right.terms(i, total - i)


def test_a_sum_keeps_no_terms():
    total = dwyer_defect(2)
    first = total.terms(3, 3)
    assert first
    assert total.terms(3, 3) == first
    assert total._terms == {}
    assert total.reduced(3, 3) == diagonal_identity(2).reduced(3, 3)
    assert total._terms == {}


def test_derived_transforms_keep_no_terms_and_kept_ones_do():
    d0 = higher_shuffle(0)
    for derived in (d0 * face0_left(), d0.suspend(), d0.twist()):
        first = derived.terms(3, 2)
        assert first
        assert derived.terms(3, 2) == first
        assert derived.reduced(3, 2) == derived.reduced(3, 2)
        assert derived._terms == {}
        wrapped = derived.kept()
        assert wrapped.terms(3, 2) == first
        assert wrapped._terms == {(3, 2): first}
        assert wrapped.terms(3, 2) is wrapped._terms[3, 2]
    assert d0._terms


def test_no_rule_runs_twice_at_one_bidegree_in_one_relation(monkeypatch):
    """Within one relation, no transform but a sum forms its raw terms at a
    bidegree twice: whatever is read twice keeps them."""
    terms = EMTransform.terms
    runs: Counter = Counter()

    def counted(self, i, j):
        if i >= 0 and j >= 0 and not self._summands and (i, j) not in self._terms:
            runs[self, i, j] += 1
        return terms(self, i, j)

    monkeypatch.setattr(EMTransform, "terms", counted)
    monkeypatch.setattr(transforms, "_REFINEMENTS", [])
    for name in relations.relation_names(4, "all"):
        runs.clear()
        assert relations.check_relation(name, SUM_WINDOW)
        twice = sorted((i, j, n) for (_, i, j), n in runs.items() if n > 1)
        assert not twice, (name, twice[:5])


# The transforms that the keeping rule is checked on: those built by sums
# and every refinement level.
KEEP_CHECKED = {**SUM_BUILT, "D^0": lambda: [higher_shuffle(0)]}


@pytest.fixture(scope="module")
def all_keeping():
    """KEEP_CHECKED, built as if every transform but a sum kept its terms."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EMTransform, "_derived", classmethod(lambda cls, fn, rule: cls(fn, rule)))
        patch.setattr(EMTransform, "kept", lambda self: self)
        patch.setattr(transforms, "_REFINEMENTS", [])
        return {name: build() for name, build in KEEP_CHECKED.items()}


@pytest.mark.parametrize("name", list(KEEP_CHECKED))
def test_transforms_that_keep_no_terms_read_the_same_terms_twice(all_keeping, name):
    built, keeping = KEEP_CHECKED[name](), all_keeping[name]
    assert len(built) == len(keeping)
    for b, k in zip(built, keeping):
        for total in range(SUM_WINDOW + 1):
            for i in range(total + 1):
                j = total - i
                assert b.terms(i, j) == k.terms(i, j) == b.terms(i, j), (i, j)
                assert b.reduced(i, j) == k.reduced(i, j), (i, j)


def test_a_defect_is_freed_once_dropped():
    # no table keeps a defect: it lives only as long as its reader holds it
    gc.disable()
    try:
        ref = weakref.ref(dwyer_defect(2))
        assert ref() is None
    finally:
        gc.enable()


def test_transforms_are_freed_without_the_collector():
    # The command runs with the collector off, so a transform in a
    # reference cycle would live, with its term tables, to the end of a run.
    gc.disable()
    try:
        d = shuffle_map()
        d0 = d.suspend() * degen0_right()
        built = [d, d0, d0.suspend(), d0.twist(), d0 * face0_left(),
                 d0.suspend() + d0 * face0_left(), (d0 + d0.twist()) + (d + d)]
        for t in built:
            t.terms(2, 2)
            t.reduced(2, 2)
        refs = [weakref.ref(t) for t in built]
        del d, d0, built, t
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
