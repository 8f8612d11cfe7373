"""Word engine: normal forms checked against direct tuple surgery.

The oracle below evaluates generator sequences on actual simplices of a
standard simplex, written independently of the package internals, so the
rewriting engine is tested against the definition rather than itself.
"""

import pytest
from hypothesis import given, strategies as st

from simpdelta.words import (
    IDENTITY,
    ZERO_FORM,
    NormalForm,
    OutOfRangeError,
    TruncationOverflowError,
    Word,
    degeneracy,
    face,
    is_defined,
    normalize,
    parse_word,
    walk,
)


def oracle_defined(word: Word, q: int) -> bool:
    """Range-check the walk; the zero space absorbs everything after
    the degree first drops below zero, so later indices are unchecked."""
    deg = q
    for kind, r in reversed(word.factors):
        if deg < 0:
            return True
        if r > deg:
            return False
        deg += 1 if kind == "s" else -1
    return True


def oracle_apply(word: Word, simplex: tuple):
    """Apply rightmost-first to a vertex tuple; None is the chain-level zero.

    d_i drops vertex i, s_i repeats vertex i.  A face of a 0-simplex lands
    in degree -1, which carries no simplices, hence None, and None stays
    None under whatever follows.
    """
    cur = simplex
    for kind, r in reversed(word.factors):
        if cur is None:
            return None
        if r > len(cur) - 1:
            raise IndexError(f"{kind}{r} out of range on degree {len(cur) - 1}")
        if kind == "s":
            cur = cur[: r + 1] + cur[r:]
        else:
            cur = cur[:r] + cur[r + 1 :]
            if not cur:
                cur = None
    return cur


words_st = st.builds(
    Word,
    st.lists(
        st.tuples(st.sampled_from(["d", "s"]), st.integers(0, 8)), max_size=10
    ).map(tuple),
)

simplices_st = st.lists(st.integers(0, 4), min_size=1, max_size=7).map(
    lambda vs: tuple(sorted(vs))
)


def test_frozen_normal_forms():
    assert str(normalize(parse_word("d1 s0"), 2)) == "id"
    assert str(normalize(parse_word("d3 s0"), 3)) == "s0 d2"
    assert str(normalize(parse_word("s0 s0"), 1)) == "s1 s0"
    assert normalize(parse_word("d0 d0"), 1) is ZERO_FORM
    assert normalize(Word(), 3) == NormalForm((), ())
    assert str(ZERO_FORM) == "0"


def test_definedness_edges():
    # the annihilated walk stops range-checking below degree 0
    assert is_defined(face(0), 0)
    assert normalize(face(0), 0).is_zero
    assert is_defined(degeneracy(0) * face(0), 0)
    assert not is_defined(face(1), 0)
    with pytest.raises(OutOfRangeError):
        normalize(face(1), 0)


def test_word_algebra():
    w = face(1) * degeneracy(0)
    assert w.factors == (("d", 1), ("s", 0))
    assert str(w) == "d1 s0"
    assert w.degree_shift() == 0
    assert (face(0) * face(0)).target_degree(1) == -1
    assert IDENTITY.is_identity()
    assert w.suspend() == face(2) * degeneracy(1)
    with pytest.raises(ValueError):
        Word((("x", 0),))
    with pytest.raises(ValueError):
        Word((("d", -1),))


def test_parse_roundtrip():
    for text in ("id", "d0", "s3 s1 d0 d2", "d1 s0"):
        assert str(parse_word(text)) == text
    assert parse_word("id") == Word()
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("x3")
    with pytest.raises(ValueError):
        parse_word("d-1")


def test_normal_form_word_shape():
    nf = normalize(parse_word("d0 s2 d1 s0"), 2)
    assert list(nf.degeneracies) == sorted(nf.degeneracies, reverse=True)
    assert list(nf.faces) == sorted(nf.faces)
    with pytest.raises(ValueError):
        ZERO_FORM.word()


def test_walk_with_a_top_degree():
    w = parse_word("d5 s0")
    with pytest.raises(OutOfRangeError):
        walk(w.factors, 2)
    with pytest.raises(TruncationOverflowError, match="s0 pushes degree 2 past max_degree 2"):
        walk(w.factors, 2, 2)
    assert walk(parse_word("s1 s0").factors, 1, 3) == 3
    # a face out of degree 0 absorbs the rest, the top included
    assert walk(parse_word("s0 s0 s0 d0").factors, 0, 0) is None


@given(words_st, st.integers(0, 8))
def test_definedness_matches_oracle(w, q):
    assert is_defined(w, q) == oracle_defined(w, q)


@given(words_st, simplices_st)
def test_normal_form_acts_like_the_word(w, x):
    """normalize() must not change the action on actual simplices."""
    q = len(x) - 1
    if not oracle_defined(w, q):
        with pytest.raises(OutOfRangeError):
            normalize(w, q)
        return
    nf = normalize(w, q)
    direct = oracle_apply(w, x)
    if nf.is_zero:
        assert direct is None
    else:
        assert direct == oracle_apply(nf.word(), x)
        assert len(direct) - 1 == w.target_degree(q)


@given(words_st, st.integers(0, 8))
def test_suspension_transfers_definedness(w, q):
    """A defined, non-annihilating word stays defined one degree up.

    The suspended word acts one level higher and normalization commutes
    with the index shift.  Annihilating words carry no such guarantee:
    d0 d0 is defined at 1 with value zero, while its suspension d1 d1 is
    again defined but nonzero, and s0 d0 at 0 suspends to the undefined
    s1 d1.  So the claim is asserted exactly on the non-annihilating part.
    """
    if not is_defined(w, q):
        return
    nf = normalize(w, q)
    if nf.is_zero:
        return
    sw = w.suspend()
    assert is_defined(sw, q + 1)
    assert normalize(sw, q + 1) == nf.suspend()


@given(words_st, words_st, simplices_st)
def test_composition_acts_like_the_pair(u, v, x):
    q = len(x) - 1
    w = u * v
    if not oracle_defined(w, q):
        return
    got = oracle_apply(w, x)
    step = oracle_apply(v, x)
    if step is None:
        # zero propagates through u regardless of u's shape
        assert len(v.factors) > 0
    else:
        assert got == oracle_apply(u, step)
