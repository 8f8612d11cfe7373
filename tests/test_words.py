"""Word engine: normal forms checked against direct tuple surgery.

The oracle below evaluates generator sequences on actual simplices of a
standard simplex, written independently of the package internals, so the
rewriting engine is tested against the definition rather than itself.
"""

import contextlib
import copy
import io
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from normalize_oracle import formal_normal_form, oracle_floor, oracle_normalize
from simpdelta import cli, words
from simpdelta.words import (
    IDENTITY,
    ZERO_FORM,
    NormalForm,
    OutOfRangeError,
    TruncationOverflowError,
    Word,
    degeneracy,
    degeneracy_word,
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


factors_st = st.lists(
    st.tuples(st.sampled_from(["d", "s"]), st.integers(0, 8)), max_size=10
).map(tuple)

words_st = st.builds(Word, factors_st)

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
    # only ASCII digits: "d٣" would print back as "d3", and int() rejects "³"
    for text in ("d\u0663", "s\u00b3"):
        with pytest.raises(ValueError, match="bad word token"):
            parse_word(text)


def _copy_of(factors):
    """An equal factors tuple made of new tuple objects."""
    return tuple([(kind, index) for kind, index in factors])


@given(factors_st, factors_st)
def test_equal_words_are_one_object(f, g):
    assert (Word(f) is Word(g)) == (f == g)
    assert Word(_copy_of(f)) is Word(f)


def test_every_constructor_returns_the_shared_word():
    w = parse_word("s2 s0 d1")
    assert Word(w.factors) is w
    assert Word(_copy_of(w.factors)) is w
    assert degeneracy(2) * degeneracy(0) * face(1) is w
    assert parse_word("s1 d0").suspend() is parse_word("s2 d1")
    assert degeneracy_word((0, 2)) is parse_word("s2 s0")
    assert normalize(w, 3).word() is w
    assert face(0) is parse_word("d0") and degeneracy(0) is parse_word("s0")
    assert Word() is IDENTITY and Word(()) is IDENTITY
    assert parse_word("id") is IDENTITY
    assert face(1) * IDENTITY is face(1)


def test_words_hash_and_compare_by_identity():
    assert Word.__hash__ is object.__hash__
    assert Word.__eq__ is object.__eq__
    w = parse_word("s2 d1")
    built = {
        w,
        degeneracy(2) * face(1),
        parse_word("s1 d0").suspend(),
        Word(_copy_of(w.factors)),
        normalize(w, 3).word(),
    }
    assert len(built) == 1 and w in built


def test_an_existing_word_is_never_written():
    w = parse_word("s3 s1 d0")
    factors = w.factors
    assert Word(_copy_of(factors)) is w
    assert w.factors is factors
    with pytest.raises(AttributeError):
        w.factors = ()


def test_copies_and_pickles_are_the_shared_word():
    w = parse_word("s3 s1 d0 d2")
    assert copy.copy(w) is w
    assert copy.deepcopy(w) is w
    assert copy.deepcopy([w, (w, 1)])[1][0] is w
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(w, protocol)) is w


@pytest.mark.parametrize("factors", [
    (("x", 0),),
    (("d", 0), ("d", -1)),
    (("s", 4), ("q", 2), ("d", 1)),
], ids=["bad-kind", "negative-index", "bad-middle-letter"])
def test_a_rejected_word_is_never_registered(factors):
    messages = []
    for _ in range(3):
        with pytest.raises(ValueError) as info:
            Word(factors)
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    assert messages[0].startswith("bad generator ")
    assert factors not in words._WORDS
    bad = {letter for letter in factors if letter[0] not in ("d", "s") or letter[1] < 0}
    assert not bad & words._LETTERS


def test_post_init_runs_once_per_call(monkeypatch):
    calls = []
    original = Word.__post_init__

    def counted(word):
        calls.append(word)
        original(word)

    monkeypatch.setattr(Word, "__post_init__", counted)
    fresh = (("s", 97), ("d", 96), ("s", 95))  # in no other test
    assert fresh not in words._WORDS
    w = Word(fresh)
    assert calls == [w]
    assert Word(_copy_of(fresh)) is w
    assert parse_word("s97 d96 s95") is w
    assert calls == [w, w, w]
    w * IDENTITY
    assert len(calls) == 4


class _CountingLetters(set):
    """A letter set that counts the generator checks made against it."""

    checks = 0

    def issuperset(self, other):
        self.checks += 1
        return super().issuperset(other)


def test_a_registered_word_skips_the_letter_check(monkeypatch):
    w = parse_word("s2 s0 d1")
    letters = _CountingLetters(words._LETTERS)
    monkeypatch.setattr(words, "_LETTERS", letters)
    before = dict(words._WORDS)
    assert Word(_copy_of(w.factors)) is w
    assert w * IDENTITY is w
    assert letters.checks == 0
    assert words._WORDS == before
    fresh = (("s", 93), ("d", 92))  # in no other test
    assert fresh not in words._WORDS
    v = Word(fresh)
    assert letters.checks == 1
    assert words._WORDS[fresh] is v
    assert letters.issuperset(fresh)


def test_equal_normal_forms_are_one_object():
    assert normalize(parse_word("d1 s0"), 2) is normalize(IDENTITY, 2)
    assert normalize(parse_word("d3 s0"), 3) is normalize(parse_word("s0 d2"), 3)
    assert normalize(parse_word("d0 d0"), 1) is ZERO_FORM


def test_a_form_built_directly_is_the_shared_form():
    w = parse_word("s2 s0 d1")
    nf = normalize(w, 3)
    assert NormalForm((2, 0), (1,)) is nf
    assert NormalForm(degeneracies=(2, 0), faces=(1,)) is nf
    assert NormalForm(tuple([2, 0]), tuple([1])) is nf
    assert NormalForm((), (), True) is ZERO_FORM
    assert NormalForm((), ()) is normalize(IDENTITY, 0)
    assert nf.suspend() is normalize(w.suspend(), 4)


def test_forms_hash_and_compare_by_identity():
    assert NormalForm.__hash__ is object.__hash__
    assert NormalForm.__eq__ is object.__eq__
    nf = normalize(parse_word("s1 d0"), 2)
    built = {nf, NormalForm((1,), (0,)), normalize(parse_word("d0 s2"), 2)}
    assert len(built) == 1 and nf in built
    assert ZERO_FORM not in built


def test_copies_and_pickles_are_the_shared_form():
    for nf in (normalize(parse_word("s3 s1 d0 d2"), 4), ZERO_FORM):
        assert copy.copy(nf) is nf
        assert copy.deepcopy(nf) is nf
        assert copy.deepcopy([nf, (nf, 1)])[1][0] is nf
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(nf, protocol)) is nf


def _tables():
    return {name: len(value) for name, value in vars(words).items()
            if isinstance(value, (dict, set, list))}


def test_normalizing_at_many_degrees_adds_to_no_table():
    # a floor of 4: d4 needs degree 4, and both faces out of degree 1 absorb
    w = parse_word("s0 d0 d4")
    assert normalize(w, 4) is NormalForm((0,), (0, 4))
    assert w._floor == 4
    tables = _tables()
    assert "_FORMS" in tables and "_WORDS" in tables
    assert not hasattr(normalize, "cache_info")
    outcomes = set()
    for m in range(10_000):
        try:
            outcomes.add(normalize(w, m))
        except OutOfRangeError:
            outcomes.add(None)
    assert outcomes == {None, NormalForm((0,), (0, 4))}
    assert _tables() == tables


def _random_word(rng):
    return Word(tuple(
        (rng.choice("ds"), rng.randrange(9)) for _ in range(rng.randrange(11))
    ))


def test_normalize_matches_the_oracle_at_every_degree():
    # seeded words; each is first normalized at a random degree, so the form
    # and floor are filled from below, at and above the floor alike
    rng = random.Random(20061)
    for _ in range(3000):
        w = _random_word(rng)
        top = len(w.factors) + max((r for _, r in w.factors), default=0)
        degrees = list(range(top + 2))
        rng.shuffle(degrees)
        for m in degrees:
            try:
                want = oracle_normalize(w, m)
            except OutOfRangeError as expected:
                with pytest.raises(OutOfRangeError) as info:
                    normalize(w, m)
                assert info.value.generator == expected.generator
                assert info.value.degree == expected.degree
            else:
                assert normalize(w, m) is want
        floor = oracle_floor(w, top)
        assert w._floor == floor
        assert normalize(w, floor) is w._form
        if floor:
            with contextlib.suppress(OutOfRangeError):
                assert normalize(w, floor - 1) is ZERO_FORM


def _oracle_top(w):
    return len(w.factors) + max((r for _, r in w.factors), default=0)


def test_a_product_continues_its_right_operand_form():
    # seeded pairs; half the right operands are normalized first, so the
    # product resumes from a stored form and floor, and the other half
    # from the ones it fills on the operand
    rng = random.Random(20131)
    fresh = 0
    for n in range(3000):
        u, v = _random_word(rng), _random_word(rng)
        if n % 2:
            with contextlib.suppress(OutOfRangeError):
                normalize(v, rng.randrange(_oracle_top(v) + 2))
        fresh += Word(u.factors + v.factors)._form is None
        w = u * v
        assert v._form is formal_normal_form(v.factors)
        assert v._floor == oracle_floor(v, _oracle_top(v))
        assert w._form is formal_normal_form(w.factors)
        assert w._floor == oracle_floor(w, _oracle_top(w))
    assert fresh > 2500


def test_every_form_of_a_sweep_is_the_oracle_form():
    # a window-10 sweep fills forms at product time and at normalize; every
    # word it leaves with a form holds the rewrite's form and floor
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "dwyer", "--max-total", "10"]) == 0
    formed = [w for w in words._WORDS.values() if w._form is not None]
    assert len(formed) > 20_000
    for w in formed:
        assert w._form is formal_normal_form(w.factors)
        assert w._floor == oracle_floor(w, _oracle_top(w))


def test_suspension_commutes_with_normalize_on_the_sweep_words():
    # the premise of keeping a term as its normal forms: from its floor up,
    # a word's form suspends to the form of the suspended word one degree up
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "dwyer", "--max-total", "10"]) == 0
    swept = list(words._WORDS.values())
    assert len(swept) > 20_000
    for w in swept:
        normalize(w, len(w.factors) + max((r for _, r in w.factors), default=0))
        floor = w._floor
        for m in (floor, floor + 1):
            assert normalize(w.suspend(), m + 1) is normalize(w, m).suspend()


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
