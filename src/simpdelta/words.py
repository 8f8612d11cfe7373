"""Formal words in the simplicial face and degeneracy generators.

A word is a finite composite such as ``s3 s1 d0``; the rightmost factor
applies first, so the text reads like the usual operator notation.  Words
act degreewise on simplicial vector spaces, and whether a word defines a
map depends on the source degree, so definedness is a per-degree query.
Every word that is defined and does not annihilate the degree has a unique
epi-mono normal form

    s_{i_p} ... s_{i_1} d_{j_1} ... d_{j_q},   i_p > ... > i_1,  j_1 < ... < j_q,

and two words act identically on every simplicial vector space at a fixed
source degree exactly when their normal forms there coincide.  That makes
equality of induced maps decidable by syntactic comparison.

What a word means at a source degree is decided by one walk over its
letters, ``walk``: whether it is defined, whether it lands in the zero
space, and, on a model truncated at some top degree, whether it leaves
the model.  Normal forms and the model action both read it.  A word acts
on vertex labels through one order-preserving positions map θ, composed
letter by letter by ``letter_theta`` (May, *Simplicial Objects in
Algebraic Topology*, §1).

Words are hash-consed (Filliâtre–Conchon, *Type-safe modular
hash-consing*, 2006): there is one live ``Word`` per distinct factors
tuple, whichever constructor builds it, and ``copy``, ``deepcopy`` and
``pickle`` hand back that same object.  So identity is equality: a word
hashes and compares as an object, and a cache keyed by words, such as a
model's plans, never hashes a factors tuple.  The generator check runs
only for factors the word table does not hold yet, and loops over the
letters only when one of them never passed it before.  Normal forms are
hash-consed the same way, one ``NormalForm`` per distinct form, and
compare by identity too.

Both are ``Record``s, the package's frozen slotted records, defined here at
the bottom layer; a ``Value`` record compares and hashes by its fields.
The package imports no ``dataclasses``: it loads ``inspect`` and with it
``ast``, ``dis`` and ``tokenize``, which no command reads.

A word's epi-mono form does not depend on the degree, only whether the
word reaches it does.  So each word carries its form and its floor: the
lowest source degree from which the walk neither raises nor lands in the
zero space.  Both come from one rewrite, a fold over the letters from the
right whose state after any right factor is that factor's form and floor.
A product ``u * v`` fills both when it is made, continuing the rewrite
from ``v``'s form and floor over ``u``'s letters alone (``v``'s are filled
first if it has none); any other word, a suspension say, fills them at its
first ``normalize``.  From the floor up, ``normalize`` returns the form at
once, and below it the walk only decides whether the word is defined: if
so, it is the zero form.  No memo is kept per (word, degree), and a word
refers to its form but never the other way, so no reference cycle is made.
"""

from __future__ import annotations

FACE = "d"
DEGENERACY = "s"


class OutOfRangeError(Exception):
    """A generator index exceeds its intermediate source degree.

    The formal sequence does not define a map at that degree.
    """

    def __init__(self, generator: tuple[str, int], degree: int):
        self.generator = generator
        self.degree = degree
        kind, index = generator
        super().__init__(f"{kind}{index} is not defined on degree {degree}")


class TruncationOverflowError(Exception):
    """A computation left the representable range of a truncated model."""


# The one live Word per factors tuple, the one live NormalForm per form,
# and every letter that passed the generator check.  They are never cleared.
_WORDS: dict[tuple[tuple[str, int], ...], Word] = {}
_FORMS: dict[tuple[tuple[int, ...], tuple[int, ...], bool], NormalForm] = {}
_LETTERS: set[tuple[str, int]] = set()


class Record:
    """A frozen record over its ``__slots__``, each set once by its class
    through ``object.__setattr__``.  Assigning or deleting a field raises
    AttributeError, ``repr`` reads ``Name(field=value, ...)``, a copy or
    unpickling calls the class on the fields, and records compare by identity."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __reduce__(self):
        return (self.__class__, self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Value(Record):
    """A record that compares and hashes by its fields, unequal to any other class."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class Word(Record):
    """An ordered tuple of generators; ``factors[-1]`` applies first.

    Words are hash-consed: ``Word(factors)`` returns the one live word with
    those factors, so equal words are one object, and a word hashes and
    compares by identity (``object``'s ``__hash__`` and ``__eq__``), never
    by its factors.  Factors the table does not hold yet are checked
    first, and the letter check loops only when some letter has not
    passed it before; a word joins the table only once it is valid.  Every
    call then runs ``__post_init__`` once, an empty hook.  Its factors are
    never rewritten; its form and floor are filled once, by ``*`` for a
    product and otherwise by the first ``normalize``.  Copying or
    unpickling a word returns the shared object.
    """

    # ``factors``, then the private formal normal form and floor degree, not
    # constructor fields (None and unset until ``*`` or ``normalize`` fills them)
    __slots__ = ("factors", "_form", "_floor")

    def __new__(cls, factors: tuple[tuple[str, int], ...] = ()):
        word = _WORDS.get(factors)
        if word is None:
            if not _LETTERS.issuperset(factors):
                for kind, index in factors:
                    if kind not in (FACE, DEGENERACY) or index < 0:
                        raise ValueError(f"bad generator {(kind, index)!r}")
                _LETTERS.update(factors)
            word = object.__new__(cls)
            object.__setattr__(word, "factors", factors)
            object.__setattr__(word, "_form", None)
            _WORDS[factors] = word
        word.__post_init__()
        return word

    def __post_init__(self):
        """Runs once per construction, found or new, and does nothing: the
        benchmark tracer (`perfbench/tracer.py`) counts words through it."""

    def __reduce__(self):
        return (Word, (self.factors,))

    def __mul__(self, other: "Word") -> "Word":
        """Composition: ``self`` applied after ``other``.

        A product with no form yet gets its form and floor here, by the
        rewrite continued over ``self``'s letters from ``other``'s form and
        floor, which are filled first if ``other`` has none.  So each
        letter of a product chain is rewritten once, not once per product.
        """
        word = Word(self.factors + other.factors)
        if word._form is None:
            if other._form is None:
                _formal_normal_form(other, other.factors)
            _formal_normal_form(word, self.factors, other._form, other._floor)
        return word

    def suspend(self) -> "Word":
        """Shift every generator index up by one."""
        return Word(tuple((kind, index + 1) for kind, index in self.factors))

    def degree_shift(self) -> int:
        return sum(1 if kind == DEGENERACY else -1 for kind, _ in self.factors)

    def target_degree(self, source_degree: int) -> int:
        """Degree the word maps ``source_degree`` to.  May be negative."""
        return source_degree + self.degree_shift()

    def is_identity(self) -> bool:
        return not self.factors

    def __str__(self) -> str:
        if not self.factors:
            return "id"
        return " ".join(f"{kind}{index}" for kind, index in self.factors)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


IDENTITY = Word(())


def face(index: int) -> Word:
    return Word(((FACE, index),))


def degeneracy(index: int) -> Word:
    return Word(((DEGENERACY, index),))


def degeneracy_word(indices: tuple[int, ...]) -> Word:
    """s_{a_k} ... s_{a_1} for an increasing index block (a_1, ..., a_k)."""
    return Word(tuple((DEGENERACY, v) for v in reversed(indices)))


def parse_word(text: str) -> Word:
    """Parse the plain-text syntax, e.g. ``"s3 s1 d0"`` or ``"id"``."""
    text = text.strip()
    if text == "id":
        return IDENTITY
    factors = []
    for token in text.split():
        kind, digits = token[:1], token[1:]
        if kind not in (FACE, DEGENERACY) or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad word token {token!r}")
        factors.append((kind, int(digits)))
    if not factors:
        raise ValueError("empty word text")
    return Word(tuple(factors))


class NormalForm(Record):
    """Epi-mono normal form, or the distinguished zero form.

    ``degeneracies`` is strictly decreasing as written, ``faces`` strictly
    increasing; ``is_zero`` marks a word whose action annihilates the degree
    because some intermediate target degree is negative.

    Forms are hash-consed like words: ``NormalForm(...)`` returns the one
    live form with those fields, so equal forms are one object and hash
    and compare by identity.  Copying or unpickling a form returns it.
    """

    __slots__ = ("degeneracies", "faces", "is_zero")

    def __new__(cls, degeneracies: tuple[int, ...] = (),
                faces: tuple[int, ...] = (), is_zero: bool = False):
        key = (degeneracies, faces, is_zero)
        form = _FORMS.get(key)
        if form is None:
            form = object.__new__(cls)
            object.__setattr__(form, "degeneracies", degeneracies)
            object.__setattr__(form, "faces", faces)
            object.__setattr__(form, "is_zero", is_zero)
            _FORMS[key] = form
        return form

    def word(self) -> Word:
        if self.is_zero:
            raise ValueError("the zero form is not a word")
        return Word(
            tuple((DEGENERACY, i) for i in self.degeneracies)
            + tuple((FACE, j) for j in self.faces)
        )

    def suspend(self) -> "NormalForm":
        if self.is_zero:
            return self
        return NormalForm(
            tuple(i + 1 for i in self.degeneracies),
            tuple(j + 1 for j in self.faces),
        )

    def __str__(self) -> str:
        return "0" if self.is_zero else str(self.word())


ZERO_FORM = NormalForm((), (), True)


def letter_theta(theta: tuple, generator) -> tuple:
    """The positions map after one more letter: d_r drops position r, s_r repeats it.

    ``theta`` lists, for each vertex of the image, the source position it
    comes from; ``tuple(range(m + 1))`` is the identity at degree m.
    """
    kind, r = generator
    if kind == DEGENERACY:
        return theta[: r + 1] + theta[r:]
    return theta[:r] + theta[r + 1 :]


def walk(
    factors: tuple[tuple[str, int], ...], m: int, top: int | None = None
) -> int | None:
    """Track intermediate degrees right to left: the one letter walk.

    Returns the final degree, or None when the word annihilates the degree
    (some intermediate target is negative, so the action factors through
    the zero space and the remaining letters are absorbed unchecked).
    Raises OutOfRangeError when a generator index exceeds its intermediate
    source degree.  With ``top``, the walk is on a model truncated at that
    degree and raises TruncationOverflowError at the first degeneracy that
    would pass it; each letter is range-checked first.
    """
    if m < 0:
        return None
    if top is None:
        top = m + len(factors)  # no degeneracy can reach it
    for kind, index in reversed(factors):
        if index > m:
            raise OutOfRangeError((kind, index), m)
        if kind == FACE:
            if m == 0:
                return None  # d0 out of degree 0 lands in the zero space
            m -= 1
        elif m >= top:
            raise TruncationOverflowError(
                f"s{index} pushes degree {m} past max_degree {top}"
            )
        else:
            m += 1
    return m


def is_defined(word: Word, source_degree: int) -> bool:
    try:
        walk(word.factors, source_degree)
    except OutOfRangeError:
        return False
    return True


def _formal_normal_form(
    word: Word, factors: tuple[tuple[str, int], ...],
    form: NormalForm | None = None, floor: int = 0,
) -> NormalForm:
    """Fill ``word``'s epi-mono form, whatever the degree, and its floor, and
    return the form.  ``word`` is ``factors`` applied after a right factor
    whose form is ``form`` and floor ``floor``; with no ``form``, after the
    identity, so ``factors`` are all of the word's letters.

    The floor is the lowest source degree m from which ``walk`` neither
    raises nor absorbs.  A letter applied after letters that shift the
    degree by ``offset`` sees degree m + offset: it is in range when
    m >= index - offset, and a face leaves a nonnegative degree when
    m >= -(offset - 1).  The floor is the largest of these, and 0.

    The rewrite is a left fold over the reversed letters whose state after
    a word is that word's form, its floor and its degree shift, and the
    shift is the form's degeneracies less its faces (a face that cancels a
    degeneracy drops one of each).  So a word's form and floor continue
    from those of any right factor of it, letter by letter.
    """
    # Insertion-based rewriting, one generator at a time from the right.
    # The oriented rules are the simplicial identities:
    #   s_r s_j = s_{j+1} s_r        (r <= j)
    #   d_r s_j = s_{j-1} d_r        (r < j)
    #   d_r s_j = id                 (r == j or r == j+1)
    #   d_r s_j = s_j d_{r-1}        (r > j+1)
    #   d_r d_j = d_j d_{r+1}        (r >= j)
    if form is None:
        degens: list[int] = []  # strictly decreasing as written
        faces: list[int] = []  # strictly increasing as written
    else:
        degens, faces = list(form.degeneracies), list(form.faces)
    offset = len(degens) - len(faces)
    for kind, r in reversed(factors):
        if r - offset > floor:
            floor = r - offset
        if kind == DEGENERACY:
            offset += 1
            k = 0
            while k < len(degens) and r <= degens[k]:
                degens[k] += 1
                k += 1
            degens.insert(k, r)
        else:
            offset -= 1
            if -offset > floor:
                floor = -offset
            pos = 0
            alive = True
            while pos < len(degens):
                j = degens[pos]
                if r < j:
                    degens[pos] = j - 1
                    pos += 1
                elif r == j or r == j + 1:
                    del degens[pos]
                    alive = False
                    break
                else:
                    r -= 1
                    pos += 1
            if alive:
                k = 0
                while k < len(faces) and r >= faces[k]:
                    r += 1
                    k += 1
                faces.insert(k, r)
    form = NormalForm(tuple(degens), tuple(faces))
    object.__setattr__(word, "_form", form)
    object.__setattr__(word, "_floor", floor)
    return form


def normalize(word: Word, source_degree: int) -> NormalForm:
    """Normal form of the word's action on the given source degree.

    Raises OutOfRangeError when the word is not defined there.  From the
    word's floor up this is the word's form, filled here unless ``*`` or
    an earlier call filled it.  Below the floor the walk either raises or
    absorbs, by the floor's definition, so the form is zero.
    """
    form = word._form
    if form is None:
        form = _formal_normal_form(word, word.factors)
    if source_degree >= word._floor:
        return form
    walk(word.factors, source_degree)
    return ZERO_FORM
