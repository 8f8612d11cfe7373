"""Bidegree-indexed families of tensor word transformations over F2.

An `EMTransform` assigns to each bidegree (i, j) a finite mod-2 sum of
tensor words (pairs of simplicial words, left factor (x) right factor),
together with an affine index function saying where V_i (x) W_j is sent.
The families are infinite, so terms are materialized lazily per bidegree
and every check is performed over an explicit window.

Whether a transform keeps its raw terms is fixed when it is built.  One
built from an explicit rule keeps them per bidegree, built on first use:
the constructors, `diagonal_identity`, `shuffle_map`, and
`EMTransform.kept`, which wraps another transform's terms.  Derived
transforms keep none and form them on each read: composites,
suspensions, twists and sums.  A sum is one flat node over the summands
of both operands, so a sum of sums holds one tuple and no nesting; its
raw terms are the symmetric difference of its summands' terms.  No
transform keeps its reduced value: `reduced` normalizes the raw terms on
each call, and a reader that reads one bidegree's raw terms more than
once wraps the transform in `kept`.

Equality of two families at a bidegree is decided syntactically: each
term is normalized at its source degrees, terms whose target degree has a
negative component are dropped (they denote the zero map), and the
surviving normal-form pairs are summed by ``gf2.mod2``.  Distinct epi-mono
normal forms act on linearly independent vectors of the standard-simplex
models, so this comparison is sound and complete for the induced natural
transformations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import xor

from .gf2 import mod2
from .words import (
    DEGENERACY,
    IDENTITY,
    NormalForm,
    Word,
    degeneracy_word,
    face,
    normalize,
)


class IndexMismatchError(Exception):
    """Two transforms with different index functions cannot be added or compared."""


@dataclass(frozen=True)
class IndexFunction:
    """(i, j) |-> (a1*i + b1*j + c1, a2*i + b2*j + c2)."""

    rows: tuple[tuple[int, int, int], tuple[int, int, int]]

    def __call__(self, i: int, j: int) -> tuple[int, int]:
        (a1, b1, c1), (a2, b2, c2) = self.rows
        return (a1 * i + b1 * j + c1, a2 * i + b2 * j + c2)

    def after(self, other: "IndexFunction") -> "IndexFunction":
        """The composite self o other."""
        r1, r2 = other.rows

        def comp(row):
            a, b, c = row
            return (
                a * r1[0] + b * r2[0],
                a * r1[1] + b * r2[1],
                a * r1[2] + b * r2[2] + c,
            )

        return IndexFunction((comp(self.rows[0]), comp(self.rows[1])))

    def suspended(self) -> "IndexFunction":
        # value at (i, j) becomes (1, 1) + old value at (i-1, j-1)
        return IndexFunction(
            tuple((a, b, c - a - b + 1) for a, b, c in self.rows)  # type: ignore[arg-type]
        )

    def twisted(self) -> "IndexFunction":
        (a1, b1, c1), (a2, b2, c2) = self.rows
        return IndexFunction(((b2, a2, c2), (b1, a1, c1)))


def _affine(a1, b1, c1, a2, b2, c2) -> IndexFunction:
    return IndexFunction(((a1, b1, c1), (a2, b2, c2)))


TensorWord = tuple[Word, Word]


class EMTransform:
    """A lazily materialized bidegree family of mod-2 tensor word sums.

    ``rule(i, j)`` must return the raw terms at a bidegree with i, j >= 0;
    bidegrees with a negative component are the zero space and always give
    the empty sum.  Whenever the target bidegree is componentwise
    nonnegative, every listed word must be defined at its source degree
    (the built-in constructors and combinators preserve this; `word_pair`
    leaves it to the caller).

    A transform built here from a rule keeps its raw terms per bidegree,
    built on first use.  A sum (``summands`` given, ``rule`` None) and a
    transform built by `_derived` form them on each read instead.
    """

    def __init__(self, index_fn: IndexFunction, rule, summands: tuple = ()):
        self.index_fn = index_fn
        self._rule = rule
        # A transform never lists itself here: the CLI runs with the
        # collector off, and that cycle would keep it alive.
        self._summands: tuple[EMTransform, ...] = summands
        self._keeps = rule is not None
        self._terms: dict[tuple[int, int], frozenset[TensorWord]] = {}

    @classmethod
    def _derived(cls, index_fn: IndexFunction, rule) -> "EMTransform":
        """A transform that forms its raw terms by ``rule`` on each read."""
        t = cls(index_fn, rule)
        t._keeps = False
        return t

    def kept(self) -> "EMTransform":
        """The same family, keeping its raw terms per bidegree once read."""
        return EMTransform(self.index_fn, self.terms)

    def target(self, i: int, j: int) -> tuple[int, int]:
        return self.index_fn(i, j)

    def terms(self, i: int, j: int) -> frozenset[TensorWord]:
        """Raw terms at a bidegree, before any normalization."""
        if i < 0 or j < 0:
            return frozenset()
        if self._summands:
            return reduce(xor, [t.terms(i, j) for t in self._summands])
        if not self._keeps:
            return self._rule(i, j)
        key = (i, j)
        if key not in self._terms:
            self._terms[key] = frozenset(self._rule(i, j))
        return self._terms[key]

    def reduced(self, i: int, j: int) -> frozenset[tuple[NormalForm, NormalForm]]:
        """Canonical value at a bidegree: normal-form pairs after cancellation."""
        pairs = []
        k, l = self.target(i, j)
        if k >= 0 and l >= 0:  # terms(i, j) is empty where i or j < 0
            for wl, wr in self.terms(i, j):
                nl = normalize(wl, i)
                nr = normalize(wr, j)
                if not (nl.is_zero or nr.is_zero):
                    pairs.append((nl, nr))
        return mod2(pairs)

    def __add__(self, other: "EMTransform") -> "EMTransform":
        if self.index_fn != other.index_fn:
            raise IndexMismatchError(
                f"cannot add transforms with index functions "
                f"{self.index_fn.rows} and {other.index_fn.rows}"
            )
        return EMTransform(self.index_fn, None,
                           (self._summands or (self,)) + (other._summands or (other,)))

    def __mul__(self, other: "EMTransform") -> "EMTransform":
        """Composition: self applied after other."""

        def rule(i, j):
            gterms = other.terms(i, j)
            if not gterms:
                return frozenset()
            p, q = other.target(i, j)
            return mod2([(fl * gl, fr * gr)
                         for fl, fr in self.terms(p, q) for gl, gr in gterms])

        return EMTransform._derived(self.index_fn.after(other.index_fn), rule)

    def suspend(self) -> "EMTransform":
        """Shift all word indices up and the bidegree grid diagonally.

        Bidegrees touching row or column zero become the empty sum.
        """

        def rule(i, j):
            if i == 0 or j == 0:
                return frozenset()
            return frozenset(
                (wl.suspend(), wr.suspend()) for wl, wr in self.terms(i - 1, j - 1)
            )

        return EMTransform._derived(self.index_fn.suspended(), rule)

    def twist(self) -> "EMTransform":
        """Conjugate by the factor swap."""

        def rule(i, j):
            return frozenset((wr, wl) for wl, wr in self.terms(j, i))

        return EMTransform._derived(self.index_fn.twisted(), rule)


# ---------------------------------------------------------------------------
# constructors


def word_pair(left: Word, right: Word) -> EMTransform:
    """The constant family left (x) right.

    The caller is responsible for the pair being defined wherever it is
    used; e.g. id (x) s1 is not defined on bidegrees (i, 0).
    """
    fn = _affine(1, 0, left.degree_shift(), 0, 1, right.degree_shift())
    pair = frozenset({(left, right)})
    return EMTransform(fn, lambda i, j: pair)


def identity_transform() -> EMTransform:
    return word_pair(IDENTITY, IDENTITY)


def zero_transform(index_fn: IndexFunction) -> EMTransform:
    return EMTransform(index_fn, lambda i, j: frozenset())


def face0_left() -> EMTransform:
    return word_pair(face(0), IDENTITY)


def face0_right() -> EMTransform:
    return word_pair(IDENTITY, face(0))


def degen0_left() -> EMTransform:
    return word_pair(Word(((DEGENERACY, 0),)), IDENTITY)


def degen0_right() -> EMTransform:
    return word_pair(IDENTITY, Word(((DEGENERACY, 0),)))


def boundary_left() -> EMTransform:
    """Sum of all faces on the left factor: d_0 (x) id + ... + d_i (x) id."""

    def rule(i, j):
        return frozenset((face(r), IDENTITY) for r in range(i + 1))

    return EMTransform(_affine(1, 0, -1, 0, 1, 0), rule)


def boundary_right() -> EMTransform:
    def rule(i, j):
        return frozenset((IDENTITY, face(r)) for r in range(j + 1))

    return EMTransform(_affine(1, 0, 0, 0, 1, -1), rule)


def diagonal_faces() -> EMTransform:
    """Sum of the squared faces d_r (x) d_r, the diagonal boundary."""

    def rule(i, j):
        return frozenset((face(r), face(r)) for r in range(min(i, j) + 1))

    return EMTransform(_affine(1, 0, -1, 0, 1, -1), rule)


def diagonal_identity(k: int) -> EMTransform:
    """Identity at bidegree (k, k), zero everywhere else.

    This family is not given by one formal expression in the generators;
    for bidegree-local work it is materialized as the single term
    id (x) id at (k, k) and the empty sum elsewhere, which is exactly its
    value there.
    """
    pair = frozenset({(IDENTITY, IDENTITY)})

    def rule(i, j):
        return pair if (i, j) == (k, k) else frozenset()

    return EMTransform(_affine(1, 1, -k, 1, 1, -k), rule)


def shuffles(window: tuple[int, ...], size: int):
    """The splittings of ``window`` into increasing blocks (mu, nu).

    mu takes ``size`` of the indices and nu the rest; the pairs come in
    lexicographic order of mu.
    """
    for mu in combinations(window, size):
        taken = set(mu)
        yield mu, tuple(v for v in window if v not in taken)


def shuffle_map() -> EMTransform:
    """The shuffle product map D.

    At bidegree (i, j) the terms run over the (i, j)-shuffles (mu, nu) of
    {0, ..., i+j-1}: the left factor receives the nu-degeneracies, the
    right factor the mu-degeneracies.
    """

    def rule(i, j):
        return {
            (degeneracy_word(nu), degeneracy_word(mu))
            for mu, nu in shuffles(tuple(range(i + j)), i)
        }

    return EMTransform(_affine(1, 1, 0, 1, 1, 0), rule)


_REFINEMENTS: list[EMTransform] = []  # D^0, D^1, ..., each built once


def higher_shuffle(k: int) -> EMTransform:
    """The k-th degree-lowering refinement D^k of the shuffle map.

    D^0 is the suspended shuffle map composed with id (x) s_0; for k >= 1
    the recursion adds the suspension of the previous refinement to its
    composite with d_0 (x) id (k even) or id (x) d_0 (k odd).  The levels
    are built bottom-up, so a large k costs no deep recursion.  Each level
    is read at one bidegree by both summands of the next and by the
    defects, so D^0 and both summands of every later level keep their raw
    terms; a level itself stays a flat sum.
    """
    if k < 0:
        raise ValueError("the refinement order must be nonnegative")
    levels = _REFINEMENTS
    if not levels:
        levels.append((shuffle_map().suspend() * degen0_right()).kept())
    while len(levels) <= k:
        prev = levels[-1]
        tail = prev * (face0_left() if len(levels) % 2 == 0 else face0_right())
        levels.append(prev.suspend().kept() + tail.kept())
    return levels[k]


def dwyer_defect(k: int) -> EMTransform:
    """The symmetrized defect A^k of the k-th refinement.

    A^0 = D^0 + twist(D^0) + D; for k >= 1 it adds to D^k + twist(D^k)
    the diagonal-face composite and the two one-sided boundary composites
    of D^{k-1}.  On bidegrees with i + j >= 2k this family equals the
    identity concentrated at (k, k): that is the checkable content of the
    Dwyer conditions.  Each call builds a new sum over the kept levels of
    `higher_shuffle`, which lives as long as its reader holds it.
    """
    if k == 0:
        d0 = higher_shuffle(0)
        return d0 + d0.twist() + shuffle_map()
    dk = higher_shuffle(k)
    dprev = higher_shuffle(k - 1)
    return (
        dk
        + dk.twist()
        + diagonal_faces() * dprev
        + dprev * boundary_left()
        + dprev * boundary_right()
    )


# ---------------------------------------------------------------------------
# comparison and dumping


@dataclass(frozen=True)
class EqualityReport:
    equal: bool
    bidegrees_checked: int
    witness: tuple[int, int] | None = None
    left_only: frozenset = frozenset()
    right_only: frozenset = frozenset()

    def __bool__(self) -> bool:
        return self.equal


def em_equal(
    left: EMTransform,
    right: EMTransform,
    max_total: int,
    min_total: int = 0,
) -> EqualityReport:
    """Compare two families on the window min_total <= i + j <= max_total."""
    if left.index_fn != right.index_fn:
        raise IndexMismatchError(
            f"cannot compare transforms with index functions "
            f"{left.index_fn.rows} and {right.index_fn.rows}"
        )
    checked = 0
    for total in range(min_total, max_total + 1):
        for i in range(total + 1):
            j = total - i
            lv = left.reduced(i, j)
            rv = right.reduced(i, j)
            checked += 1
            if lv != rv:
                return EqualityReport(
                    False, checked, (i, j), frozenset(lv - rv), frozenset(rv - lv)
                )
    return EqualityReport(True, checked)


def dump_bidegree(
    transform: EMTransform, i: int, j: int, reduced: bool = False
) -> dict:
    """JSON-ready dump of one bidegree: {"bidegree", "target", "terms"}."""
    if reduced:
        pairs = [
            (str(nl.word()), str(nr.word())) for nl, nr in transform.reduced(i, j)
        ]
    else:
        pairs = [(str(wl), str(wr)) for wl, wr in transform.terms(i, j)]
    return {
        "bidegree": [i, j],
        "target": list(transform.target(i, j)),
        "terms": [list(p) for p in sorted(pairs)],
    }
