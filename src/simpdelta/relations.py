"""Catalog of the identities the transform calculus is required to satisfy.

Each named relation runs over an explicit bidegree window and returns a
`RelationResult` with a case count and, on failure, a witness bidegree
with the uncancelled terms.

Most relations are equalities of transforms, kept as data: ``_SYMBOLIC``
maps a name to its description and a function that builds its parts, a
part being (witness label, left side, right side).  One routine,
``_symbolic``, compares every part on the window and adds up their cases;
the first failing part gives the witness.  The Dwyer conditions and the
defect recursions take their order k from the name, so ``_dwyer`` and
``_recursion`` build their one part and call the same routine.  Every
transform is built per call; the table keeps none.

``_CUSTOM`` holds the two checks that are not transform comparisons: d_0
against suspension on single words, and the chain-map statement
evaluated on standard-simplex models.  Evaluating on the fundamental
simplex of Delta(i) (x) Delta(j) determines a natural transformation
completely, so that route is not just a spot check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .models import delta_model, evaluate_em, tensor
from .transforms import (
    EMTransform, boundary_left, boundary_right, degen0_left, degen0_right, diagonal_faces,
    diagonal_identity, dwyer_defect, em_equal, face0_left, face0_right, higher_shuffle,
    identity_transform, shuffle_map, word_pair, zero_transform,
)
from .words import DEGENERACY, FACE, IDENTITY, Word, face, is_defined, normalize


class UnknownRelationError(Exception):
    """The relation name is not in the catalog."""


@dataclass(frozen=True)
class RelationResult:
    name: str
    description: str
    cases: int
    passed: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.passed


def _pair_str(pair) -> str:
    return f"({pair[0]} (x) {pair[1]})"


def _symbolic(
    name: str, description: str, parts, max_total: int, min_total: int = 0
) -> RelationResult:
    """Compare the two sides of each part on min_total <= i + j <= max_total.

    The cases of all parts add up, also after a part fails; the first
    failing part gives the witness, after its label.
    """
    cases, witness = 0, None
    for label, lhs, rhs in parts:
        rep = em_equal(lhs, rhs, max_total, min_total)
        cases += rep.bidegrees_checked
        if witness is None and not rep.equal:
            witness = (
                f"{label}bidegree {rep.witness}: "
                f"left-only {sorted(map(_pair_str, rep.left_only))}, "
                f"right-only {sorted(map(_pair_str, rep.right_only))}"
            )
    return RelationResult(name, description, cases, witness is None, witness)


def _chain_map_transform() -> EMTransform:
    d = shuffle_map()
    return diagonal_faces() * d + d * boundary_left() + d * boundary_right()


def _suspended_boundary(tag: str, f: EMTransform):
    sf = f.suspend().kept()  # all three composites read it
    lhs = sf * boundary_left().suspend() + sf * face0_left()
    return f"F = {tag}, ", lhs, sf * boundary_left()


def _commutes_with_d00(tag: str, f: EMTransform):
    d00 = word_pair(face(0), face(0))
    return f"F = {tag}, ", d00 * f.suspend(), f * d00


def _vanishes(t: EMTransform):
    return "", t, zero_transform(t.index_fn)


# The symbolic identities: name -> (description, its parts, built on call).
_SYMBOLIC = {
    "simp0": (
        "(d_0 (x) id)(s_0 (x) id) = id",
        lambda: [("", face0_left() * degen0_left(), identity_transform())],
    ),
    "simp1": (
        "SF o S(boundary (x) id) + SF o (d_0 (x) id) = SF o (boundary (x) id)",
        lambda: [
            _suspended_boundary(tag, f)
            for tag, f in [
                ("D", shuffle_map()), ("delta", diagonal_faces()),
                ("d_0 (x) id", face0_left()),
            ]
        ],
    ),
    "simp2": (
        "(id (x) boundary)(id (x) d_0) = (id (x) d_0)(id (x) boundary + d_0)",
        lambda: [("", boundary_right() * face0_right(),
                  face0_right() * boundary_right() + face0_right() * face0_right())],
    ),
    "simp3": (
        "(id (x) boundary)(id (x) s_0) = (id (x) s_0)(id (x) boundary) + id (x) s_0 d_0",
        lambda: [("", boundary_right() * degen0_right(),
                  degen0_right() * boundary_right() + degen0_right() * face0_right())],
    ),
    "simp4": (
        "S(delta) = delta + d_0 (x) d_0",
        lambda: [("", diagonal_faces().suspend(),
                  diagonal_faces() + word_pair(face(0), face(0)))],
    ),
    "simp5": (
        "(d_0 (x) d_0) o SF = F o (d_0 (x) d_0)",
        lambda: [
            _commutes_with_d00(tag, f)
            for tag, f in [
                ("D", shuffle_map()), ("D^1", higher_shuffle(1)),
                ("delta", diagonal_faces()), ("phi_1", diagonal_identity(1)),
            ]
        ],
    ),
    "D-chain-map": (
        "delta o D + D o (boundary (x) id) + D o (id (x) boundary) = 0",
        lambda: [_vanishes(_chain_map_transform())],
    ),
}


def _dwyer(k: int, max_total: int) -> RelationResult:
    description = f"defect of D^{k} agrees with the diagonal identity on totals >= {2 * k}"
    return _symbolic(f"dwyer-{k}", description,
                     [("", dwyer_defect(k), diagonal_identity(k))], max_total, 2 * k)


def _recursion(k: int, max_total: int) -> RelationResult:
    """Defect recursion A^k = S(A^{k-1}) + A^{k-1} composed with a zeroth face.

    The recursion's usual statement is unconditional in the bidegree,
    but it is false at the single bidegree (1, 0) when k = 1: there the
    left side is d_0 (x) id + d_1 (x) id, the right side d_0 (x) id only (the
    derivation suspends a sum whose target index is negative, where
    suspension of formal words and of transformations disagree).  That
    bidegree lies below the i+j >= 2k line, so nothing downstream uses
    it.  The checker adds the known defect to the right side at (1, 0)
    exactly, so any drift still fails.
    """
    prev = dwyer_defect(k - 1).kept()  # read by both summands
    step = face0_right() if k % 2 == 0 else face0_left()
    rhs = prev.suspend() + prev * step
    if k == 1:
        defect = frozenset({(face(1), IDENTITY)})
        rhs = rhs + EMTransform(
            rhs.index_fn, lambda i, j: defect if (i, j) == (1, 0) else frozenset()
        )
    return _symbolic(f"recursion-{k}", f"defect recursion at k = {k}",
                     [("", dwyer_defect(k), rhs)], max_total)


def _all_short_words(max_len: int, max_index: int) -> list[Word]:
    alphabet = [(kind, i) for kind in (FACE, DEGENERACY) for i in range(max_index + 1)]
    return [Word(fs) for n in range(max_len + 1) for fs in product(alphabet, repeat=n)]


def _d0_word(max_total: int) -> tuple[int, str | None]:
    """d_0 o Sw = w o d_0 on normal forms, over all short words and degrees.

    Both sides are compared wherever both are defined; additionally a
    defined non-annihilating w must stay defined under suspension.
    """
    cases = 0
    for w in _all_short_words(3, 3):
        sw = w.suspend()
        lhs_word, rhs_word = face(0) * sw, w * face(0)
        for n in range(max_total + 1):
            if is_defined(w, n):
                if not is_defined(rhs_word, n + 1):
                    return cases, (
                        f"post-composition with d_0 changed definedness of {w} at {n}"
                    )
                if not normalize(w, n).is_zero and not is_defined(sw, n + 1):
                    return cases, f"suspension broke definedness of nonzero {w} at {n}"
            if not (is_defined(lhs_word, n + 1) and is_defined(rhs_word, n + 1)):
                continue
            cases += 1
            lhs, rhs = normalize(lhs_word, n + 1), normalize(rhs_word, n + 1)
            if lhs != rhs:
                return cases, f"word {w} at degree {n}: {lhs} != {rhs}"
    return cases, None


def _chain_map_numeric(max_total: int) -> tuple[int, str | None]:
    """The chain-map sum kills every element of every simplex model.

    First on the fundamental simplex of Delta(i) (x) Delta(j), which by
    naturality decides the general statement; then an exhaustive sweep
    over all basis tensors in small dimensions as a direct corroboration.
    """
    # evaluate_em reads the sum's terms once per basis tensor, and a sum
    # forms them on each read: wrap it in a transform that keeps them.
    t = _chain_map_transform().kept()
    max_n = min(max_total // 2, 4)
    cases = 0
    for i in range(max_n + 1):
        for j in range(max_n + 1):
            top = max(i + j, 1)
            lm, rm = delta_model(i, top), delta_model(j, top)
            x = tensor(lm.element([tuple(range(i + 1))], i),
                       rm.element([tuple(range(j + 1))], j))
            out = evaluate_em(t, x, lm, rm)
            cases += 1
            if out.pairs:
                return cases, (f"fundamental simplex, bidegree ({i}, {j}): "
                               f"{len(out.pairs)} terms survive")
    sweep_total = min(max_total, 4)
    models = [delta_model(a, sweep_total) for a in range(1, 5)]
    for a, lm in enumerate(models, 1):
        for b, rm in enumerate(models, 1):
            for i in range(sweep_total + 1):
                for j in range(sweep_total - i + 1):
                    for la in lm.basis(i):
                        for lb in rm.basis(j):
                            x = tensor(lm.element([la], i), rm.element([lb], j))
                            out = evaluate_em(t, x, lm, rm)
                            cases += 1
                            if out.pairs:
                                return cases, (
                                    f"Delta({a}) (x) Delta({b}), bidegree ({i}, {j}), "
                                    f"element {la} (x) {lb}"
                                )
    return cases, None


# The other checks: name -> (description, check giving (cases, witness)).
_CUSTOM = {
    "d0-word": ("d_0 o Sw = w o d_0 at the word level", _d0_word),
    "D-chain-map-numeric": (
        "chain-map sum vanishes on standard-simplex models", _chain_map_numeric
    ),
}


# Relation families: name -> the relation names it runs for a given max_k.
FAMILIES = {
    "simp": lambda max_k: [
        "simp0", "simp1", "simp2", "simp3", "simp4", "simp5", "d0-word"
    ],
    "dwyer": lambda max_k: [f"dwyer-{k}" for k in range(max_k + 1)],
    "lemma3": lambda max_k: [f"recursion-{k}" for k in range(1, max_k + 1)],
    "chainmap": lambda max_k: ["D-chain-map", "D-chain-map-numeric"],
    "all": lambda max_k: [
        name
        for family in ("simp", "chainmap", "dwyer", "lemma3")
        for name in FAMILIES[family](max_k)
    ],
}


def relation_names(max_k: int = 4, family: str = "all") -> list[str]:
    if family not in FAMILIES:
        raise ValueError(f"unknown relation family {family!r}")
    return FAMILIES[family](max_k)


def check_relation(name: str, max_total: int = 8) -> RelationResult:
    if name in _SYMBOLIC:
        description, parts = _SYMBOLIC[name]
        return _symbolic(name, description, parts(), max_total)
    if name in _CUSTOM:
        description, check = _CUSTOM[name]
        cases, witness = check(max_total)
        return RelationResult(name, description, cases, witness is None, witness)
    for prefix, fn, lo in (("dwyer-", _dwyer, 0), ("recursion-", _recursion, 1)):
        if name.startswith(prefix):
            digits = name[len(prefix):]
            try:
                k = int(digits)
            except ValueError:
                raise UnknownRelationError(name) from None
            # int() also reads signs, spaces, underscores, leading zeros and
            # non-ASCII digits, and the result would be named after k
            if str(k) != digits or k < lo:
                raise UnknownRelationError(name)
            return fn(k, max_total)
    raise UnknownRelationError(name)
