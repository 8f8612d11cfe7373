"""Catalog of the identities the transform calculus is required to satisfy.

Each named relation runs over an explicit bidegree window and returns a
`RelationResult` with a case count and, on failure, a witness bidegree
with the uncancelled terms.  The chain-map statement is additionally
checked numerically on standard-simplex models; evaluating on the
fundamental simplex of Delta(i) (x) Delta(j) determines a natural
transformation completely, so that route is not just a spot check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .models import delta_model, evaluate_em, tensor
from .transforms import (
    EMTransform,
    boundary_left,
    boundary_right,
    degen0_left,
    degen0_right,
    diagonal_faces,
    diagonal_identity,
    dwyer_defect,
    em_equal,
    face0_left,
    face0_right,
    higher_shuffle,
    identity_transform,
    shuffle_map,
    word_pair,
    zero_transform,
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


def _compare(
    name: str,
    description: str,
    lhs: EMTransform,
    rhs: EMTransform,
    max_total: int,
    min_total: int = 0,
    label: str = "",
) -> RelationResult:
    rep = em_equal(lhs, rhs, max_total, min_total)
    witness = None
    if not rep.equal:
        witness = (
            f"{label}bidegree {rep.witness}: "
            f"left-only {sorted(map(_pair_str, rep.left_only))}, "
            f"right-only {sorted(map(_pair_str, rep.right_only))}"
        )
    return RelationResult(name, description, rep.bidegrees_checked, rep.equal, witness)


def _merge(name: str, description: str, parts: list[RelationResult]) -> RelationResult:
    cases = sum(p.cases for p in parts)
    for p in parts:
        if not p.passed:
            return RelationResult(name, description, cases, False, p.witness)
    return RelationResult(name, description, cases, True)


def _simp0(max_total: int) -> RelationResult:
    return _compare(
        "simp0",
        "(d_0 (x) id)(s_0 (x) id) = id",
        face0_left() * degen0_left(),
        identity_transform(),
        max_total,
    )


def _simp1(max_total: int) -> RelationResult:
    parts = []
    for tag, f in [
        ("D", shuffle_map()),
        ("delta", diagonal_faces()),
        ("d_0 (x) id", face0_left()),
    ]:
        sf = f.suspend()
        lhs = sf * boundary_left().suspend() + sf * face0_left()
        rhs = sf * boundary_left()
        parts.append(
            _compare(
                "simp1",
                "",
                lhs,
                rhs,
                max_total,
                label=f"F = {tag}, ",
            )
        )
    return _merge(
        "simp1",
        "SF o S(boundary (x) id) + SF o (d_0 (x) id) = SF o (boundary (x) id)",
        parts,
    )


def _simp2(max_total: int) -> RelationResult:
    lhs = boundary_right() * face0_right()
    rhs = face0_right() * boundary_right() + face0_right() * face0_right()
    return _compare(
        "simp2",
        "(id (x) boundary)(id (x) d_0) = (id (x) d_0)(id (x) boundary + d_0)",
        lhs,
        rhs,
        max_total,
    )


def _simp3(max_total: int) -> RelationResult:
    lhs = boundary_right() * degen0_right()
    rhs = degen0_right() * boundary_right() + degen0_right() * face0_right()
    return _compare(
        "simp3",
        "(id (x) boundary)(id (x) s_0) = (id (x) s_0)(id (x) boundary) + id (x) s_0 d_0",
        lhs,
        rhs,
        max_total,
    )


def _simp4(max_total: int) -> RelationResult:
    return _compare(
        "simp4",
        "S(delta) = delta + d_0 (x) d_0",
        diagonal_faces().suspend(),
        diagonal_faces() + word_pair(face(0), face(0)),
        max_total,
    )


def _simp5(max_total: int) -> RelationResult:
    d00 = word_pair(face(0), face(0))
    parts = []
    for tag, f in [
        ("D", shuffle_map()),
        ("D^1", higher_shuffle(1)),
        ("delta", diagonal_faces()),
        ("phi_1", diagonal_identity(1)),
    ]:
        parts.append(
            _compare(
                "simp5",
                "",
                d00 * f.suspend(),
                f * d00,
                max_total,
                label=f"F = {tag}, ",
            )
        )
    return _merge(
        "simp5", "(d_0 (x) d_0) o SF = F o (d_0 (x) d_0)", parts
    )


def _all_short_words(max_len: int, max_index: int) -> list[Word]:
    alphabet = [
        (kind, i) for kind in (FACE, DEGENERACY) for i in range(max_index + 1)
    ]
    out = [Word(())]
    for length in range(1, max_len + 1):
        out.extend(Word(fs) for fs in product(alphabet, repeat=length))
    return out


def _d0_word(max_total: int) -> RelationResult:
    """d_0 o Sw = w o d_0 on normal forms, over all short words and degrees.

    Both sides are compared wherever both are defined; additionally a
    defined non-annihilating w must stay defined under suspension.
    """
    name = "d0-word"
    description = "d_0 o Sw = w o d_0 at the word level"
    cases = 0
    for w in _all_short_words(3, 3):
        sw = w.suspend()
        for n in range(max_total + 1):
            lhs_word = face(0) * sw
            rhs_word = w * face(0)
            if is_defined(w, n):
                if is_defined(rhs_word, n + 1) != is_defined(w, n):
                    return RelationResult(
                        name, description, cases, False,
                        f"post-composition with d_0 changed definedness of {w} at {n}",
                    )
                nf = normalize(w, n)
                if not nf.is_zero and not is_defined(sw, n + 1):
                    return RelationResult(
                        name, description, cases, False,
                        f"suspension broke definedness of nonzero {w} at {n}",
                    )
            if not (is_defined(lhs_word, n + 1) and is_defined(rhs_word, n + 1)):
                continue
            cases += 1
            if normalize(lhs_word, n + 1) != normalize(rhs_word, n + 1):
                return RelationResult(
                    name, description, cases, False,
                    f"word {w} at degree {n}: "
                    f"{normalize(lhs_word, n + 1)} != {normalize(rhs_word, n + 1)}",
                )
    return RelationResult(name, description, cases, True)


def _chain_map_transform() -> EMTransform:
    d = shuffle_map()
    return diagonal_faces() * d + d * boundary_left() + d * boundary_right()


def _chain_map(max_total: int) -> RelationResult:
    t = _chain_map_transform()
    return _compare(
        "D-chain-map",
        "delta o D + D o (boundary (x) id) + D o (id (x) boundary) = 0",
        t,
        zero_transform(t.index_fn),
        max_total,
    )


def _chain_map_numeric(max_total: int) -> RelationResult:
    """The chain-map sum kills every element of every simplex model.

    First on the fundamental simplex of Delta(i) (x) Delta(j), which by
    naturality decides the general statement; then an exhaustive sweep
    over all basis tensors in small dimensions as a direct corroboration.
    """
    name = "D-chain-map-numeric"
    description = "chain-map sum vanishes on standard-simplex models"
    t = _chain_map_transform()
    max_n = min(max_total // 2, 4)
    cases = 0
    for i in range(max_n + 1):
        for j in range(max_n + 1):
            lm = delta_model(i, max(i + j, 1))
            rm = delta_model(j, max(i + j, 1))
            x = tensor(
                lm.element([tuple(range(i + 1))], i),
                rm.element([tuple(range(j + 1))], j),
            )
            out = evaluate_em(t, x, lm, rm)
            cases += 1
            if out.pairs:
                return RelationResult(
                    name, description, cases, False,
                    f"fundamental simplex, bidegree ({i}, {j}): {len(out.pairs)} terms survive",
                )
    sweep_total = min(max_total, 4)
    for a in range(1, 5):
        for b in range(1, 5):
            lm = delta_model(a, sweep_total)
            rm = delta_model(b, sweep_total)
            for i in range(sweep_total + 1):
                for j in range(sweep_total - i + 1):
                    for la in lm.basis(i):
                        for lb in rm.basis(j):
                            x = tensor(lm.element([la], i), rm.element([lb], j))
                            out = evaluate_em(t, x, lm, rm)
                            cases += 1
                            if out.pairs:
                                return RelationResult(
                                    name, description, cases, False,
                                    f"Delta({a}) (x) Delta({b}), bidegree ({i}, {j}), "
                                    f"element {la} (x) {lb}",
                                )
    return RelationResult(name, description, cases, True)


def _dwyer(k: int, max_total: int) -> RelationResult:
    return _compare(
        f"dwyer-{k}",
        f"defect of D^{k} agrees with the diagonal identity on totals >= {2 * k}",
        dwyer_defect(k),
        diagonal_identity(k),
        max_total,
        min_total=2 * k,
    )


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
    prev = dwyer_defect(k - 1)
    step = face0_right() if k % 2 == 0 else face0_left()
    rhs = prev.suspend() + prev * step
    if k == 1:
        defect = frozenset({(face(1), IDENTITY)})
        rhs = rhs + EMTransform(
            rhs.index_fn, lambda i, j: defect if (i, j) == (1, 0) else frozenset()
        )
    return _compare(
        f"recursion-{k}",
        f"defect recursion at k = {k}",
        dwyer_defect(k),
        rhs,
        max_total,
    )


_FIXED = {
    "simp0": _simp0,
    "simp1": _simp1,
    "simp2": _simp2,
    "simp3": _simp3,
    "simp4": _simp4,
    "simp5": _simp5,
    "d0-word": _d0_word,
    "D-chain-map": _chain_map,
    "D-chain-map-numeric": _chain_map_numeric,
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
    if name in _FIXED:
        return _FIXED[name](max_total)
    for prefix, fn, lo in (("dwyer-", _dwyer, 0), ("recursion-", _recursion, 1)):
        if name.startswith(prefix):
            try:
                k = int(name[len(prefix):])
            except ValueError:
                raise UnknownRelationError(name) from None
            if k < lo:
                raise UnknownRelationError(name)
            return fn(k, max_total)
    raise UnknownRelationError(name)
