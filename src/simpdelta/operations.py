"""Mod-2 homotopy operations on truncated simplicial F2-algebras.

The operation delta_i sends a degree-q cycle to a degree-(q+i) cycle by a
closed sum of degeneracy-word products; `delta_via_em` computes the same
element through the degree-lowering refinements of the shuffle map and a
final multiplication.  The two routes are implemented independently and
the tests hold them against each other chain-for-chain.  Both take a
normalized cycle (every face vanishes) and raise `NotNormalizedCycleError`
on any other input.
"""

from __future__ import annotations

import warnings

from .gf2 import bits, reduced_echelon
from .homology import (
    element_vector, is_cycle, nonzero_face, normalized_subspace, same_class,
)
from .models import AlgebraModel, F2Element, evaluate_em, tensor
from .transforms import higher_shuffle, shuffles
from .words import degeneracy_word, face


class BadRangeError(Exception):
    """The operation order i is outside 1 <= i <= degree."""


class NotNormalizedCycleError(Exception):
    """The closed formula presumes every face of the input vanishes."""


class NotACycleWarning(UserWarning):
    """delta_1 output has one nonvanishing face (the square of the input)."""


def anchored_shuffle_pairs(q: int, i: int) -> list[tuple]:
    """The splittings (mu, nu) of the window {q-i, ..., q+i-1} into two
    increasing i-blocks whose mu-block starts at the window minimum q-i.

    mu is q-i followed by each (i-1)-subset of the rest of the window, in
    lexicographic order.  There are C(2i-1, i-1) of them; these index the
    terms of delta_i.
    """
    if not 1 <= i <= q:
        raise BadRangeError(f"need 1 <= i <= q, got i={i}, q={q}")
    rest = tuple(range(q - i + 1, q + i))
    return [((q - i,) + mu, nu) for mu, nu in shuffles(rest, i - 1)]


def _require_cycle(model: AlgebraModel, z: F2Element):
    """The one input contract of both routes: every face of z vanishes."""
    r = nonzero_face(model, z)
    if r is not None:
        raise NotNormalizedCycleError(
            f"face d{r} of the input is nonzero; "
            "the closed formula needs all faces to vanish"
        )


def delta_i(model: AlgebraModel, z: F2Element, i: int) -> F2Element:
    """The i-th operation by its closed formula.

    Sum over the anchored shuffle pairs of the window {q-i, ..., q+i-1}
    of the products s_nu(z) * s_mu(z).  For 2 <= i <= q the output is
    again a cycle; i = 1 is allowed but warns, because exactly one face
    of the output survives (it equals the square of the input).
    """
    q = z.degree
    if not 1 <= i <= q:
        raise BadRangeError(f"need 1 <= i <= degree(z)={q}, got i={i}")
    _require_cycle(model, z)
    if i == 1:
        warnings.warn(
            f"delta_1 output is not a cycle: its face d{q} equals z^2",
            NotACycleWarning,
            stacklevel=2,
        )
    labels = []
    for mu, nu in anchored_shuffle_pairs(q, i):
        a = model.apply_word(degeneracy_word(nu), z)
        b = model.apply_word(degeneracy_word(mu), z)
        labels.extend(model.multiply(a, b).support)
    return model.element(labels, q + i)


def delta_via_em(model: AlgebraModel, z: F2Element, i: int) -> F2Element:
    """The i-th operation through the shuffle-map refinements.

    Evaluates the (q-i)-th refinement on z (x) z and multiplies the two
    output factors.  Like `delta_i` it takes a normalized cycle and
    raises `NotNormalizedCycleError` on any other input.
    """
    q = z.degree
    if not 1 <= i <= q:
        raise BadRangeError(f"need 1 <= i <= degree(z)={q}, got i={i}")
    _require_cycle(model, z)
    em = evaluate_em(higher_shuffle(q - i), tensor(z, z), model, model)
    prods = [model.product(a, b) for a, b in em.pairs]
    return model.element([p for p in prods if p is not None], em.left_degree)


def delta_report(
    model: AlgebraModel,
    z: F2Element,
    i: int,
    perturbations: int = 0,
    seed: int = 0,
) -> dict:
    """JSON-ready record of one delta_i computation on a normalized cycle z.

    Includes the formula's term list, the cycle verdict, the homology
    verdict (is the class nonzero in the associated complex), and the
    agreement with the refinement route.  The homology verdict is null
    exactly when the value is not a normalized cycle, which happens for
    i = 1 only.  Optionally perturbs the input by seeded normalized
    boundaries and checks the class is unchanged; below a polynomial
    bound of 4 no boundary fits, and none is sought.  The fitting
    boundaries d_0 y often coincide, so each perturbation is a seeded
    nonempty subset of a GF(2) basis of their span: never zero.
    """
    q = z.degree
    caught: list[warnings.WarningMessage]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = delta_i(model, z, i)
    report: dict = {
        "q": q,
        "i": i,
        "degree": q + i,
        "terms": [
            [str(degeneracy_word(nu)), str(degeneracy_word(mu))]
            for mu, nu in anchored_shuffle_pairs(q, i)
        ],
        "value": sorted(model.label_str(lbl) for lbl in value.support),
        "is_cycle": is_cycle(model, value),
        "equals_theta": value == delta_via_em(model, z, i),
    }
    if caught:
        report["warning"] = str(caught[0].message)
    if not report["is_cycle"]:
        # no class to speak of (the i = 1 output has a surviving face)
        report["homology_class_nonzero"] = None
        return report
    report["homology_class_nonzero"] = not same_class(model, value, model.zero(q + i))
    if perturbations > 0:
        import random  # here, not at the top: only the draws load it
        rng = random.Random(seed)
        # delta_i squares its input, so a perturbed cycle fits the truncation
        # only if its monomials stay within half the bound.  Faces keep a
        # monomial's length, and in degree q + 1 the normalized subspace has
        # no part of length 0 (the unit) or 1 (the sphere's Moore complex),
        # so below P = 4, where half the bound is 1, no boundary can fit
        cap = model.poly_bound // 2
        usable = []
        if cap >= 2 and all(len(label) <= cap for label in z.support):
            for y in normalized_subspace(model, q + 1):
                # d_1 .. d_{q+1} vanish on y, so its boundary is d_0 y
                b = model.apply_word(face(0), y)
                if b and all(len(label) <= cap for label in b.support):
                    usable.append(element_vector(model, b))
        basis = reduced_echelon(usable)
        labels = model.basis(q)
        verdicts = []
        for _ in range(perturbations if basis else 0):
            picks = rng.randrange(1, 1 << len(basis))
            b = model.element(
                [labels[r] for c in bits(picks) for r in basis[c]], q)
            # z + b is a normalized cycle, which delta_i checks
            verdicts.append(same_class(model, value, delta_i(model, z + b, i)))
        # with nothing checked there is no verdict, as with no class
        report["class_stable_under_boundary_perturbations"] = (
            all(verdicts) if verdicts else None)
        report["perturbations_checked"] = len(verdicts)
    return report
