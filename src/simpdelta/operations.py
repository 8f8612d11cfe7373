"""Mod-2 homotopy operations on truncated simplicial F2-algebras.

The operation delta_i sends a degree-q cycle to a degree-(q+i) cycle by a
closed sum of degeneracy-word products; `delta_via_em` computes the same
element through the degree-lowering refinements of the shuffle map and a
final multiplication.  The two routes are implemented independently and
the tests hold them against each other chain-for-chain.
"""

from __future__ import annotations

import random
import warnings

from .homology import is_cycle, nonzero_face, normalized_subspace, same_class
from .models import AlgebraModel, F2Element, evaluate_em, tensor
from .transforms import higher_shuffle, shuffles
from .words import degeneracy_word


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


def _multiply_pairs(model: AlgebraModel, pairs_element) -> F2Element:
    prods = [model.product(a, b) for a, b in pairs_element.pairs]
    return model.element([p for p in prods if p is not None],
                         pairs_element.left_degree)


def delta_via_em(model: AlgebraModel, z: F2Element, i: int) -> F2Element:
    """The i-th operation through the shuffle-map refinements.

    Evaluates the (q-i)-th refinement on z (x) z and multiplies the two
    output factors; a non-cycle z needs the correction term against its
    boundary, evaluated one refinement lower.
    """
    q = z.degree
    if not 1 <= i <= q:
        raise BadRangeError(f"need 1 <= i <= degree(z)={q}, got i={i}")
    out = _multiply_pairs(
        model, evaluate_em(higher_shuffle(q - i), tensor(z, z), model, model)
    )
    dz = model.boundary(z)
    if dz:
        if q - i - 1 < 0:
            raise BadRangeError(
                "the correction term needs a refinement of negative order; "
                "with i == degree(z) the input must be a cycle"
            )
        out += _multiply_pairs(
            model,
            evaluate_em(higher_shuffle(q - i - 1), tensor(z, dz), model, model),
        )
    return out


def delta_report(
    model: AlgebraModel,
    z: F2Element,
    i: int,
    perturbations: int = 0,
    seed: int = 0,
) -> dict:
    """JSON-ready record of one delta_i computation.

    Includes the formula's term list, the cycle verdict, the homology
    verdict (is the class nonzero in the associated complex), and the
    agreement with the refinement route.  Optionally perturbs the input
    by seeded normalized boundaries and checks the class is unchanged;
    below a polynomial bound of 4 no boundary fits, and none is sought.
    """
    q = z.degree
    caught: list[warnings.WarningMessage]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = delta_i(model, z, i)
    other = delta_via_em(model, z, i)
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
        "equals_theta": value == other,
    }
    if caught:
        report["warning"] = str(caught[0].message)
    if model.boundary(value):
        # no class to speak of (the i = 1 output has a surviving face)
        report["homology_class_nonzero"] = None
    else:
        report["homology_class_nonzero"] = not same_class(
            model, value, model.zero(q + i)
        )
        if perturbations > 0:
            rng = random.Random(seed)
            # delta_i squares its input, so a perturbed cycle only fits the
            # truncation if every monomial stays within half the bound.
            # Faces keep a monomial's length, so the normalized subspace
            # splits by length.  In degree q + 1 its length-0 part (the
            # unit) and its length-1 part (the sphere's Moore complex) are
            # zero, so below P = 4, where half the bound is 1, no nonzero
            # boundary can fit
            cap = model.poly_bound // 2
            usable = []
            for y in (normalized_subspace(model, q + 1) if cap >= 2 else ()):
                # boundary() of a normalized element is just its d_0 image
                b = model.boundary(y)
                if b and all(len(label) <= cap for label in b.support):
                    usable.append(b)
            stable = True
            done = 0
            for _ in range(perturbations):
                if not usable:
                    break
                picks = rng.randrange(1, 1 << len(usable))
                b = model.element([lbl for c, vec in enumerate(usable)
                                   if picks >> c & 1 for lbl in vec.support], q)
                if not b or any(len(label) > cap for label in z.support | b.support):
                    continue
                perturbed = z + b
                ok = is_cycle(model, perturbed) and same_class(
                    model, value, delta_i(model, perturbed, i)
                )
                stable = stable and ok
                done += 1
            # with nothing checked there is no verdict, as with no class
            report["class_stable_under_boundary_perturbations"] = (
                stable if done else None)
            report["perturbations_checked"] = done
    return report
