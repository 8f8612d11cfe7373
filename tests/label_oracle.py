"""The reference label rules that the model and homology tests compare against.

``filtered_labels`` lists a module model's basis by its definition: every
nondecreasing vertex tuple, kept when the family holds it.  The models
list their labels directly instead, the sphere from its degeneracy masks.

``letter_label`` restates the action of one face or degeneracy on one
basis label from the definition and shares no code with the models' θ
rule: drop or repeat the vertex, then keep the image only if it is a
basis label of the target degree.  Algebra monomials take the rule factor
by factor and are re-sorted; a monomial with a factor outside the
sphere's basis is not in the algebra's basis, so the same membership test
kills it.
"""

from itertools import combinations_with_replacement

from simpdelta.words import DEGENERACY

def filtered_labels(model, degree):
    """A module model's degree-``degree`` labels, in lexicographic order:
    the nondecreasing (degree + 1)-tuples on 0..n whose count of distinct
    vertices its family allows."""
    vertices = model.n + 1
    allowed = {"Delta": range(1, vertices + 1),
               "BoundaryDelta": range(1, vertices),
               "Sphere": (vertices,)}[model.family]
    return tuple(
        lbl for lbl in combinations_with_replacement(range(vertices), degree + 1)
        if len(set(lbl)) in allowed
    )


def letter_image(model, generator, label):
    """A basis label's vertices (factorwise, re-sorted) under one letter,
    before the membership test: a basis label or not."""
    kind, r = generator

    def act(vertices):
        if kind == DEGENERACY:
            return vertices[: r + 1] + vertices[r:]
        return vertices[:r] + vertices[r + 1 :]

    if hasattr(model, "underlying"):
        return tuple(sorted(act(f) for f in label))
    return act(label)


def letter_label(model, generator, label, degree):
    """Image of a degree-``degree`` basis label under one letter, or None."""
    img = letter_image(model, generator, label)
    target = degree + 1 if generator[0] == DEGENERACY else degree - 1
    return img if img in model.basis(target) else None
