"""The reference label rule that the model and homology tests compare against.

It restates the action of one face or degeneracy on one basis label from
the definition and shares no code with the models' θ rule: drop or
repeat the vertex, then keep the image only if it is a basis label of
the target degree.  Algebra monomials take the rule factor by factor and
are re-sorted; a monomial with a factor outside the sphere's basis is
not in the algebra's basis, so the same membership test kills it.
"""

from simpdelta.words import DEGENERACY


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
