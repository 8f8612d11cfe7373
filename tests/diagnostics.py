"""Statements and dumps that only the tests use, kept out of the package.

``verify_simplicial_identities`` checks the simplicial identities on a
model's basis, ``dump_model`` prints its bases and letter tables (the
golden ``delta1_model.json``), ``d_squared_is_zero`` checks a chain
complex, and ``shuffle_pairs`` and ``shuffle_square`` state the full
shuffle sum behind delta_i, of which ``operations.anchored_shuffle_pairs``
keeps the anchored half.
"""

from simpdelta.models import Model, theta_map
from simpdelta.operations import BadRangeError
from simpdelta.transforms import shuffles
from simpdelta.words import (DEGENERACY, FACE, degeneracy, degeneracy_word, face,
                             letter_theta)


def verify_simplicial_identities(model: Model) -> list[str]:
    """Exhaustively check the five identities on the model's basis.

    Returns a list of violation descriptions (empty when all hold).
    """
    bad: list[str] = []

    for m in range(model.max_degree + 1):
        # (name, lhs word, rhs word or None where the rhs is x itself)
        checks: list = []
        for j in range(m + 1):
            # d_i d_j = d_{j-1} d_i  (i < j)
            for i in range(j):
                checks.append(
                    (f"d{i} d{j}", face(i) * face(j), face(j - 1) * face(i))
                )
            # s_i s_j = s_{j+1} s_i  (i <= j), needs headroom of two
            if m + 2 <= model.max_degree:
                for i in range(j + 1):
                    checks.append((
                        f"s{i} s{j}",
                        degeneracy(i) * degeneracy(j),
                        degeneracy(j + 1) * degeneracy(i),
                    ))
            # d_i s_j, all three cases
            if m + 1 <= model.max_degree:
                for i in range(m + 2):
                    if i == j or i == j + 1:
                        rhs = None
                    elif i < j:
                        rhs = degeneracy(j - 1) * face(i)
                    else:
                        rhs = degeneracy(j) * face(i - 1)
                    checks.append((f"d{i} s{j}", face(i) * degeneracy(j), rhs))
        for label in model.basis(m):
            x = model.element([label], m)
            for name, lw, rw in checks:
                lhs = model.apply_word(lw, x)
                rhs = x if rw is None else model.apply_word(rw, x)
                if lhs != rhs:
                    bad.append(f"{model.name}: {name} on {label} at degree {m}")
    return bad


def dump_model(model: Model) -> dict:
    """JSON-ready dump: bases and generator action tables per degree.

    Each entry is the model's one label rule through the one-letter θ,
    None where the image is zero.  In degree 0 the faces print the empty
    label, the rule's image under the empty θ, although ``apply_word``
    treats a face out of degree 0 as the zero map.
    """
    top = model.max_degree

    def table(labels, m, kind):
        out = []
        for i in range(m + 1):
            gather = theta_map(letter_theta(tuple(range(m + 1)), (kind, i)))
            row = {}
            for lbl in labels:
                img = model.theta_label(gather, lbl)
                row[model.label_str(lbl)] = None if img is None else model.label_str(img)
            out.append(row)
        return out

    degrees = []
    for m in range(top + 1):
        labels = model.basis(m)
        entry = {
            "degree": m,
            "basis": [model.label_str(lbl) for lbl in labels],
            "faces": table(labels, m, FACE),
        }
        if m + 1 <= top:
            entry["degeneracies"] = table(labels, m, DEGENERACY)
        degrees.append(entry)
    return {"model": model.name, "max_degree": top, "degrees": degrees}


def d_squared_is_zero(cx) -> bool:
    """Whether every boundary of a boundary in the chain complex vanishes."""
    return all(
        not cx.boundary_vector(q - 1, col)
        for q in range(2, cx.top + 1)
        for col in cx.diff[q]
    )


def shuffle_pairs(q: int, i: int) -> list[tuple]:
    """All splittings (mu, nu) of the window {q-i, ..., q+i-1} into two
    increasing i-blocks, in lexicographic order of mu.  There are C(2i, i)
    of them.
    """
    if not 1 <= i <= q:
        raise BadRangeError(f"need 1 <= i <= q, got i={i}, q={q}")
    return list(shuffles(tuple(range(q - i, q + i)), i))


def shuffle_square(model, z):
    """The multiplied shuffle of z with itself.

    Sum over all splittings of {0, ..., 2q-1} of s_nu(z) * s_mu(z); the
    splittings pair up under block swap and the algebra is commutative,
    so the result is always zero mod 2.  Kept as an executable statement
    of that fact.
    """
    q = z.degree
    if q < 1:
        raise BadRangeError("need degree >= 1")
    acc = model.zero(2 * q)
    for mu, nu in shuffle_pairs(q, q):
        a = model.apply_word(degeneracy_word(nu), z)
        b = model.apply_word(degeneracy_word(mu), z)
        acc += model.multiply(a, b)
    return acc
