"""The reference ``normalize`` that the word tests compare against.

It is the definition ``words.normalize`` answers from a word's stored
form and floor: walk the word at the source degree, then, unless the walk
lands in the zero space, rewrite the letters into the epi-mono form by
insertion, one generator at a time from the right.  Nothing is stored, so
each call decides from the letters alone.
"""

from simpdelta.words import DEGENERACY, ZERO_FORM, NormalForm, OutOfRangeError, walk


def formal_normal_form(factors):
    """The epi-mono form of a letter sequence, by the simplicial identities.

    The oriented rules:
      s_r s_j = s_{j+1} s_r        (r <= j)
      d_r s_j = s_{j-1} d_r        (r < j)
      d_r s_j = id                 (r == j or r == j+1)
      d_r s_j = s_j d_{r-1}        (r > j+1)
      d_r d_j = d_j d_{r+1}        (r >= j)
    """
    degens = []  # strictly decreasing as written
    faces = []  # strictly increasing as written
    for kind, r in reversed(factors):
        if kind == DEGENERACY:
            out = []
            k = 0
            while k < len(degens) and r <= degens[k]:
                out.append(degens[k] + 1)
                k += 1
            out.append(r)
            out.extend(degens[k:])
            degens = out
        else:
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
                out = []
                k = 0
                while k < len(faces) and r >= faces[k]:
                    out.append(faces[k])
                    r += 1
                    k += 1
                out.append(r)
                out.extend(faces[k:])
                faces = out
    return NormalForm(tuple(degens), tuple(faces))


def oracle_normalize(word, source_degree):
    """Walk, then rewrite: raises OutOfRangeError where the word is undefined."""
    if walk(word.factors, source_degree) is None:
        return ZERO_FORM
    return formal_normal_form(word.factors)


def oracle_floor(word, top):
    """The lowest m <= top + 1 such that the walk at every degree m..top
    neither raises nor lands in the zero space, found by walking."""
    m = top + 1
    while m > 0:
        try:
            if walk(word.factors, m - 1) is None:
                break
        except OutOfRangeError:
            break
        m -= 1
    return m
