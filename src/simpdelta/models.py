"""Finite truncated simplicial F2-modules and algebras with explicit bases.

Module models are spans of nondecreasing vertex tuples: the standard
simplex, its boundary, and the quotient sphere (whole boundary collapsed
to zero, so the sphere is reduced: its degree-m basis is the set of
surjective tuples, each built from its degeneracy mask).  Each lists
exactly the labels its closed form counts.  The algebra model is the
polynomial algebra on the sphere's basis in each degree, truncated at a
polynomial degree bound; its monomials are sorted multisets of sphere labels.

Words act on a label through one order-preserving map θ of vertex
positions (May, *Simplicial Objects in Algebraic Topology*, §1), composed
by ``words.letter_theta`` (d_r drops position r, s_r repeats it).  Each
model has one label rule, ``theta_label``: the label's vertices gathered
through θ, zero on the sphere when a face leaves a vertex out (the one
place an image can leave the basis), and re-sorted factorwise for algebra
monomials.  The one action on elements is ``Model.apply_word``, where a
single face or degeneracy is a one-letter word; what the word means at a
source degree (defined, zero, or past the truncation) is ``words.walk``
itself, run on the model's ``max_degree``.
A word that is defined or zero there is compiled once per model into a
plan, keyed by the word object (words hash by identity) and the degree;
a word that fails is not kept, so it walks and raises again on every
call.  ``Model.element`` keeps one shared element per (degree, label)
for zero and one-label input.  Each plan keeps an image table, source
label to that shared image element, filled by ``theta_label`` on first
use, so a label's image under a word is computed once per model, and a
one-label input on a filled entry is answered by the entry itself.

``Model.__init__`` declares every per-model table in one place: the
bases, the plans, the face tables, the shared elements, and the one
associated complex, which only ``homology.associated_complex`` fills.

The chain complexes read the faces from ``Model.faces(q)``: one list per
face d_r, holding per degree-q label the basis index of its image, built
once per degree.  A module model builds each list from ``theta_label``.
Faces are algebra maps, so the algebra builds its lists without gathering
a label: the face of a monomial is the face of its prefix times the face
of its last factor, read from the sphere's lists and from a table of
degree-(q-1) products by one generator.  ``Model.dimension`` gives each
basis size from one closed form in exact integers (``binomial``), so a size
can be checked before anything is built; with a cap it stops once the count
is past the cap.

Truncation is never silent: a degeneracy pushing past ``max_degree`` or a
product exceeding the polynomial bound raises TruncationOverflowError
(defined in ``words``, re-exported here), because silently dropped terms
would corrupt cycle checks downstream.
"""

from __future__ import annotations

from functools import reduce
from itertools import (accumulate, chain, combinations, combinations_with_replacement,
                       repeat, takewhile)
from operator import getitem, itemgetter, sub

from .gf2 import mod2
from .words import Value, Word, face, letter_theta, walk
from .words import OutOfRangeError, TruncationOverflowError  # re-exported


class DegreeMismatchError(Exception):
    """Two elements of different simplicial degree were combined."""


class F2Element(Value):
    """A mod-2 set of basis labels in one simplicial degree."""

    __slots__ = ("degree", "support")

    def __init__(self, degree: int, support: frozenset):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "support", support)

    def __add__(self, other: "F2Element") -> "F2Element":
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"cannot add degrees {self.degree} and {other.degree}"
            )
        return F2Element(self.degree, self.support ^ other.support)

    def __bool__(self) -> bool:
        return bool(self.support)

    def __len__(self) -> int:
        return len(self.support)


def binomial(n: int, k: int, cap: int | None = None) -> int:
    """C(n, k), 0 for k < 0 or k > n.  With a cap: C(n, k) itself when it is
    at most ``cap``, and otherwise some value in (cap, C(n, k)].

    The running product over i = 1 .. min(k, n - k), with m the larger of
    k and n - k, is C(m + i, i): a binomial at every step, growing at least
    twofold, so with a cap the loop stops at the first partial over it,
    within log2(cap) + 1 steps, and no huge count is built.
    """
    if not 0 <= k <= n:
        return 0
    m, c = max(k, n - k), 1
    for i in range(1, n - m + 1):
        c = c * (m + i) // i
        if cap is not None and c > cap:
            break
    return c


def theta_map(theta: tuple):
    """The function ``label -> tuple(label[p] for p in theta)``, built once."""
    if len(theta) > 1:
        return itemgetter(*theta)
    # itemgetter of one position returns the bare vertex, of none it fails
    return lambda label: tuple([label[p] for p in theta])


class Model:
    """Common machinery: elements, the action of words, the face table.

    Each subclass gives its basis, its dimension from a closed form, one
    label rule, ``theta_label(gather, label)``: the image of a basis label
    under a compiled θ (see ``theta_map``), or None for zero; and its
    face table over basis indices (``_face_table``).
    """

    name: str

    def __init__(self, n: int, max_degree: int):
        self.n = n
        self.max_degree = max_degree
        self._basis: dict[int, tuple] = {}
        self._plans: dict = {}
        self._faces: dict[int, tuple] = {}
        self._elements: dict[tuple, F2Element] = {}
        self._associated = None  # written by homology.associated_complex

    def basis(self, degree: int) -> tuple:
        raise NotImplementedError

    def dimension(self, degree: int, cap: int | None = None) -> int:
        """``len(self.basis(degree))`` from a closed form, building nothing.
        With a cap, as for ``binomial``: the count when it is at most
        ``cap``, and otherwise some value in (cap, count]."""
        raise NotImplementedError

    def faces(self, q: int) -> tuple:
        """The faces d_0 .. d_q on ``basis(q)``, one list per face.

        ``faces(q)[r][c]`` is the index in ``basis(q - 1)`` of d_r of the
        label at index c, or -1 where the face is zero.  Built once per
        degree and kept on the model.  In degree 0 every face is the zero
        map, as for ``apply_word``.
        """
        table = self._faces.get(q)
        if table is None:
            if q <= 0:
                table = ([-1] * len(self.basis(q)),)
            else:
                table = self._face_table(q)
            self._faces[q] = table
        return table

    def _face_table(self, q: int) -> tuple:
        raise NotImplementedError

    def label_str(self, label) -> str:
        raise NotImplementedError

    def zero(self, degree: int) -> F2Element:
        return self.element((), degree)

    def element(self, labels, degree: int) -> F2Element:
        """The mod-2 sum (``gf2.mod2``) of a sequence of labels in one degree.

        Zero and one-label elements are shared: one per (degree, label),
        made on first use and kept on the model, like ``_basis``.
        """
        if len(labels) <= 1:
            key = (degree, *labels)
            x = self._elements.get(key)
            if x is None:
                x = self._elements[key] = F2Element(degree, frozenset(labels))
            return x
        return F2Element(degree, mod2(labels))

    def apply_word(self, w: Word, x: F2Element) -> F2Element:
        """Act by ``w``: its compiled plan at ``x.degree``, then one image per label.

        The plan is made once per (word, source degree) and kept on the
        model; see ``_compile``.  Its image table maps a source label to
        its image: the shared element ``element`` keeps for that one label
        in the target degree, or the shared zero.  ``theta_label`` runs
        only for a label the table has not seen, so the table holds at
        most the source degree's basis.  A one-label input returns its
        table entry itself; the images of several labels are summed mod 2
        once, at the end, by ``element``.
        """
        key = (w, x.degree)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._compile(w, x.degree)
        target, gather, table = plan
        if gather is None:
            return self.zero(target)
        support = x.support
        if len(support) == 1:
            (lbl,) = support
            image = table.get(lbl)
            if image is None:
                image = self._image(plan, lbl)
            return image
        images = []
        for lbl in support:
            image = table.get(lbl)
            if image is None:
                image = self._image(plan, lbl)
            images.extend(image.support)
        return self.element(images, target)

    def _image(self, plan: tuple, label) -> F2Element:
        """A table miss: the label's image by ``theta_label``, stored as
        the shared one-label element of the target degree, or the zero."""
        target, gather, table = plan
        img = self.theta_label(gather, label)
        image = table[label] = self.element(() if img is None else (img,), target)
        return image

    def _compile(self, w: Word, m: int) -> tuple:
        """The word's meaning at degree m: (target, gather, table).

        ``words.walk`` on this model's ``max_degree`` decides it, whatever
        the support.  A word it rejects raises OutOfRangeError or
        TruncationOverflowError from the walk itself, and no plan is kept,
        so every call walks again and raises a new exception.  A word it
        absorbs into the zero space gets ``gather`` None, the zero map.
        Otherwise ``gather`` reads the labels through the θ that
        ``letter_theta`` composes from the letters, rightmost first, and
        ``table``, empty at first, is the plan's image table.
        """
        target = w.target_degree(m)
        if walk(w.factors, m, self.max_degree) is None:
            return target, None, None
        theta = reduce(letter_theta, reversed(w.factors), tuple(range(m + 1)))
        return target, theta_map(theta), {}

    def boundary(self, x: F2Element) -> F2Element:
        """Sum of all faces, the associated-complex differential."""
        labels = []
        for r in range(x.degree + 1):
            labels.extend(self.apply_word(face(r), x).support)
        return self.element(labels, x.degree - 1)

    def element_str(self, x: F2Element) -> str:
        if not x.support:
            return "0"
        return " + ".join(sorted(self.label_str(lbl) for lbl in x.support))


class ModuleModel(Model):
    """Span of a set of nondecreasing vertex tuples closed under the actions.
    Each subclass names its ``family``, and its ``_labels`` lists in lex
    order the degree-d labels that its ``dimension`` counts."""

    poly_bound = 0  # a label is one tuple, not a product of factors

    def __init__(self, n: int, max_degree: int):
        if n < 0 or max_degree < 0:
            raise ValueError("n and max_degree must be nonnegative")
        super().__init__(n, max_degree)
        self.name = f"{self.family}({n})"

    def _labels(self, degree: int):
        raise NotImplementedError

    def basis(self, degree: int) -> tuple:
        if degree < 0:
            return ()
        if degree > self.max_degree:
            raise TruncationOverflowError(
                f"degree {degree} exceeds max_degree {self.max_degree}"
            )
        if degree not in self._basis:
            self._basis[degree] = tuple(self._labels(degree))
        return self._basis[degree]

    def theta_label(self, gather, label):
        """The gathered vertices.  A face only shrinks a tuple's vertex set
        and a degeneracy keeps it, so Delta(n) and its boundary hold every
        image; only the sphere checks it (``SphereModel.theta_label``)."""
        return gather(label)

    def _face_table(self, q: int) -> tuple:
        """``theta_label`` through each face's compiled θ, looked up by label."""
        index = {lbl: c for c, lbl in enumerate(self.basis(q - 1))}
        gathers = [self._compile(face(r), q)[1] for r in range(q + 1)]
        labels = self.basis(q)
        rule = self.theta_label
        return tuple(
            [-1 if (img := rule(gather, lbl)) is None else index[img]
             for lbl in labels]
            for gather in gathers
        )

    def label_str(self, label) -> str:
        return "-".join(str(v) for v in label)


class DeltaModel(ModuleModel):
    """The standard n-simplex: every nondecreasing tuple is a basis vector."""

    family = "Delta"

    def _labels(self, degree):
        return combinations_with_replacement(range(self.n + 1), degree + 1)

    def dimension(self, degree, cap=None):
        return binomial(self.n + degree + 1, degree + 1, cap) if degree >= 0 else 0


class BoundaryDeltaModel(ModuleModel):
    """The boundary subcomplex: tuples that miss at least one vertex."""

    family = "BoundaryDelta"

    def _labels(self, degree):
        return (lbl for lbl in DeltaModel._labels(self, degree)
                if len(set(lbl)) <= self.n)

    def dimension(self, degree, cap=None):
        if degree < 0:
            return 0
        # Delta(n)'s labels less the sphere's; those missing vertex 0 are
        # some of them, a lower bound that settles a cap it passes
        missing_0 = binomial(self.n + degree, degree + 1, cap)
        if cap is not None and missing_0 > cap:
            return missing_0
        return (binomial(self.n + degree + 1, degree + 1)
                - binomial(degree, self.n))


class SphereModel(ModuleModel):
    """Delta(n) with the entire boundary collapsed to zero.

    Only surjective tuples survive; a face that stops being surjective is
    the zero map.  Consequently the model is reduced and its degree-m
    dimension is C(m, m-n) for m >= n.
    """

    family = "Sphere"

    def _labels(self, m):
        """The surjective (0, f_1, .., f_m), one per degeneracy mask: the
        m - n positions j where f_j = f_(j-1), f_j = f_(j-1) + 1 elsewhere
        (May, §1).  Masks in ``combinations`` order give lex order."""
        if self.n > m:
            return ()
        positions = range(1, m + 1)
        return (tuple(accumulate((j not in mask for j in positions), initial=0))
                for mask in combinations(positions, m - self.n))

    def theta_label(self, gather, label):
        """The gathered vertices, or None where a face left a vertex out:
        that image lies in the boundary, which is collapsed to zero."""
        img = gather(label)
        return img if len(set(img)) == self.n + 1 else None

    def dimension(self, degree, cap=None):
        return binomial(degree, self.n, cap)

    def fundamental_class(self) -> F2Element:
        return self.element([tuple(range(self.n + 1))], self.n)


class AlgebraModel(Model):
    """Degreewise polynomial algebra on the sphere, truncated.

    A degree-m monomial is a sorted tuple of degree-m sphere labels (the
    empty tuple is the unit); the polynomial degree is the tuple length
    and is capped at ``poly_bound``.  Faces and degeneracies act
    factorwise, so they are algebra maps and kill any monomial with a
    factor mapping to zero.

    Two product semantics.  By default the model is a window onto the
    free polynomial algebra and a product past the bound raises, because
    silently dropping a nonzero monomial would corrupt cycle checks.
    With ``quotient=True`` the model is the truncated polynomial algebra
    itself (monomials of polynomial degree > poly_bound are genuinely
    zero); that quotient is again a simplicial algebra, so every
    identity of the operations holds in it exactly.
    """

    def __init__(self, n: int, max_degree: int, poly_bound: int,
                 quotient: bool = False):
        if poly_bound < 2:
            raise ValueError("poly_bound must be at least 2")
        super().__init__(n, max_degree)
        self.poly_bound = poly_bound
        self.quotient = quotient
        self.underlying = SphereModel(n, max_degree)
        tag = ", quotient" if quotient else ""
        self.name = f"SphereAlgebra({n}, P={poly_bound}{tag})"

    def basis(self, degree: int) -> tuple:
        if degree < 0:
            return ()
        if degree not in self._basis:
            self._basis[degree] = tuple(
                self._monomials(self.underlying.basis(degree)))
        return self._basis[degree]

    def dimension(self, degree, cap=None):
        if degree < 0:
            return 0
        # monomials of polynomial degree <= P in s generators: the hockey
        # stick sum of C(s + p - 1, p) over p <= P; an s over the cap
        # leaves C(s + P, P) >= s + P over it too
        s = self.underlying.dimension(degree, cap)
        return binomial(s + self.poly_bound, self.poly_bound, cap)

    def monomial_indices(self, degree: int):
        """``basis(degree)`` with each factor replaced by its sphere index.

        The sphere basis is lexicographic, so enumerating index tuples
        yields the monomials in basis order, and sorting index tuples
        sorts the labels they stand for.
        """
        return self._monomials(range(len(self.underlying.basis(degree))))

    def _monomials(self, gens):
        """The unit, then each length's monomials on ``gens`` in lex order up
        to the polynomial bound; with no generator, the unit alone."""
        top = self.poly_bound if gens else 0
        return chain([()], *(combinations_with_replacement(gens, p)
                             for p in range(1, top + 1)))

    def _face_table(self, q: int) -> tuple:
        """Faces are algebra maps: d_r of a monomial is d_r of its prefix
        (all factors but the last) times d_r of its last factor.

        ``mul[a][g]`` is the degree-(q-1) index of monomial a times sphere
        generator g, for every a shorter than the bound.  Each row ends in
        -1 and one last row is all -1, so a zero face of either factor
        gives zero.  In lex order the extensions of one prefix come
        together, last factor ascending from the prefix's own last, so each
        length's prefix indices and last factors are runs, and each face's
        list grows by one lookup per monomial into its own earlier entries.
        """
        lower = {m: c for c, m in enumerate(self.monomial_indices(q - 1))}
        ngens = len(self.underlying.basis(q - 1))
        bound = self.poly_bound
        mul = [[lower[self.product(a, (g,))] for g in range(ngens)] + [-1]
               for a in takewhile(lambda a: len(a) < bound, lower)]
        mul.append([-1] * (ngens + 1))
        row = mul.__getitem__
        sphere = self.underlying.faces(q)
        table = tuple([0] for _ in sphere)  # the unit's faces are the unit
        s = len(self.underlying.basis(q))
        # the monomials one factor shorter: their first index and their last
        # factors; at first the unit, whose extensions start at generator 0
        start, last = 0, [0]
        for _ in range(bound if s else 0):
            counts = map(sub, repeat(s), last)
            prefix = list(chain.from_iterable(
                map(repeat, range(start, start + len(last)), counts)))
            start += len(last)
            last = list(chain.from_iterable(map(range, last, repeat(s))))
            for f, t in zip(table, sphere):
                f.extend(map(getitem, map(row, map(f.__getitem__, prefix)),
                             map(t.__getitem__, last)))
        return table

    def theta_label(self, gather, mono):
        """The sphere rule factor by factor, re-sorted; zero if a factor dies."""
        out = []
        for f in mono:
            img = self.underlying.theta_label(gather, f)
            if img is None:
                return None
            out.append(img)
        return tuple(sorted(out))

    def label_str(self, mono) -> str:
        if not mono:
            return "1"
        return "*".join(f"({self.underlying.label_str(f)})" for f in mono)

    def multiply(self, x: F2Element, y: F2Element) -> F2Element:
        if x.degree != y.degree:
            raise DegreeMismatchError(
                f"cannot multiply degrees {x.degree} and {y.degree}"
            )
        prods = [self.product(a, b) for a in x.support for b in y.support]
        return self.element([p for p in prods if p is not None], x.degree)

    def product(self, a: tuple, b: tuple) -> tuple | None:
        """Two monomials' factors sorted together; past the polynomial bound,
        None in the quotient and TruncationOverflowError in the window."""
        prod = tuple(sorted(a + b))
        if len(prod) <= self.poly_bound:
            return prod
        if self.quotient:
            return None
        raise TruncationOverflowError(
            f"product of polynomial degrees {len(a)} and {len(b)} "
            f"exceeds the bound {self.poly_bound}"
        )

    def unit(self, degree: int) -> F2Element:
        return self.element([()], degree)

    def fundamental_class(self) -> F2Element:
        return self.element([(tuple(range(self.n + 1)),)], self.n)


def delta_model(n: int, max_degree: int) -> DeltaModel:
    return DeltaModel(n, max_degree)

def boundary_delta_model(n: int, max_degree: int) -> BoundaryDeltaModel:
    return BoundaryDeltaModel(n, max_degree)

def sphere_model(n: int, max_degree: int) -> SphereModel:
    return SphereModel(n, max_degree)

def algebra_model(n: int, max_degree: int, poly_bound: int,
                  quotient: bool = False) -> AlgebraModel:
    return AlgebraModel(n, max_degree, poly_bound, quotient)


# ---------------------------------------------------------------------------
# tensor elements


class TensorElement(Value):
    __slots__ = ("left_degree", "right_degree", "pairs")

    def __init__(self, left_degree: int, right_degree: int, pairs: frozenset):
        object.__setattr__(self, "left_degree", left_degree)
        object.__setattr__(self, "right_degree", right_degree)
        object.__setattr__(self, "pairs", pairs)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        bidegree = (other.left_degree, other.right_degree)
        if (self.left_degree, self.right_degree) != bidegree:
            raise DegreeMismatchError("tensor bidegrees differ")
        return TensorElement(self.left_degree, self.right_degree, self.pairs ^ other.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)


def tensor(x: F2Element, y: F2Element) -> TensorElement:
    return TensorElement(
        x.degree, y.degree, frozenset((a, b) for a in x.support for b in y.support)
    )


def evaluate_em(
    transform, element: TensorElement, left_model: Model, right_model: Model
) -> TensorElement:
    """Apply a bidegree family to a tensor element, term by term.

    Terms whose target bidegree has a negative component contribute zero.
    The element's pairs are visited outside and ``transform.terms(i, j)``
    inside.  Each side keeps one row per distinct label: its one-label
    element and a dict from word to image label, None for zero (words hash
    by identity).  So an image is asked of ``apply_word`` once per (word,
    label) per call, and a right image is not asked for where the left one
    is zero.  ``apply_word`` reads the image from its plan's table.
    """
    i, j = element.left_degree, element.right_degree
    k, l = transform.target(i, j)
    image_pairs = []
    if k >= 0 and l >= 0 and element.pairs:
        terms = transform.terms(i, j)
        # label -> (one-label element, {word: image label, None for zero})
        lrows = {a: (left_model.element([a], i), {})
                 for a in {a for a, _ in element.pairs}}
        rrows = {b: (right_model.element([b], j), {})
                 for b in {b for _, b in element.pairs}}
        for a, b in element.pairs:
            xa, limages = lrows[a]
            xb, rimages = rrows[b]
            for wl, wr in terms:
                if wl in limages:
                    la = limages[wl]
                else:
                    out = left_model.apply_word(wl, xa)
                    la = limages[wl] = next(iter(out.support), None)
                if la is None:
                    continue
                if wr in rimages:
                    lb = rimages[wr]
                else:
                    out = right_model.apply_word(wr, xb)
                    lb = rimages[wr] = next(iter(out.support), None)
                if lb is not None:
                    image_pairs.append((la, lb))
    return TensorElement(k, l, mod2(image_pairs))
