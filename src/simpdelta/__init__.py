"""Exact mod-2 calculus for simplicial words, tensor transforms, and the
homotopy operations they induce on simplicial F2-algebras.

The layers, bottom up:

- `words`: simplicial generator words, epi-mono normal forms, suspension.
- `gf2`: exact sparse linear algebra over the two-element field.
- `transforms`: bidegree-indexed families of tensor word sums (the
  Eilenberg-MacLane shuffle map, its degree-lowering refinements, the
  Dwyer defects) with windowed multiset equality.
- `models`: finite simplicial vector spaces and truncated polynomial
  algebras to evaluate everything on.
- `homology`: associated and normalized chain complexes, Betti numbers.
- `operations`: the delta_i operations, by closed formula and through
  the transform calculus.
- `relations`: the named identity catalog the whole engine must satisfy.
"""

from .gf2 import F2Matrix, bits, coordinates, reduced_echelon
from .homology import (
    ChainComplexF2,
    NotACycleError,
    associated_complex,
    cycle_subspace,
    element_vector,
    is_cycle,
    nonzero_face,
    normalized_complex,
    normalized_subspace,
    same_class,
)
from .models import (
    AlgebraModel,
    BoundaryDeltaModel,
    DegreeMismatchError,
    DeltaModel,
    F2Element,
    Model,
    SphereModel,
    TensorElement,
    TruncationOverflowError,
    algebra_model,
    boundary_delta_model,
    delta_model,
    evaluate_em,
    sphere_model,
    tensor,
)
from .operations import (
    BadRangeError,
    NotACycleWarning,
    NotNormalizedCycleError,
    anchored_shuffle_pairs,
    delta_i,
    delta_report,
    delta_via_em,
)
from .relations import (
    RelationResult,
    UnknownRelationError,
    check_relation,
    relation_names,
)
from .transforms import (
    EMTransform,
    EqualityReport,
    IndexFunction,
    IndexMismatchError,
    boundary_left,
    boundary_right,
    diagonal_faces,
    diagonal_identity,
    dump_bidegree,
    dwyer_defect,
    em_equal,
    face0_left,
    face0_right,
    higher_shuffle,
    identity_transform,
    shuffle_map,
    shuffles,
    word_pair,
    zero_transform,
)
from .words import (
    IDENTITY,
    NormalForm,
    OutOfRangeError,
    Word,
    ZERO_FORM,
    face,
    degeneracy,
    degeneracy_word,
    is_defined,
    normalize,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
