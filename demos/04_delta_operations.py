"""
Homotopy operations on simplicial algebra classes
=================================================

On the homotopy of a simplicial F2-algebra there is an operation
delta_i : H_q -> H_{q+i} for 2 <= i <= q, computed by a closed shuffle
formula: sum s_nu(z) * s_mu(z) over the pairs of degeneracy blocks
that split a fixed window and anchor the mu block at q - i.  The same
value also falls out of evaluating a higher shuffle refinement on
z (x) z; the package keeps both routes and the tests hold them equal.
"""

import json
import warnings

from simpdelta.models import algebra_model
from simpdelta.operations import (
    NotACycleWarning,
    anchored_shuffle_pairs,
    degeneracy_word,
    delta_i,
    delta_report,
    delta_via_em,
)
from simpdelta.words import face

# The index pairs behind delta_2 on a degree-2 class.
print("anchored shuffle pairs for q = 2, i = 2:")
for mu, nu in anchored_shuffle_pairs(2, 2):
    print(f"  mu = {mu} -> {degeneracy_word(mu)},  "
          f"nu = {nu} -> {degeneracy_word(nu)}")

# delta_2 of the fundamental class of the Sphere(2) polynomial algebra.
am = algebra_model(2, 5, 2)
z = am.fundamental_class()
out = delta_i(am, z, 2)
print(f"\ndelta_2({am.element_str(z)}) in degree {out.degree}:")
print(" ", am.element_str(out))

# Both computation routes agree term by term.
print("matches the refinement route:", out == delta_via_em(am, z, 2))

# i = 1 is special: the output is not a cycle, its q-th face is the
# square of the input, and the package says so out loud.
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    almost = delta_i(am, z, 1)
print(f"\ndelta_1 warning: {caught[0].message}")
for j in range(4):
    d_j = am.apply_word(face(j), almost)
    print(f"  d{j} delta_1(z) = {am.element_str(d_j)}")

# delta_report bundles the value with cycle and homology certificates,
# ready for serialization; the CLI `delta` subcommand prints this.  A
# deeper truncation gives the perturbation cross-check room to move:
# the class is recomputed on representatives z + (boundary) and must
# not change.
deep = algebra_model(2, 5, 4)
rep = delta_report(deep, deep.fundamental_class(), 2,
                   perturbations=2, seed=7)
print("\nreport:", json.dumps(rep, indent=2, sort_keys=True))
