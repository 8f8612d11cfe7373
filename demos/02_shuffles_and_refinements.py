"""
The shuffle map and its higher refinements
==========================================

The shuffle map sends a pair of simplices in degrees i and j to a sum
of products of degenerated copies in degree i + j, one term per way of
interleaving two ordered piles.  It is the zeroth member of a family
D^0, D^1, D^2, ... of bidegree-indexed transformations built by a
suspension recursion; each member measures how far the previous one is
from commuting with the twist.
"""

from simpdelta.models import delta_model, tensor
from simpdelta.operations import evaluate_em
from simpdelta.transforms import (
    dump_bidegree,
    dwyer_defect,
    higher_shuffle,
    shuffle_map,
)

D = shuffle_map()

# At bidegree (1, 1) there are binom(2, 1) = 2 interleavings.
print("shuffle terms at (1, 1):", dump_bidegree(D, 1, 1)["terms"])
print("shuffle terms at (2, 1):", dump_bidegree(D, 2, 1)["terms"])

# Evaluating on actual simplices: the edge of Delta(1) against itself
# gives the two triangulating triangles of the square.
dm = delta_model(1, 3)
edge = dm.element([(0, 1)], 1)
value = evaluate_em(D, tensor(edge, edge), dm, dm)
for left, right in sorted(
    (dm.label_str(a), dm.label_str(b)) for a, b in value.pairs
):
    print(f"  {left} (x) {right}")

# The first refinement D^1 exists because D fails to be symmetric.
# Its value at (1, 1) is a single mixed term.
print("D^1 at (1, 1):", dump_bidegree(higher_shuffle(1), 1, 1)["terms"])

# The defect transformation packages D^k, its twist, and boundary
# correction terms.  Above the line i + j >= 2k it reduces to the
# identity pair at (k, k) and to nothing anywhere else; that is the
# statement the relation catalog verifies wholesale.
A1 = dwyer_defect(1)
for bidegree in [(1, 1), (2, 1), (2, 2), (3, 2)]:
    print(f"A^1 reduced at {bidegree}:",
          dump_bidegree(A1, *bidegree, reduced=True)["terms"])

# Suspension and twist act on whole transformations.  Twisting D twice
# gives D back.
print("twist(twist(D)) == D at (2, 2):",
      dump_bidegree(D.twist().twist(), 2, 2) == dump_bidegree(D, 2, 2))

# Suspending shifts the whole grid diagonally.
SD = D.suspend()
print("suspend(D) at (2, 2):", dump_bidegree(SD, 2, 2)["terms"])
print("        D  at (1, 1):", dump_bidegree(D, 1, 1)["terms"])
