"""The nested binary sum that the transform tests compare flat sums against.

A transform sum is one flat node over the summands of both operands, and
it keeps no terms.  The oracle is the definition it replaces: one node
per ``+``, whose terms at a bidegree are its two operands' terms XORed,
kept per bidegree.  ``nested_sums`` builds transforms with the package's
own formulas while every ``+`` is the oracle's, so a sum of sums is a
tree of binary nodes there.
"""

from collections.abc import Callable

import pytest

from simpdelta import transforms
from simpdelta.transforms import EMTransform, IndexMismatchError


def binary_sum(left: EMTransform, right: EMTransform) -> EMTransform:
    """left + right as one node that keeps its terms."""
    if left.index_fn != right.index_fn:
        raise IndexMismatchError(f"{left.index_fn.rows} != {right.index_fn.rows}")
    return EMTransform(left.index_fn, lambda i, j: left.terms(i, j) ^ right.terms(i, j))


def nested_sums(builders: dict[str, Callable[[], list]]) -> dict[str, list]:
    """Each builder's transforms, built with every + a `binary_sum`.

    The refinements are built again in a table of their own, so no flat
    D^k from the package's table enters an oracle.  Every + runs while
    a transform is built, none while its terms are read, so the sums
    stay binary after the patch is undone.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EMTransform, "__add__", binary_sum)
        patch.setattr(transforms, "_REFINEMENTS", [])
        return {name: build() for name, build in builders.items()}
