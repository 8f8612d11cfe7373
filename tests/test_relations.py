"""The verified relation catalog.

Case counts are frozen so that a silent shrink of a verification window
shows up as a failure, not as a quietly weaker check.
"""

import pytest

from simpdelta import relations
from simpdelta.relations import (
    FAMILIES,
    RelationResult,
    UnknownRelationError,
    check_relation,
    relation_names,
)
from simpdelta.transforms import (
    diagonal_faces,
    diagonal_identity,
    dwyer_defect,
    face0_left,
    identity_transform,
    word_pair,
)
from simpdelta.words import IDENTITY, Word, face

WINDOW6_CASES = {
    "simp0": 28,
    "simp1": 84,
    "simp2": 28,
    "simp3": 28,
    "simp4": 28,
    "simp5": 112,
    "d0-word": 2571,
    "D-chain-map": 28,
    "dwyer-0": 28,
    "dwyer-1": 25,
    "dwyer-2": 18,
}


def test_relation_names():
    names = relation_names(max_k=2)
    assert "simp0" in names and "simp5" in names
    assert "dwyer-0" in names and "dwyer-2" in names
    assert "recursion-1" in names and "recursion-2" in names
    assert "dwyer-3" not in names
    assert "D-chain-map-numeric" in names


def test_relation_families():
    simp = ["simp0", "simp1", "simp2", "simp3", "simp4", "simp5", "d0-word"]
    chainmap = ["D-chain-map", "D-chain-map-numeric"]
    dwyer = ["dwyer-0", "dwyer-1", "dwyer-2", "dwyer-3", "dwyer-4"]
    lemma3 = ["recursion-1", "recursion-2", "recursion-3", "recursion-4"]
    expected = {
        "simp": simp,
        "dwyer": dwyer,
        "lemma3": lemma3,
        "chainmap": chainmap,
        "all": simp + chainmap + dwyer + lemma3,
    }
    assert list(FAMILIES) == list(expected)
    for family, names in expected.items():
        assert relation_names(4, family) == names
    assert relation_names(4) == expected["all"]
    with pytest.raises(ValueError):
        relation_names(4, "nonsense")


@pytest.mark.parametrize("name", sorted(WINDOW6_CASES))
def test_catalog_window6(name):
    result = check_relation(name, 6)
    assert result
    assert result.passed
    assert result.witness is None
    assert result.cases == WINDOW6_CASES[name]


def test_window_scaling():
    # a 7-bidegree triangle less than window 6 everywhere
    assert check_relation("simp0", 5).cases == 21
    assert check_relation("simp5", 5).cases == 84
    assert check_relation("d0-word", 5).cases == 1986


def test_numeric_chain_map():
    result = check_relation("D-chain-map-numeric", 4)
    assert result.passed
    assert result.cases > 1000


def test_recursion_relations():
    for k in (1, 2, 3):
        result = check_relation(f"recursion-{k}", 6)
        assert result.passed, result.witness


def test_recursion_k1_defect_is_pinned():
    """The k = 1 recursion misses exactly d1 (x) id at bidegree (1, 0).

    Away from that single bidegree the two sides agree on the whole
    window; the catalog relation asserts the defect rather than hiding it.
    """
    lhs = dwyer_defect(1)
    rhs = dwyer_defect(0).suspend() + dwyer_defect(0) * word_pair(face(0), Word())
    defect = lhs.reduced(1, 0) ^ rhs.reduced(1, 0)
    assert {(str(a), str(b)) for a, b in defect} == {("d1", "id")}
    for total in range(7):
        for i in range(total + 1):
            j = total - i
            if (i, j) == (1, 0):
                continue
            assert lhs.reduced(i, j) == rhs.reduced(i, j), (i, j)


def test_dwyer_defect_below_the_line():
    """Where the i+j >= 2k hypothesis fails, so does the conclusion.

    The full survey of A^k against the diagonal identity on the window
    shows mismatches exactly at these bidegrees, all with i+j < 2k; the
    hypothesis in the k-th condition is doing real work.
    """
    expected = {
        1: [(1, 0)],
        2: [(1, 1), (1, 2), (2, 1)],
        3: [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)],
        4: [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (3, 4), (4, 3)],
    }
    for k, want in expected.items():
        a = dwyer_defect(k)
        phi = diagonal_identity(k)
        got = [
            (i, total - i)
            for total in range(9)
            for i in range(total + 1)
            if a.reduced(i, total - i) != phi.reduced(i, total - i)
        ]
        assert got == want, k
        assert all(i + j < 2 * k for i, j in got)


def test_unknown_relation():
    with pytest.raises(UnknownRelationError):
        check_relation("simp9")
    with pytest.raises(UnknownRelationError):
        check_relation("dwyer-x")


@pytest.mark.parametrize(
    "name", ["dwyer-+1", "dwyer- 1", "dwyer-0_1", "dwyer-01", "recursion-1 ",
             "dwyer-\u0661", "recursion-0", "dwyer--1", "dwyer-"])
def test_malformed_orders_are_unknown(name):
    # an order is ASCII digits with no leading zero, so the result is named
    # as asked; int() alone would run dwyer-1 or recursion-1 here
    with pytest.raises(UnknownRelationError):
        check_relation(name, 2)


def test_result_shape():
    result = check_relation("simp0", 4)
    assert isinstance(result, RelationResult)
    assert result.name == "simp0"
    assert result.description
    assert bool(result) is result.passed


def test_parts_add_up_and_the_first_failure_is_the_witness():
    """Every part's cases count, also after a part fails; the first failing
    part gives the witness, after its label."""
    parts = [
        ("F = a, ", identity_transform(), identity_transform()),
        # fails at (1, 1), its fifth bidegree
        ("F = b, ", diagonal_faces().suspend(), diagonal_faces()),
        # fails at (1, 0), its third
        ("F = c, ", face0_left(), face0_left() + word_pair(face(1), IDENTITY)),
        ("F = d, ", identity_transform(), identity_transform()),
    ]
    assert relations._symbolic("x", "y", parts, 5) == RelationResult(
        "x", "y", 21 + 5 + 3 + 21, False,
        "F = b, bidegree (1, 1): left-only [], right-only ['(d0 (x) d0)']",
    )


def test_a_broken_transform_fails_with_its_witness(monkeypatch):
    """With d_0 (x) d_0 added to delta, keeping its index function, the
    relations that read delta fail where they did before the catalog
    became a table, with the same cases and witness text."""
    honest = relations.diagonal_faces
    monkeypatch.setattr(
        relations, "diagonal_faces", lambda: honest() + word_pair(face(0), face(0))
    )
    assert check_relation("simp4", 5) == RelationResult(
        "simp4", "S(delta) = delta + d_0 (x) d_0", 5, False,
        "bidegree (1, 1): left-only [], right-only ['(d0 (x) d0)', '(d1 (x) d1)']",
    )
    assert check_relation("D-chain-map", 5) == RelationResult(
        "D-chain-map", "delta o D + D o (boundary (x) id) + D o (id (x) boundary) = 0",
        2, False, "bidegree (0, 1): left-only ['(id (x) d0)'], right-only []",
    )
    # simp1 and simp5 hold for any F, so every part of each still passes
    assert check_relation("simp1", 5).cases == 3 * 21
    assert check_relation("simp5", 5).cases == 4 * 21
    assert check_relation("simp1", 5) and check_relation("simp5", 5)
