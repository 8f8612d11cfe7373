"""Homotopy operations on truncated sphere algebras."""

import math
import warnings

import pytest
from diagnostics import shuffle_pairs, shuffle_square
from hypothesis import given, strategies as st

from simpdelta import operations
from simpdelta.homology import (
    cycle_subspace,
    is_cycle,
    normalized_subspace,
    same_class,
)
from simpdelta.models import Model, algebra_model
from simpdelta.operations import (
    BadRangeError,
    NotACycleWarning,
    NotNormalizedCycleError,
    anchored_shuffle_pairs,
    degeneracy_word,
    delta_i,
    delta_report,
    delta_via_em,
)
from simpdelta.words import FACE, degeneracy, face


def test_pair_enumeration_counts_and_window():
    for q in range(1, 6):
        for i in range(1, q + 1):
            pairs = shuffle_pairs(q, i)
            assert len(pairs) == math.comb(2 * i, i)
            window = set(range(q - i, q + i))
            for mu, nu in pairs:
                assert len(mu) == i and len(nu) == i
                assert set(mu) | set(nu) == window
                assert list(mu) == sorted(mu)
                assert list(nu) == sorted(nu)
            assert pairs == sorted(pairs), "lexicographic in mu"
            anchored = anchored_shuffle_pairs(q, i)
            assert len(anchored) == math.comb(2 * i - 1, i - 1)
            assert all(mu[0] == q - i for mu, _ in anchored)
            assert anchored == sorted(anchored), "lexicographic in mu"
            assert set(anchored) <= set(pairs)


def test_frozen_anchored_pairs():
    assert anchored_shuffle_pairs(2, 2) == [
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    ]


def test_enumeration_range_errors():
    for bad in ((2, 0), (2, 3), (0, 1)):
        with pytest.raises(BadRangeError):
            shuffle_pairs(*bad)
        with pytest.raises(BadRangeError):
            anchored_shuffle_pairs(*bad)


def test_degeneracy_word_order():
    assert str(degeneracy_word((0, 1))) == "s1 s0"
    assert str(degeneracy_word((1, 3, 4))) == "s4 s3 s1"
    assert str(degeneracy_word(())) == "id"


@given(st.integers(1, 5), st.data())
def test_anchored_pairs_hypothesis(q, data):
    """The anchored pairs are the full enumeration filtered on mu's first index."""
    i = data.draw(st.integers(1, q))
    anchored = anchored_shuffle_pairs(q, i)
    assert anchored == [(mu, nu) for mu, nu in shuffle_pairs(q, i) if mu[0] == q - i]


def test_delta2_frozen_value():
    am = algebra_model(2, 5, 2)
    z = am.fundamental_class()
    out = delta_i(am, z, 2)
    assert sorted(am.label_str(m) for m in out.support) == [
        "(0-0-0-1-2)*(0-1-2-2-2)",
        "(0-0-1-1-2)*(0-1-1-2-2)",
        "(0-0-1-2-2)*(0-1-1-1-2)",
    ]
    assert is_cycle(am, out)


def test_delta1_remark():
    """delta_1 is not a cycle: the last face returns the square."""
    am = algebra_model(2, 5, 2)
    z = am.fundamental_class()
    with pytest.warns(NotACycleWarning, match="face d2 equals z\\^2"):
        out = delta_i(am, z, 1)
    zz = am.multiply(z, z)
    for r in range(4):
        got = am.apply_word(face(r), out)
        assert got == (zz if r == 2 else am.zero(2))


def test_delta_equals_em_route():
    am = algebra_model(3, 6, 2)
    z = am.fundamental_class()
    for i in (2, 3):
        assert delta_i(am, z, i) == delta_via_em(am, z, i)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotACycleWarning)
        assert delta_i(am, z, 1) == delta_via_em(am, z, 1)


@pytest.mark.parametrize("q", [6, 7])
def test_the_two_routes_agree_on_a_large_top_operation(q):
    # the models of delta --q q --i q, which the size guard refuses: the
    # operations act label by label and build no basis
    am = algebra_model(q, 2 * q + 1, 2)
    z = am.fundamental_class()
    value = delta_i(am, z, q)
    assert value and is_cycle(am, value)
    assert value == delta_via_em(am, z, q)
    assert am._basis == {}


def test_top_operation_is_the_square_defect():
    # mu D(z (x) z) with both blocks anchored collapses to zero here
    am = algebra_model(2, 5, 2)
    z = am.fundamental_class()
    assert not shuffle_square(am, z)
    with pytest.raises(BadRangeError):
        shuffle_square(am, am.unit(0))


def test_delta_range_and_cycle_errors():
    am = algebra_model(2, 5, 2)
    z = am.fundamental_class()
    for bad_i in (0, 3):
        with pytest.raises(BadRangeError):
            delta_i(am, z, bad_i)
        with pytest.raises(BadRangeError):
            delta_via_em(am, z, bad_i)
    # both routes take the same inputs: s_0 z has the nonzero face d_0 s_0 z = z
    s0z = am.apply_word(degeneracy(0), z)
    with pytest.raises(NotNormalizedCycleError, match="face d0"):
        delta_i(am, s0z, 2)
    with pytest.raises(NotNormalizedCycleError, match="face d0"):
        delta_via_em(am, s0z, 2)


def test_representative_independence():
    """The class of delta_i(z) only depends on the class of z."""
    am = algebra_model(2, 6, 4)
    z = am.fundamental_class()
    zz = am.multiply(z, z)
    # z + z^2 is again a normalized cycle and z^2 is a normalized boundary
    assert is_cycle(am, z + zz)
    assert same_class(am, zz, am.zero(2))
    assert same_class(am, delta_i(am, z, 2), delta_i(am, z + zz, 2))


def test_delta_report_contents():
    am = algebra_model(2, 6, 4)
    rep = delta_report(am, am.fundamental_class(), 2, perturbations=3, seed=0)
    assert rep["q"] == 2 and rep["i"] == 2 and rep["degree"] == 4
    assert rep["is_cycle"] and rep["equals_theta"]
    assert rep["homology_class_nonzero"] is True
    assert rep["terms"] == [
        ["s3 s2", "s1 s0"],
        ["s3 s1", "s2 s0"],
        ["s2 s1", "s3 s0"],
    ]
    assert rep["value"] == [
        "(0-0-0-1-2)*(0-1-2-2-2)",
        "(0-0-1-1-2)*(0-1-1-2-2)",
        "(0-0-1-2-2)*(0-1-1-1-2)",
    ]
    assert rep["class_stable_under_boundary_perturbations"] is True
    assert rep["perturbations_checked"] == 3


@pytest.mark.parametrize("q, i", [(q, i) for q in range(2, 5) for i in range(2, q + 1)])
def test_every_p2_operation_on_the_fundamental_class_is_nonzero(q, i):
    # at P = 2 each delta_i of the degree-q class generates homotopy in
    # degree q + i (Bousfield 1967; Dwyer 1980)
    am = algebra_model(q, q + i + 1, 2)
    rep = delta_report(am, am.fundamental_class(), i)
    assert rep["is_cycle"] and rep["equals_theta"]
    assert rep["homology_class_nonzero"] is True


def test_no_normalized_boundary_fits_below_poly_4():
    """At P = 2 and 3 half the bound is one factor, and no nonzero
    normalized boundary fits it, whatever q and i: faces keep a
    monomial's length, and the normalized parts of length 0 and 1 vanish
    in degree q + 1.  So delta_report seeks none below P = 4."""
    nonzero = 0
    for poly in (2, 3):
        for q in range(1, 5):
            for i in range(1, q + 1):
                model = algebra_model(q, q + i + 1, poly)
                bounds = [model.boundary(y)
                          for y in normalized_subspace(model, q + 1)]
                bounds = [b for b in bounds if b]
                nonzero += len(bounds)
                fits = [b for b in bounds
                        if all(len(m) <= poly // 2 for m in b.support)]
                assert fits == [], (poly, q, i)
    assert nonzero > 0  # the boundaries exist; they are only too long


def test_delta_report_seeks_no_perturbation_below_poly_4(monkeypatch):
    def no_subspace(*args):
        raise AssertionError("normalized_subspace was built below P = 4")

    monkeypatch.setattr(operations, "normalized_subspace", no_subspace)
    for poly in (2, 3):
        am = algebra_model(2, 5, poly)
        rep = delta_report(am, am.fundamental_class(), 2, perturbations=2)
        assert rep["homology_class_nonzero"] is True
        assert rep["perturbations_checked"] == 0
        assert rep["class_stable_under_boundary_perturbations"] is None


def test_delta_report_for_the_noncycle_case():
    am = algebra_model(3, 6, 2)
    rep = delta_report(am, am.fundamental_class(), 1)
    assert rep["is_cycle"] is False
    assert rep["homology_class_nonzero"] is None
    assert "warning" in rep


def test_class_verdict_is_null_exactly_when_the_face_sum_survives(monkeypatch):
    """The report's guard, the normalized cycle test of the value, agrees
    with the test it replaced, a nonzero face sum of the value.  Only the
    guard is under test, so the class itself is not computed."""
    monkeypatch.setattr(operations, "same_class", lambda *args: False)
    nulls = {True: 0, False: 0}
    for poly in (2, 3, 4):
        for quotient in (False, True):
            for q in range(1, 5):
                for i in range(1, q + 1):
                    am = algebra_model(q, q + i + 1, poly, quotient)
                    # a window model must be able to square every monomial
                    spanning = [c for c in cycle_subspace(am, q) if quotient
                                or all(2 * len(m) <= poly for m in c.support)]
                    for z in [am.fundamental_class()] + spanning[1:3]:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", NotACycleWarning)
                            rep = delta_report(am, z, i)
                            survives = bool(am.boundary(delta_i(am, z, i)))
                        null = rep["homology_class_nonzero"] is None
                        assert null == survives, (poly, quotient, q, i, z)
                        nulls[null] += 1
    assert nulls[True] > 0 and nulls[False] > 0
    assert sum(nulls.values()) == 120


@pytest.mark.parametrize("q, seed", [(2, 20), (2, 37), (3, 5), (3, 20)])
def test_every_drawn_perturbation_moves_the_input(monkeypatch, q, seed):
    # the fitting boundaries span one dimension here, so a draw from the
    # boundaries themselves can sum to zero and perturb nothing
    inputs = []

    def recorded(model, x, i):
        inputs.append(x)
        return delta_i(model, x, i)

    monkeypatch.setattr(operations, "delta_i", recorded)
    am = algebra_model(q, q + 3, 4)
    z = am.fundamental_class()
    rep = delta_report(am, z, 2, perturbations=2, seed=seed)
    assert rep["perturbations_checked"] == 2
    assert rep["class_stable_under_boundary_perturbations"] is True
    assert inputs[0] == z and len(inputs) == 3
    assert all(x != z for x in inputs[1:])


def test_the_report_asks_each_face_once(monkeypatch):
    """On the benchmark's delta run the report applies at most 83 face
    words, against 317 when it also summed the faces of every value it
    had already tested: the input's faces once per route and once per
    perturbed input, the value's faces once, and one d_0 per normalized
    boundary."""
    count = 0
    apply_word = Model.apply_word

    def counting(self, w, x):
        nonlocal count
        count += len(w.factors) == 1 and w.factors[0][0] == FACE
        return apply_word(self, w, x)

    monkeypatch.setattr(Model, "apply_word", counting)
    am = algebra_model(3, 6, 4)
    rep = delta_report(am, am.fundamental_class(), 2, perturbations=4, seed=0)
    assert rep["perturbations_checked"] == 4
    assert count <= 83
