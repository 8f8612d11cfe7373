"""Acceptance sweep: one test per guarantee in the README, each timed.

Each test appends a single PASS or FAIL line to LINES and the conftest
terminal hook prints the collected lines after the run.  Time budgets
are asserted, not just reported, so a performance regression fails the
suite instead of silently eating the margin.

The one expected failure is deliberate: the defect recursion at k = 1
is false at the single bidegree (1, 0), see
test_criterion_2_recursion_k1_stated_everywhere.
"""
from __future__ import annotations

import json
import random
import time
import warnings
from pathlib import Path

import pytest

from simpdelta.homology import (
    associated_complex,
    cycle_subspace,
    normalized_complex,
    same_class,
)
from simpdelta.models import (
    OutOfRangeError,
    algebra_model,
    boundary_delta_model,
    delta_model,
    sphere_model,
    tensor,
)
from simpdelta.operations import (
    NotACycleWarning,
    delta_i,
    delta_via_em,
    evaluate_em,
)
from simpdelta.relations import check_relation
from simpdelta.transforms import (
    dwyer_defect,
    em_equal,
    face0_left,
    face0_right,
    higher_shuffle,
)
from simpdelta.words import DEGENERACY, FACE, Word, face, is_defined, normalize

from test_words import oracle_apply, oracle_defined

GOLDEN = Path(__file__).parent / "golden"

LINES: list[str] = []


def record(label: str, detail: str, elapsed: float, budget: float) -> None:
    ok = elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    LINES.append(f"{verdict} {label}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"{label} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"


def test_criterion_1_dwyer_conditions() -> None:
    """A^k agrees with the diagonal pair at every bidegree above the 2k line."""
    t0 = time.perf_counter()
    cases = 0
    for k in range(5):
        res = check_relation(f"dwyer-{k}", 10)
        assert res.passed, f"k={k}: {res.witness}"
        cases += res.cases
    record(
        "criterion-1",
        f"Dwyer conditions hold for k=0..4 at every bidegree with "
        f"i+j >= 2k inside i+j <= 10 ({cases} bidegrees)",
        time.perf_counter() - t0,
        60.0,
    )


def _recursion_sides(k: int):
    """Both sides of the defect recursion, built independently of the catalog."""
    prev = dwyer_defect(k - 1)
    step = face0_right() if k % 2 == 0 else face0_left()
    return dwyer_defect(k), prev.suspend() + prev * step


def test_criterion_2_recursion() -> None:
    """The defect recursion, with the k = 1 exception pinned exactly.

    For k = 2, 3, 4 the two sides agree at every bidegree in the window.
    For k = 1 they agree everywhere except (1, 0), where the difference
    is exactly d1 (x) id; asserting the defect verbatim means drift in
    either direction still fails the test.
    """
    t0 = time.perf_counter()
    checked = 0
    for k in range(2, 5):
        lhs, rhs = _recursion_sides(k)
        rep = em_equal(lhs, rhs, 10)
        assert rep.equal, f"k={k} witness {rep.witness}: " \
            f"left-only {rep.left_only} right-only {rep.right_only}"
        checked += rep.bidegrees_checked
    lhs, rhs = _recursion_sides(1)
    for total in range(11):
        for i in range(total + 1):
            j = total - i
            lv, rv = lhs.reduced(i, j), rhs.reduced(i, j)
            checked += 1
            if (i, j) == (1, 0):
                defect = {(str(a), str(b)) for a, b in lv ^ rv}
                assert defect == {("d1", "id")}, defect
            else:
                assert lv == rv, (i, j)
    record(
        "criterion-2",
        f"defect recursion exact for k=2..4 on i+j <= 10; for k=1 exact "
        f"except the pinned d1 (x) id defect at (1,0) ({checked} bidegrees)",
        time.perf_counter() - t0,
        60.0,
    )


@pytest.mark.xfail(
    strict=True,
    reason="the k = 1 recursion is false at bidegree (1, 0): the left side "
    "is d0 (x) id + d1 (x) id, the right side d0 (x) id only",
)
def test_criterion_2_recursion_k1_stated_everywhere() -> None:
    """The k = 1 recursion stated at every bidegree, kept as expected failure.

    The derivation suspends the k = 0 defect from source bidegree (0, 0),
    whose target lies at (-1, -1); suspension of word pairs and of
    transformations disagree on sums whose targets are negative, and the
    loss is visible at (1, 0).  The bidegree sits below the i+j >= 2k
    line, so the Dwyer conditions themselves (criterion 1) are unaffected.
    This test states the recursion literally and is expected to fail; the
    strict marker turns an accidental pass into a suite failure so the
    discrepancy cannot rot silently.
    """
    t0 = time.perf_counter()
    lhs, rhs = _recursion_sides(1)
    rep = em_equal(lhs, rhs, 10)
    elapsed = time.perf_counter() - t0
    if not rep.equal:
        LINES.append(
            f"FAIL criterion-2 (k=1 stated everywhere): recursion fails at "
            f"bidegree {rep.witness} with defect d1 (x) id; known exception, "
            f"expected failure ({elapsed:.2f}s, budget 60s)"
        )
    assert rep.equal, f"witness {rep.witness}"


def test_criterion_3_chain_map() -> None:
    """The shuffle map is a chain map, symbolically and on simplex bases."""
    t0 = time.perf_counter()
    sym = check_relation("D-chain-map", 8)
    assert sym.passed, sym.witness
    num = check_relation("D-chain-map-numeric", 8)
    assert num.passed, num.witness
    record(
        "criterion-3",
        f"chain-map identity for the shuffle map: symbolic on i+j <= 8 "
        f"({sym.cases} bidegrees) and numeric on simplex model bases "
        f"({num.cases} evaluations)",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_4_simplicial_identities() -> None:
    """The six generator identities plus the d0-word intertwiner."""
    t0 = time.perf_counter()
    cases = 0
    for name in ("simp0", "simp1", "simp2", "simp3", "simp4", "simp5",
                 "d0-word"):
        res = check_relation(name, 8)
        assert res.passed, f"{name}: {res.witness}"
        cases += res.cases
    record(
        "criterion-4",
        f"simplicial identities and d0 intertwining of suspension on "
        f"i+j <= 8 ({cases} instances)",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_5_delta_outputs_are_normalized_cycles() -> None:
    """delta_i of every degree-q cycle is a normalized cycle.

    Runs on the truncated polynomial algebra on Sphere(q) (quotient
    semantics, bound 4) so that the spanning set of degree-q cycles
    contains all powers of the fundamental class up to the bound.
    """
    t0 = time.perf_counter()
    checked = 0
    for q in (2, 3, 4):
        am = algebra_model(q, 2 * q, 4, quotient=True)
        spanning = cycle_subspace(am, q)
        assert len(spanning) == 4, [am.element_str(v) for v in spanning]
        for i in range(2, q + 1):
            for z in spanning:
                out = delta_i(am, z, i)
                for r in range(q + i + 1):
                    face_r = am.apply_word(face(r), out)
                    assert not face_r.support, (q, i, r)
                checked += 1
    record(
        "criterion-5",
        f"delta_i lands in normalized cycles for q=2,3,4, all 2 <= i <= q, "
        f"every spanning cycle, all q+i+1 faces ({checked} outputs)",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_6_delta_1_face_defect() -> None:
    """delta_1 fails to be a cycle in exactly one face, which is the square."""
    t0 = time.perf_counter()
    for q in (2, 3, 4):
        am = algebra_model(q, 2 * q, 4, quotient=True)
        z = am.fundamental_class()
        with pytest.warns(NotACycleWarning):
            out = delta_i(am, z, 1)
        square = am.multiply(z, z)
        for j in range(q + 2):
            face_j = am.apply_word(face(j), out)
            if j == q:
                assert face_j == square, (q, j)
            else:
                assert not face_j.support, (q, j)
    record(
        "criterion-6",
        "d_j delta_1(z) = 0 for j != q and d_q delta_1(z) = z^2 on the "
        "Sphere(q) algebra models, q=2,3,4",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_7_closed_formula_matches_em_route() -> None:
    """Two independent routes to the operations coincide on the nose."""
    t0 = time.perf_counter()
    chains = 0
    for q in range(1, 5):
        am = algebra_model(q, 2 * q, 2)
        z = am.fundamental_class()
        for i in range(1, q + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NotACycleWarning)
                assert delta_i(am, z, i) == delta_via_em(am, z, i), (q, i)
            chains += 1
    evaluations = 0
    for q in range(1, 5):
        sm = sphere_model(q, 2 * q)
        zz = tensor(sm.fundamental_class(), sm.fundamental_class())
        for k in range(q + 1):
            suspended = higher_shuffle(0)
            for _ in range(k):
                suspended = suspended.suspend()
            left = evaluate_em(higher_shuffle(k), zz, sm, sm)
            right = evaluate_em(suspended, zz, sm, sm)
            assert left == right, (q, k)
            # below the top refinement the value is a nonzero certificate
            assert bool(left.pairs) == (k < q), (q, k)
            evaluations += 1
    record(
        "criterion-7",
        f"closed formula equals the refinement route chain-for-chain "
        f"({chains} pairs, q <= 4) and every refinement on z (x) z equals "
        f"the iterated suspension of the shuffle map ({evaluations} values)",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_8_delta_2_class_and_homology_agreement() -> None:
    """delta_2 of the Sphere(2) class is the frozen nonzero degree-4 class.

    The value is pinned against a golden file recorded at first
    derivation; nonvanishing of the class is decided by GF(2)
    elimination in the truncated polynomial model.  The same test checks
    that normalized and associated chain complexes grade identical
    homology on every model family in the suite.
    """
    t0 = time.perf_counter()
    am = algebra_model(2, 5, 2)
    z = am.fundamental_class()
    val = delta_i(am, z, 2)
    got = {
        "model": {"n": 2, "max_degree": 5, "poly_bound": 2},
        "operation": "delta_2",
        "input": am.label_str(next(iter(z.support))),
        "degree": val.degree,
        "terms": len(val.support),
        "value": sorted(am.label_str(lbl) for lbl in val.support),
        "homology_class_nonzero": not same_class(am, val, am.zero(4)),
    }
    want = json.loads((GOLDEN / "criterion8_delta2_class.json").read_text())
    assert got == want
    assert got["degree"] == 4 and got["homology_class_nonzero"] is True

    models = [
        delta_model(1, 4),
        delta_model(2, 4),
        boundary_delta_model(2, 4),
        sphere_model(2, 5),
        sphere_model(3, 5),
        algebra_model(2, 5, 2),
        algebra_model(2, 4, 4, quotient=True),
    ]
    degrees = 0
    for model in models:
        assoc = associated_complex(model).betti_rows()
        norm = normalized_complex(model).betti_rows()
        assert len(assoc) == len(norm)
        for (qa, _, _, ba), (qn, _, _, bn) in zip(assoc, norm):
            assert qa == qn and ba == bn, (model.name, qa, ba, bn)
            degrees += 1
    record(
        "criterion-8",
        f"delta_2 of the Sphere(2) class matches the golden nonzero "
        f"degree-4 homology class; normalized and associated betti "
        f"numbers agree on {len(models)} models ({degrees} degrees)",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_9_random_words_against_the_oracle() -> None:
    """10000 seeded random words behave identically along every route.

    For each word: definedness matches an independent left-to-right
    degree walk; on simplex models the word acts the same directly and
    through its normal form; and whenever the word is defined and does
    not annihilate, its suspension is defined one degree up and its
    normal form suspends termwise.  Annihilating words are skipped in
    the suspension clause: suspension shifts zero forms into words that
    may act nonzero (d0 d0 at degree 1 becomes d1 d1 at degree 2), so no
    transfer is promised there.
    """
    t0 = time.perf_counter()
    rng = random.Random(1089)
    models = {n: delta_model(n, 17) for n in range(7)}
    kinds = (FACE, DEGENERACY)
    defined_count = zero_count = undefined_count = 0
    for _ in range(10_000):
        n = rng.randint(0, 6)
        q = rng.randint(0, 6)
        length = rng.randint(0, 10)
        # layered index ranges keep a healthy share of defined words
        word = Word(tuple(
            (rng.choice(kinds), rng.randint(0, rng.choice((2, 4, 8))))
            for _ in range(length)
        ))
        label = tuple(sorted(rng.randint(0, n) for _ in range(q + 1)))
        dm = models[n]
        x = dm.element([label], q)
        defined = is_defined(word, q)
        assert defined == oracle_defined(word, q), (word, q)
        if not defined:
            with pytest.raises(OutOfRangeError):
                dm.apply_word(word, x)
            undefined_count += 1
            continue
        direct = oracle_apply(word, label)
        via_model = dm.apply_word(word, x)
        nf = normalize(word, q)
        if direct is None:
            assert not via_model.support, (word, q, label)
            assert nf.is_zero, (word, q)
            zero_count += 1
            continue
        assert via_model.support == {direct}, (word, q, label)
        assert dm.apply_word(nf.word(), x) == via_model, (word, q, label)
        suspended = word.suspend()
        assert is_defined(suspended, q + 1), (word, q)
        assert normalize(suspended, q + 1) == nf.suspend(), (word, q)
        defined_count += 1
    assert defined_count + zero_count + undefined_count == 10_000
    record(
        "criterion-9",
        f"10000 seeded words on Delta(n) simplices, n <= 6: definedness, "
        f"direct versus normal-form action, and suspension transfer all "
        f"agree ({defined_count} defined / {zero_count} annihilated / "
        f"{undefined_count} undefined)",
        time.perf_counter() - t0,
        30.0,
    )
