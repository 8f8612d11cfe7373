"""Mutants of the package that the test suite must kill, and their runner.

Each mutant names a file under ``src/simpdelta``, an exact text in it, the
text that replaces it, and the test node ids that must fail once it does.
The runner makes one copy of ``src/`` and ``tests/`` per CPU in a temporary
directory and first requires an unmutated copy to pass every listed node
id.  Then each worker takes a free copy, applies one mutant alone, runs only
that mutant's node ids, and puts the copy back: a run must end with a
failing test (pytest exit 1).  Results print in the order of ``MUTANTS``.
Bytecode is never written, so no run reads a ``.pyc`` left by another
mutation of the same file.  An old text that does not occur exactly once
fails the runner, so a change to mutated code updates or retires its
mutant in the same change.

pytest does not collect this file.  Run it from anywhere:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # under src/simpdelta
    old: str
    new: str
    tests: tuple[str, ...]


PER_WORD_CALLS = "tests/test_models.py::test_evaluate_em_makes_the_per_word_calls"
FACE_ROWS = "tests/test_homology.py::test_face_rows_match_label_oracle"
KEEPING = "tests/test_transforms.py::test_derived_transforms_keep_no_terms_and_kept_ones_do"
NO_RULE_TWICE = "tests/test_transforms.py::test_no_rule_runs_twice_at_one_bidegree_in_one_relation"
LABEL_ORACLE = "tests/test_homology.py::test_label_free_complexes_match_label_oracle"
FIRST_WITNESS = "tests/test_relations.py::test_parts_add_up_and_the_first_failure_is_the_witness"
DENSE_ORACLE = "tests/test_gf2.py::test_sparse_elimination_matches_the_dense_oracle"
NONZERO_DRAWS = "tests/test_operations.py::test_every_drawn_perturbation_moves_the_input"
SMALL_MATRIX = "tests/test_gf2.py::test_small_matrix"
PRODUCT_FORMS = "tests/test_words.py::test_a_product_continues_its_right_operand_form"
FAILED_WRITE = "tests/test_cli.py::test_a_failed_write_to_stdout_exits_2"

MUTANTS = [
    # the catalog as one table: every part's cases count, the first
    # failing part gives the witness
    Mutant(
        "witness-from-the-last-failing-part", "relations.py",
        "if witness is None and not rep.equal:",
        "if not rep.equal:",
        (FIRST_WITNESS,)),
    Mutant(
        "stop-after-a-failing-part", "relations.py",
        """    for label, lhs, rhs in parts:
        rep = em_equal(lhs, rhs, max_total, min_total)""",
        """    for label, lhs, rhs in parts:
        if witness is not None:
            break
        rep = em_equal(lhs, rhs, max_total, min_total)""",
        (FIRST_WITNESS,)),
    # an order is read as ASCII digits with no leading zero, not by int()
    Mutant(
        "relation-order-read-by-int", "relations.py",
        "if str(k) != digits or k < lo:",
        "if k < lo:",
        ("tests/test_relations.py::test_malformed_orders_are_unknown",)),
    # the refused count's order of magnitude, read off its digits, and the
    # capped counts: exact up to the cap, and past it over the cap but
    # never over the count
    Mutant(
        "order-of-magnitude-off-by-one", "cli.py",
        'f"about 10^{len(str(size)) - 1}"',
        'f"about 10^{len(str(size))}"',
        ("tests/test_cli.py::test_module_estimate_is_the_exact_count_text",)),
    Mutant(
        "binomial-stops-at-the-cap", "models.py",
        "if cap is not None and c > cap:",
        "if cap is not None and c >= cap:",
        ("tests/test_models.py::test_capped_binomial_is_math_comb",)),
    Mutant(
        "boundary-bound-is-the-whole-count", "models.py",
        "missing_0 = binomial(self.n + degree, degree + 1, cap)",
        "missing_0 = binomial(self.n + degree + 1, degree + 1, cap)",
        ("tests/test_models.py::test_ln_dimension_is_the_log_of_the_dimension[1-1-boundary_delta_model]",)),
    Mutant(
        "anchored-pairs-reversed", "operations.py",
        "return [((q - i,) + mu, nu) for mu, nu in shuffles(rest, i - 1)]",
        "return [((q - i,) + mu, nu) for mu, nu in shuffles(rest, i - 1)][::-1]",
        ("tests/test_operations.py::test_frozen_anchored_pairs",)),
    # evaluate_em: one row per label, and no right image where the left is zero
    Mutant(
        "right-image-where-left-is-zero", "models.py",
        """                if la is None:
                    continue
                if wr in rimages:
                    lb = rimages[wr]
                else:
                    out = right_model.apply_word(wr, xb)
                    lb = rimages[wr] = next(iter(out.support), None)
                if lb is not None:""",
        """                if wr in rimages:
                    lb = rimages[wr]
                else:
                    out = right_model.apply_word(wr, xb)
                    lb = rimages[wr] = next(iter(out.support), None)
                if la is not None and lb is not None:""",
        (PER_WORD_CALLS,)),
    Mutant(
        "no-per-call-rows", "models.py",
        "                if wl in limages:",
        "                if False:",
        (PER_WORD_CALLS,)),
    # face tables
    Mutant(
        "module-faces-in-reverse-order", "models.py",
        "gathers = [self._compile(face(r), q)[1] for r in range(q + 1)]",
        "gathers = [self._compile(face(r), q)[1] for r in reversed(range(q + 1))]",
        (FACE_ROWS,)),
    Mutant(
        "product-row-ending-in-0", "models.py",
        "for g in range(ngens)] + [-1]",
        "for g in range(ngens)] + [0]",
        (FACE_ROWS,)),
    Mutant(
        "product-last-row-of-0s", "models.py",
        "mul.append([-1] * (ngens + 1))",
        "mul.append([0] * (ngens + 1))",
        (FACE_ROWS,)),
    Mutant(
        "unit-faces-at-minus-1", "models.py",
        "table = tuple([0] for _ in sphere)",
        "table = tuple([-1] for _ in sphere)",
        (FACE_ROWS,)),
    # module models list their labels: the sphere from its degeneracy masks,
    # in lex order, and only the sphere's θ rule drops an image
    Mutant(
        "sphere-masks-reversed", "models.py",
        "for mask in combinations(positions, m - self.n))",
        "for mask in reversed(list(combinations(positions, m - self.n))))",
        ("tests/test_models.py::test_module_labels_are_the_filtered_tuples[sphere_model]",)),
    Mutant(
        "sphere-theta-unchecked", "models.py",
        "return img if len(set(img)) == self.n + 1 else None",
        "return img",
        (f"{FACE_ROWS}[Sphere(2)]",)),
    # an empty top degree is charged as one label of work
    Mutant(
        "empty-top-degree-costs-nothing", "cli.py",
        "max(dimension(cap), 1)",
        "dimension(cap)",
        ("tests/test_cli.py::test_work_budget_admits_the_calibration_runs"
         "[BoundaryDelta(0)-27027009001-False]",)),
    # the closed formula is the refinement route as a sum of words: each
    # unordered split of the window once, the block holding q - i first
    Mutant(
        "anchor-dropped", "operations.py",
        "return [((q - i,) + mu, nu) for mu, nu in shuffles(rest, i - 1)]",
        "return [(mu, nu) for mu, nu in shuffles((q - i,) + rest, i)]",
        ("tests/test_operations.py::test_the_two_routes_agree_as_word_sums",)),
    # the one mod-2 sum, the face-sum guard and the stability verdict
    Mutant(
        "mod2-only-adds", "gf2.py",
        "            odd.remove(x)",
        "            odd.add(x)",
        ("tests/test_gf2.py::test_mod2_keeps_the_items_of_odd_count",)),
    Mutant(
        "boundary-right-count-off-by-one", "cli.py",
        '"boundary-right": args.j,',
        '"boundary-right": args.j + 1,',
        ("tests/test_cli.py::test_face_sums_at_the_term_budget_are_dumped",)),
    Mutant(
        "stable-verdict-with-nothing-checked", "operations.py",
        "all(verdicts) if verdicts else None)",
        "all(verdicts))",
        ("tests/test_cli.py::test_no_stability_verdict_without_a_perturbation",)),
    # which transforms keep their raw terms
    Mutant(
        "composite-keeps-terms", "transforms.py",
        "return EMTransform._derived(self.index_fn.after(other.index_fn), rule)",
        "return EMTransform(self.index_fn.after(other.index_fn), rule)",
        (KEEPING,)),
    Mutant(
        "suspension-keeps-terms", "transforms.py",
        "return EMTransform._derived(self.index_fn.suspended(), rule)",
        "return EMTransform(self.index_fn.suspended(), rule)",
        (KEEPING,)),
    Mutant(
        "twist-keeps-terms", "transforms.py",
        "return EMTransform._derived(self.index_fn.twisted(), rule)",
        "return EMTransform(self.index_fn.twisted(), rule)",
        (KEEPING,)),
    Mutant(
        "kept-builds-a-derived-transform", "transforms.py",
        "return EMTransform(self.index_fn, self.terms)",
        "return EMTransform._derived(self.index_fn, self.terms)",
        (KEEPING,)),
    Mutant(
        "kept-reads-the-swapped-bidegree", "transforms.py",
        "return EMTransform(self.index_fn, self.terms)",
        "return EMTransform(self.index_fn, lambda i, j: self.terms(j, i))",
        ("tests/test_transforms.py::test_refinement_base_values",)),
    Mutant(
        "refinement-level-wrapped-not-its-summands", "transforms.py",
        "levels.append(prev.suspend().kept() + tail.kept())",
        "levels.append((prev.suspend() + tail).kept())",
        ("tests/test_transforms.py::test_flat_sums_equal_the_nested_binary_sums[D^1]",)),
    Mutant(
        "d0-unwrapped", "transforms.py",
        "levels.append((shuffle_map().suspend() * degen0_right()).kept())",
        "levels.append(shuffle_map().suspend() * degen0_right())",
        (KEEPING,)),
    Mutant(
        "level-suspension-unwrapped", "transforms.py",
        "levels.append(prev.suspend().kept() + tail.kept())",
        "levels.append(prev.suspend() + tail.kept())",
        (NO_RULE_TWICE,)),
    Mutant(
        "level-tail-unwrapped", "transforms.py",
        "levels.append(prev.suspend().kept() + tail.kept())",
        "levels.append(prev.suspend().kept() + tail)",
        (NO_RULE_TWICE,)),
    Mutant(
        "defect-recursion-prev-unwrapped", "relations.py",
        "prev = dwyer_defect(k - 1).kept()",
        "prev = dwyer_defect(k - 1)",
        (NO_RULE_TWICE,)),
    Mutant(
        "simp1-suspension-unwrapped", "relations.py",
        "sf = f.suspend().kept()",
        "sf = f.suspend()",
        (NO_RULE_TWICE,)),
    # one input contract for both delta routes, and each face asked once
    Mutant(
        "theta-route-takes-a-non-cycle", "operations.py",
        """    _require_cycle(model, z)
    em = evaluate_em(""",
        """    em = evaluate_em(""",
        ("tests/test_operations.py::test_delta_range_and_cycle_errors",)),
    Mutant(
        "class-guard-sums-the-faces-again", "operations.py",
        'if not report["is_cycle"]:',
        "if model.boundary(value):",
        ("tests/test_operations.py::test_the_report_asks_each_face_once",)),
    # one flat sum that keeps no terms
    Mutant(
        "sum-nests-its-operands", "transforms.py",
        "(self._summands or (self,)) + (other._summands or (other,)))",
        "(self, other))",
        ("tests/test_transforms.py::test_sums_are_flat_and_associative",)),
    Mutant(
        "sum-keeps-its-terms", "transforms.py",
        "return reduce(xor, [t.terms(i, j) for t in self._summands])",
        "return self._terms.setdefault("
        "(i, j), reduce(xor, [t.terms(i, j) for t in self._summands]))",
        ("tests/test_transforms.py::test_a_sum_keeps_no_terms",)),
    # elimination: membership is a bool, the kernel is the one-pass one,
    # the pivot is the largest row
    Mutant(
        "solve-returns-the-remainder", "gf2.py",
        "return not _reduce(set(target), self._eliminate())",
        "return _reduce(set(target), self._eliminate())",
        (SMALL_MATRIX,)),
    Mutant(
        "apply-reads-indices-past-ncols", "gf2.py",
        """            if c >= self.ncols:
                break
""",
        "",
        (SMALL_MATRIX,)),
    # a vector's pivot is its last entry
    Mutant(
        "coordinates-pivot-from-the-first-entry", "gf2.py",
        "if bvec[-1] in v:",
        "if bvec[0] in v:",
        (DENSE_ORACLE,)),
    Mutant(
        "kernel-combination-not-carried", "gf2.py",
        "                combo.symmetric_difference_update(pivot[1])\n",
        "",
        (DENSE_ORACLE,)),
    Mutant(
        "pivot-on-the-smallest-row", "gf2.py",
        '''    while v and (pivot := pivots.get(max(v))):
        v ^= pivot
    return v


def _pivots(columns) -> dict:
    """The pivot table of ``columns``, ascending row tuples: pivot row ->
    reduced column, a set of rows.  A column whose largest row has no pivot
    yet is its own reduced column, kept as a frozenset."""
    pivots: dict = {}
    for col in columns:
        if not col:
            continue
        pivot = pivots.get(col[-1])
        if pivot is None:
            pivots[col[-1]] = frozenset(col)
            continue
        v = set(col)
        v ^= pivot
        if v := _reduce(v, pivots):
            pivots[max(v)] = v''',
        '''    while v and (pivot := pivots.get(min(v))):
        v ^= pivot
    return v


def _pivots(columns) -> dict:
    """The pivot table of ``columns``, ascending row tuples: pivot row ->
    reduced column, a set of rows.  A column whose largest row has no pivot
    yet is its own reduced column, kept as a frozenset."""
    pivots: dict = {}
    for col in columns:
        if not col:
            continue
        pivot = pivots.get(col[0])
        if pivot is None:
            pivots[col[0]] = frozenset(col)
            continue
        v = set(col)
        v ^= pivot
        if v := _reduce(v, pivots):
            pivots[min(v)] = v''',
        (DENSE_ORACLE,)),
    # the associated differential is the parity of the faces, not their union
    Mutant(
        "associated-column-keeps-a-row-hit-twice", "homology.py",
        """        odd = []
        for t in hits:
            if odd and odd[-1] == t:
                odd.pop()
            else:
                odd.append(t)
        cols.append(tuple(odd))""",
        """        cols.append(tuple(sorted(set(hits))))""",
        (f"{LABEL_ORACLE}[Delta(1)-top3]",)),
    # the stacked-face kernel: one elimination, pivots descending
    Mutant(
        "face-kernel-ascending", "homology.py",
        "return F2Matrix(rows, cols).kernel_basis()[::-1]",
        "return F2Matrix(rows, cols).kernel_basis()",
        (f"{LABEL_ORACLE}[Delta(2)-top4]",)),
    Mutant(
        "degree-0-kernel-reversed", "homology.py",
        "return [(c,) for c in range(len(model.basis(0)))]",
        "return [(c,) for c in reversed(range(len(model.basis(0))))]",
        (f"{LABEL_ORACLE}[Delta(2)-top4]",)),
    # perturbations are drawn from a basis of the boundaries' span
    Mutant(
        "perturbations-from-the-raw-boundaries", "operations.py",
        "basis = reduced_echelon(usable)",
        "basis = usable",
        (NONZERO_DRAWS,)),
    Mutant(
        "raw-boundaries-and-zero-draws-skipped", "operations.py",
        """        basis = reduced_echelon(usable)
        labels = model.basis(q)
        verdicts = []
        for _ in range(perturbations if basis else 0):
            picks = rng.randrange(1, 1 << len(basis))
            b = model.element(
                [labels[r] for c in bits(picks) for r in basis[c]], q)
            # z + b is a normalized cycle, which delta_i checks
            verdicts.append(""",
        """        basis = usable
        labels = model.basis(q)
        verdicts = []
        for _ in range(perturbations if basis else 0):
            picks = rng.randrange(1, 1 << len(basis))
            b = model.element(
                [labels[r] for c in bits(picks) for r in basis[c]], q)
            if b:
                verdicts.append(""",
        ("tests/test_cli.py::test_drawn_perturbations_never_cancel",)),
    # memo state no run reads: defects, words and normal forms
    Mutant(
        "defects-cached", "transforms.py",
        "def dwyer_defect(k: int) -> EMTransform:",
        "@__import__('functools').lru_cache(maxsize=None)\n"
        "def dwyer_defect(k: int) -> EMTransform:",
        ("tests/test_transforms.py::test_a_defect_is_freed_once_dropped",)),
    Mutant(
        "new-word-letters-unchecked", "words.py",
        "if not _LETTERS.issuperset(factors):",
        "if False:",
        ("tests/test_words.py::test_a_rejected_word_is_never_registered",)),
    # a product's form and floor continue its right operand's rewrite
    Mutant(
        "resume-from-floor-0", "words.py",
        "_formal_normal_form(word, self.factors, other._form, other._floor)",
        "_formal_normal_form(word, self.factors, other._form, 0)",
        (PRODUCT_FORMS,)),
    Mutant(
        "resume-with-offset-0", "words.py",
        "    offset = len(degens) - len(faces)\n",
        "    offset = 0\n",
        (PRODUCT_FORMS,)),
    # more perturbations than the term budget are refused before any is drawn
    Mutant(
        "perturbation-guard-off", "cli.py",
        "    _check_perturbations(args.perturbations, i)\n",
        "",
        ("tests/test_cli.py::test_unbounded_perturbations_exit_2_at_once",)),
    Mutant(
        "form-below-the-floor", "words.py",
        """    walk(word.factors, source_degree)
    return ZERO_FORM""",
        """    walk(word.factors, source_degree)
    return form""",
        ("tests/test_words.py::test_normalize_matches_the_oracle_at_every_degree",)),
    # the command freezes its heap once main returns, and a failed write to
    # stdout is one error line and exit 2
    Mutant(
        "exit-freeze-off", "cli.py",
        "    gc.freeze()\n",
        "",
        ("tests/test_cli.py::test_the_command_freezes_its_heap_before_it_exits[exit-0]",)),
    Mutant(
        "stdout-write-unchecked", "cli.py",
        """        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise _ConfigError(f"cannot write stdout: {exc.strerror}") from exc
        return""",
        """        sys.stdout.write(text)
        return""",
        (f"{FAILED_WRITE}[verify-buffered]",)),
    Mutant(
        "exit-flush-unguarded", "cli.py",
        """    try:
        sys.stdout.flush()
    except OSError:""",
        """    if False:""",
        (f"{FAILED_WRITE}[homology-buffered]",)),
    Mutant(
        "help-text-unchecked", "cli.py",
        "_emit(help_text.getvalue(), None)",
        "sys.stdout.write(help_text.getvalue())",
        (f"{FAILED_WRITE}[help-buffered]",)),
    # records: frozen, compared by every field, and built without dataclasses
    Mutant(
        "record-equality-skips-its-last-field", "words.py",
        "return self._fields() == other._fields()",
        "return self._fields()[:-1] == other._fields()[:-1]",
        ("tests/test_records.py::test_one_changed_field_gives_an_unequal_record",)),
    Mutant(
        "frozen-record-assigns", "words.py",
        """        raise AttributeError(f"cannot assign to or delete field {name!r}")""",
        """        object.__setattr__(self, name, value)""",
        ("tests/test_records.py::test_value_records_are_frozen",)),
    Mutant(
        "relations-imports-dataclasses", "relations.py",
        "from itertools import product\n",
        "from dataclasses import dataclass\nfrom itertools import product\n",
        ("tests/test_cli.py::test_the_command_imports_no_module_it_does_not_name",)),
]


def _pytest(root: Path, tests) -> tuple[int, str]:
    # With no bytecode written, pytest would rewrite the asserts of every
    # module of an autoloaded plugin's package again on each run, about a
    # second for hypothesis; the plugin loaded by name is one module.
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-p", "_hypothesis_pytestplugin", *tests],
        cwd=root, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def _copy(repo: Path, root: Path):
    for name in ("src", "tests"):
        shutil.copytree(repo / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(repo / "pyproject.toml", root)


def _run(roots: queue.SimpleQueue, m: Mutant) -> tuple[bool, str]:
    """Apply ``m`` alone in a free copy, run its tests, and put the copy
    back as it was: whether it was killed, and the lines to print."""
    root = roots.get()
    try:
        path = root / "src" / "simpdelta" / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return False, (f"{m.name}: its old text occurs {text.count(m.old)} "
                           f"times in {m.file}, not once")
        path.write_text(text.replace(m.old, m.new))
        start = time.perf_counter()
        try:
            code, log = _pytest(root, m.tests)
        finally:
            path.write_text(text)
    finally:
        roots.put(root)
    took = time.perf_counter() - start
    if code == 1:
        return True, f"{m.name}: killed ({took:.1f} s)"
    return False, (f"{log}\n{m.name}: "
                   f"{'survived' if code == 0 else f'pytest exit {code}'} ({took:.1f} s)")


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    workers = os.cpu_count() or 1
    failures = []
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        roots = queue.SimpleQueue()
        for w in range(workers):
            _copy(repo, Path(tmp) / str(w))
            roots.put(Path(tmp) / str(w))
        start = time.perf_counter()
        code, log = _pytest(Path(tmp) / "0",
                            sorted({t for m in MUTANTS for t in m.tests}))
        if code != 0:
            print(log)
            print(f"the unmutated copy must pass every listed test; pytest exit {code}")
            return 1
        print(f"unmutated: passed ({time.perf_counter() - start:.1f} s)")
        with ThreadPoolExecutor(workers) as pool:
            for m, (killed, lines) in zip(MUTANTS, pool.map(partial(_run, roots), MUTANTS)):
                print(lines, flush=True)
                if not killed:
                    failures.append(m.name)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed "
          f"on {workers} workers in {time.perf_counter() - begin:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
