"""Batch driver: identity sweeps, operation evaluation, homology tables.

Every run is deterministic: identical arguments produce byte-identical
output.  Exit codes: 0 success, 1 a checked relation failed, 2 bad
configuration, a model or a window over its size budget, or an output
file or stdout that cannot be written.

Size guard: each budget below is checked against a closed form in exact
integers (``Model.dimension``, ``models.binomial``) before anything is
built, counted only up to a cap of 10^4000, and one function,
``_refuse_over``, refuses it with exit 2 and the count: exact below 10^30,
else its order of magnitude, and past the cap "more than 10^4000".

``main`` runs each subcommand with Python's cyclic garbage collector
paused, and restores the caller's setting when it returns.  Words, normal
forms, transform terms, model tables and matrices refer to one another
only downward, never in a cycle, so reference counting frees everything a
run drops, and the collector would only rescan the live terms again and
again (a quarter of the window-12 Dwyer sweep).  The Tier-1 test
``test_cli_runs_leave_no_cyclic_garbage`` holds this: a larger window must
leave no more cyclic garbage than a smaller one.  Library callers that
import the package keep the default collector.  The ``simpdelta`` command
(``entry``) turns the collector off for the whole process, because the
process ends with the run: turned back on, it would scan all the run's
data again in its first young collection and in the collection that
interpreter exit runs only with the collector on.  Exit runs one more full
collection, on or off, so ``entry`` freezes the heap (``gc.freeze``) once
``main`` returns: frozen objects are never scanned, and reference counting
still frees them all at exit.  Window 12 leaves some 365,000 tracked
objects, and that last scan of them took a tenth of a second.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
from contextlib import redirect_stdout
from functools import partial

from .homology import associated_complex, normalized_complex
from .models import (algebra_model, binomial, boundary_delta_model, delta_model,
                     sphere_model)
from .operations import delta_report
from .relations import FAMILIES, check_relation, relation_names
from .transforms import (
    EMTransform,
    boundary_left,
    boundary_right,
    degen0_left,
    degen0_right,
    diagonal_faces,
    diagonal_identity,
    dump_bidegree,
    dwyer_defect,
    face0_left,
    face0_right,
    higher_shuffle,
    identity_transform,
    shuffle_map,
)


class _ConfigError(Exception):
    pass


# Every guarded count is decided up to this cap, past any budget: a count
# over it is never built whole, and is refused as "more than 10^4000".
SIZE_CAP = 10**4000


def _refuse_over(budget: int, count, what: str):
    """Refuse ``count(SIZE_CAP)`` when it is over ``budget``, with ``what``,
    the message with ``{}`` where the count goes.  ``count(cap)`` is exact
    when at most ``cap``, and otherwise some value in (cap, exact], as for
    ``Model.dimension``.  It is shown below 10^30, above as the order of
    magnitude read off its digits, and past the cap as that bound."""
    size = count(SIZE_CAP)
    if size <= budget:
        return
    if size > SIZE_CAP:
        text = "more than 10^4000"
    elif size < 10**30:
        text = f"{size:,}"
    else:
        text = f"about 10^{len(str(size)) - 1}"
    raise _ConfigError(f"{what.format(text)}, over the budget of {budget:,}")


# The largest top-degree basis that `delta` and `homology` will build.  It
# admits delta --q 5 --i 5 (107,416 monomials in degree 11: about a second
# and 55 MB on a 2-core host) and refuses --q 6 --i 6 (1,474,903), which
# would run for minutes before its first elimination.
BASIS_BUDGET = 200_000

# The most work, (top + 1)^2 dim(top) (top + 1 + P), that `delta` and
# `homology` will take on: per degree and label, its faces and their labels
# of top + 1 vertices and up to P factors.  It admits delta --q 5 --i 5
# (216,550,656: seconds) and refuses Sphere(1) to degree 150 (516,442,650:
# five seconds) and Delta(0) to degree 1000 (some ten seconds).
WORK_BUDGET = 500_000_000


def _check_size(model):
    """Refuse a model whose top-degree basis is over BASIS_BUDGET, or whose
    work is over WORK_BUDGET, from its closed-form dimension."""
    top, span = model.max_degree, model.max_degree + 1 + model.poly_bound
    dimension = partial(model.dimension, top)
    _refuse_over(BASIS_BUDGET, dimension,
                 f"{model.name} would have {{}} basis elements in degree {top}")
    _refuse_over(WORK_BUDGET, lambda cap: (top + 1) ** 2 * dimension(cap) * span,
                 f"{model.name} would take {{}} steps up to degree {top}")


# The largest shuffle-map term count, C(i+j, i) at the top bidegree, that
# `verify` and a `dump-transform` of the shuffle map, a refinement or a
# defect will build toward, and the most faces a face sum's dump takes.  It
# admits window 16 (C(16, 8) = 12,870 terms at (8, 8)) and refuses window 18
# (48,620) and beyond; on a 2-core host window 14 takes about 5 s and
# 172 MB, window 16 about 25 s and 708 MB.  The refinements D^k have at
# least the shuffle map's terms, so the estimate is a lower bound for them;
# their k + 1 levels D^0 .. D^k are counted against the same budget, and so
# are the delta_i terms of `delta`'s perturbations.
TERM_BUDGET = 20_000


def _check_terms(i: int, j: int):
    """Refuse bidegree (i, j) when the shuffle map there has more than
    TERM_BUDGET terms, before any transform is built."""
    _refuse_over(TERM_BUDGET, partial(binomial, i + j, i),
                 f"the shuffle map would have {{}} terms at bidegree ({i}, {j})")


def _check_perturbations(perturbations: int, i: int):
    """Refuse more than TERM_BUDGET delta_i terms over the perturbations,
    before any is drawn: each evaluates delta_i again, C(2i - 1, i - 1)
    terms, and solves for its class.  The budget admits 6,666 at i = 2 and
    2,000 at i = 3.  On a 2-core host, 6,666 take 3 s in delta --q 3 --i 2
    --poly 4 and 14 s in --q 4 --i 2 --poly 4; 2,000 take 11 s in --q 3
    --i 3 --poly 4.  Where none is checked (i = 1, or a bound below 4) the
    count is still the most they could cost."""
    if perturbations:
        _refuse_over(TERM_BUDGET,
                     lambda cap: perturbations * binomial(2 * i - 1, i - 1, cap),
                     f"--perturbations {perturbations:,} would evaluate up to "
                     f"{{}} delta_{i} terms")


def _emit(text: str, output: str | None):
    if output is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise _ConfigError(f"cannot write stdout: {exc.strerror}") from exc
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _ConfigError(f"cannot write {output}: {exc.strerror}") from exc


def _check_output_dir(output: str | None):
    """Reject an --output that is a directory, or lies in a missing one,
    before any work is done."""
    if output is None:
        return
    if os.path.isdir(output):
        raise _ConfigError(f"cannot write {output}: Is a directory")
    if not os.path.isdir(os.path.dirname(output) or "."):
        raise _ConfigError(f"cannot write {output}: No such file or directory")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_verify(args) -> int:
    if args.max_total < 0:
        raise _ConfigError("--max-total must be >= 0")
    if args.max_k < 0:
        raise _ConfigError("--max-k must be >= 0")
    if args.family in ("dwyer", "lemma3", "all") and 2 * args.max_k > args.max_total:
        raise _ConfigError(
            f"the Dwyer window needs 2*max_k <= max_total "
            f"(got max_k={args.max_k}, max_total={args.max_total})"
        )
    _check_terms(args.max_total // 2, args.max_total - args.max_total // 2)
    results = [
        check_relation(name, args.max_total)
        for name in relation_names(args.max_k, args.family)
    ]
    passed = all(r.passed for r in results)

    if args.format == "json":
        text = _json_text(
            {
                "family": args.family,
                "max_total": args.max_total,
                "max_k": args.max_k,
                "passed": passed,
                "results": [
                    {
                        "name": r.name,
                        "description": r.description,
                        "cases": r.cases,
                        "passed": r.passed,
                        "witness": r.witness,
                    }
                    for r in results
                ],
            }
        )
    elif args.format == "csv":
        text = _csv_text(
            ["name", "cases", "passed", "witness"],
            [[r.name, r.cases, str(r.passed).lower(), r.witness or ""] for r in results],
        )
    else:
        lines = []
        for r in results:
            if r.passed:
                lines.append(f"PASS {r.name} (cases={r.cases})")
            else:
                lines.append(f"FAIL {r.name}: {r.witness}")
        good = sum(1 for r in results if r.passed)
        lines.append(
            f"{good}/{len(results)} relations passed on window "
            f"max_total={args.max_total}"
        )
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0 if passed else 1


def _cmd_delta(args) -> int:
    q, i = args.q, args.i
    if q < 1:
        raise _ConfigError("--q must be >= 1")
    if not 1 <= i <= q:
        raise _ConfigError(f"need 1 <= i <= q, got i={i}, q={q}")
    # the homology verdict needs the boundaries into degree q+i
    max_degree = q + i + 1
    if args.poly < 2:
        raise _ConfigError("--poly must be >= 2 (the operation squares its input)")
    if args.perturbations < 0:
        raise _ConfigError("--perturbations must be >= 0")
    model = algebra_model(q, max_degree, args.poly)
    _check_size(model)
    _check_perturbations(args.perturbations, i)
    report = delta_report(
        model,
        model.fundamental_class(),
        i,
        perturbations=args.perturbations,
        seed=args.seed,
    )
    report["model"] = {"n": q, "max_degree": max_degree, "poly_bound": args.poly}
    if "warning" in report:
        print(f"warning: {report['warning']}", file=sys.stderr)
    if args.perturbations and not report.get("perturbations_checked"):
        if report["homology_class_nonzero"] is None:
            why = "the value is not a cycle"
        elif args.poly < 4:
            why = "perturbations need --poly >= 4"
        else:
            why = "no normalized boundary fits half the polynomial bound"
        print(f"note: no perturbation was checked: {why}", file=sys.stderr)

    if args.format == "csv":
        rows = [[k, json.dumps(report[k], sort_keys=True)] for k in sorted(report)]
        text = _csv_text(["field", "value"], rows)
    elif args.format == "text":
        lines = [f"delta_{i} on the degree-{q} fundamental cycle"]
        lines += [f"  term: {a} (x) {b}" for a, b in report["terms"]]
        lines.append(f"  value: {' + '.join(report['value']) or '0'}")
        for key in (
            "is_cycle",
            "equals_theta",
            "homology_class_nonzero",
            "class_stable_under_boundary_perturbations",
            "warning",
        ):
            if key in report:
                lines.append(f"  {key}: {report[key]}")
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text(report)
    _emit(text, args.output)
    return 0


_MODULE_MODELS = {
    "delta": delta_model,
    "boundary": boundary_delta_model,
    "sphere": sphere_model,
}


def _build_model(args):
    if args.n < 0:
        raise _ConfigError("--n must be >= 0")
    if args.max_degree < 1:  # the table covers degrees 0..max_degree-1
        raise _ConfigError("--max-degree must be >= 1")
    if args.model != "sphere-algebra":
        if args.poly is not None:
            raise _ConfigError(f"--model {args.model} takes no --poly")
        model = _MODULE_MODELS[args.model](args.n, args.max_degree)
    else:
        poly = 2 if args.poly is None else args.poly
        if poly < 2:
            raise _ConfigError("--poly must be >= 2")
        model = algebra_model(args.n, args.max_degree, poly)
    _check_size(model)
    return model


def _cmd_homology(args) -> int:
    model = _build_model(args)
    assoc = associated_complex(model)
    norm = normalized_complex(model)
    arows = assoc.betti_rows()
    nrows = norm.betti_rows()
    table = []
    for (q, ad, ar, ab), (_, nd, nr, nb) in zip(arows, nrows):
        agree = str(ab == nb).lower()
        table.append(["associated", q, ad, ar, ab, agree])
        table.append(["normalized", q, nd, nr, nb, agree])

    if args.format == "json":
        text = _json_text(
            {
                "model": args.model,
                "n": args.n,
                "max_degree": args.max_degree,
                "rows": [
                    {
                        "complex": c,
                        "degree": q,
                        "dim": d,
                        "rank_d": r,
                        "betti": b,
                        "agree": agree == "true",
                    }
                    for c, q, d, r, b, agree in table
                ],
            }
        )
    elif args.format == "text":
        lines = [f"{args.model}(n={args.n}) homology, degrees 0..{args.max_degree - 1}"]
        for c, q, d, r, b, agree in table:
            lines.append(
                f"  {c:>10} q={q}: dim={d} rank_d={r} betti={b} agree={agree}"
            )
        text = "\n".join(lines) + "\n"
    else:
        text = _csv_text(
            ["complex", "degree", "dim", "rank_d", "betti", "agree"], table
        )
    _emit(text, args.output)
    return 0


_PLAIN_TRANSFORMS = {
    "shuffle": shuffle_map,
    "diagonal-faces": diagonal_faces,
    "boundary-left": boundary_left,
    "boundary-right": boundary_right,
    "face0-left": face0_left,
    "face0-right": face0_right,
    "degen0-left": degen0_left,
    "degen0-right": degen0_right,
    "identity": identity_transform,
}

_INDEXED_TRANSFORMS = {
    "refinement": higher_shuffle,
    "defect": dwyer_defect,
    "diagonal-identity": diagonal_identity,
}


def _cmd_dump(args) -> int:
    if args.name in _PLAIN_TRANSFORMS:
        if args.k is not None:
            raise _ConfigError(f"--name {args.name} takes no --k")
        build = _PLAIN_TRANSFORMS[args.name]
    elif args.name in _INDEXED_TRANSFORMS:
        if args.k is None or args.k < 0:
            raise _ConfigError(f"--name {args.name} needs --k >= 0")
        build = partial(_INDEXED_TRANSFORMS[args.name], args.k)
    else:
        raise _ConfigError(f"unknown transform {args.name!r}")
    if args.i < 0 or args.j < 0:
        raise _ConfigError("--i and --j must be >= 0")
    # the shuffle map and the transforms built from it have at least C(i+j, i)
    # terms at (i, j), a face sum one per face, every other one term
    if args.name in ("shuffle", "refinement", "defect"):
        _check_terms(args.i, args.j)
    faces = {"boundary-left": args.i, "boundary-right": args.j,
             "diagonal-faces": min(args.i, args.j)}.get(args.name)
    if faces is not None:
        _refuse_over(TERM_BUDGET, lambda cap: faces + 1,
                     f"{args.name} would have {{}} terms at bidegree "
                     f"({args.i}, {args.j})")
    if args.name in ("refinement", "defect"):
        _refuse_over(TERM_BUDGET, lambda cap: args.k + 1,
                     f"the refinements D^0 .. D^{args.k} would be {{}} levels")
    transform: EMTransform = build()
    _emit(_json_text(dump_bidegree(transform, args.i, args.j, args.reduced)), args.output)
    return 0


def _add_common(sub, default="json"):
    sub.add_argument("--format", choices=("json", "csv", "text"), default=default)
    sub.add_argument("--output", default=None, help="write to a file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simpdelta",
        description="exact mod-2 simplicial transform and operation calculus",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    verify = subs.add_parser("verify", help="run a family of identity sweeps")
    verify.add_argument("family", choices=FAMILIES)
    verify.add_argument("--max-total", type=int, default=8)
    verify.add_argument("--max-k", type=int, default=4)
    _add_common(verify, default="text")
    verify.set_defaults(handler=_cmd_verify)

    delta = subs.add_parser("delta", help="evaluate delta_i on a fundamental cycle")
    delta.add_argument("--q", type=int, required=True)
    delta.add_argument("--i", type=int, required=True)
    delta.add_argument("--poly", type=int, default=2)
    delta.add_argument("--perturbations", type=int, default=2)
    _add_common(delta)
    delta.add_argument("--seed", type=int, default=0)
    delta.set_defaults(handler=_cmd_delta)

    hom = subs.add_parser("homology", help="Betti tables for both chain complexes")
    hom.add_argument(
        "--model",
        choices=(*_MODULE_MODELS, "sphere-algebra"),
        default="sphere",
    )
    hom.add_argument("--n", type=int, required=True)
    hom.add_argument("--max-degree", type=int, required=True)
    hom.add_argument("--poly", type=int, default=None)
    _add_common(hom, default="csv")
    hom.set_defaults(handler=_cmd_homology)

    dump = subs.add_parser("dump-transform", help="JSON terms of one bidegree")
    dump.add_argument(
        "--name",
        required=True,
        help="one of: "
        + ", ".join(sorted(list(_PLAIN_TRANSFORMS) + list(_INDEXED_TRANSFORMS))),
    )
    dump.add_argument("--k", type=int, default=None)
    dump.add_argument("--i", type=int, required=True)
    dump.add_argument("--j", type=int, required=True)
    dump.add_argument("--reduced", action="store_true")
    dump.add_argument("--output", default=None)
    dump.set_defaults(handler=_cmd_dump)

    return parser


def main(argv=None) -> int:
    # the run's data is acyclic: see the module docstring
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        try:
            # argparse would swallow a failed write of its help text
            help_text = io.StringIO()
            try:
                with redirect_stdout(help_text):
                    args = parser.parse_args(argv)
            except SystemExit as exc:
                _emit(help_text.getvalue(), None)
                return int(exc.code or 0)
            _check_output_dir(args.output)
            return args.handler(args)
        except _ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if was_enabled:
            gc.enable()


def entry() -> None:
    # the process ends with the run: see the module docstring
    gc.disable()
    code = main()
    gc.freeze()
    try:
        sys.stdout.flush()
    except OSError:
        # main has reported the failed write; its text is still buffered,
        # and flushing it again at exit would fail with a second message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
