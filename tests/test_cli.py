"""Command-line entry points, driven in-process through main(), and the
command itself (entry) in a few child processes."""

import ast
import errno
import gc
import io
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from simpdelta import cli
from simpdelta.cli import main
from simpdelta.models import (
    algebra_model,
    binomial,
    boundary_delta_model,
    delta_model,
    sphere_model,
)
from simpdelta.relations import RelationResult, relation_names

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_text(size):
    """A refusal's count: exact below 10^30, else its order of magnitude,
    and past 10^4000 that bound.

    The float log10 of a count just under a power of ten can round up to
    it, so the order is corrected against exact powers of ten.
    """
    if size > 10**4000:
        return "more than 10^4000"
    if size < 10**30:
        return f"{size:,}"
    order = math.floor(math.log10(size))
    order += (10 ** (order + 1) <= size) - (10**order > size)
    return f"about 10^{order}"


def test_verify_simp(capsys):
    code, out, err = run(capsys, "verify", "simp")
    assert code == 0
    assert out.count("PASS ") == 7
    assert "7/7 relations passed on window max_total=8" in out


def test_verify_all_json_golden(capsys):
    code, out, err = run(capsys, "verify", "all", "--max-total", "6", "--max-k", "3",
                         "--format", "json")
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / "verify_all_6.json").read_bytes()


def test_verify_all_window_10_json_golden(capsys):
    # every relation's case count at window 10, recursion composites included
    code, out, err = run(capsys, "verify", "all", "--max-total", "10", "--max-k", "4",
                         "--format", "json")
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / "verify_all_10.json").read_bytes()


def test_verify_json_and_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "dwyer", "--max-total", "6", "--max-k", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    rows = doc["results"]
    assert [r["name"] for r in rows] == ["dwyer-0", "dwyer-1", "dwyer-2"]
    assert all(r["passed"] for r in rows)
    assert rows[0]["cases"] == 28
    code, out, _ = run(
        capsys, "verify", "chainmap", "--max-total", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,cases,passed,witness"
    assert len(lines) == 3


def test_verify_window_conflict(capsys):
    code, _, err = run(capsys, "verify", "dwyer", "--max-total", "7", "--max-k", "4")
    assert code == 2
    assert "error:" in err


def test_verify_unknown_family(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "simp", "--threads", "2"),
    ("verify", "simp", "--seed", "1"),
    ("delta", "--q", "2", "--i", "2", "--threads", "2"),
    ("delta", "--q", "2", "--i", "2", "--max-degree", "5"),
    ("homology", "--n", "2", "--max-degree", "3", "--seed", "1"),
    ("homology", "--n", "2", "--max-degree", "3", "--threads", "2"),
], ids=["verify-threads", "verify-seed", "delta-threads", "delta-max-degree",
        "homology-seed", "homology-threads"])
def test_removed_options_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_delta_golden(capsys):
    code, out, err = run(capsys, "delta", "--q", "2", "--i", "2")
    assert code == 0
    assert out == (GOLDEN / "delta_q2_i2.json").read_text()


def test_delta_csv_golden(capsys):
    # every report field, four checked perturbations among them
    code, out, err = run(capsys, "delta", "--q", "3", "--i", "2", "--poly", "4",
                         "--perturbations", "4", "--seed", "0", "--format", "csv")
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / "delta_verdict.csv").read_bytes()


def test_delta_poly_golden(capsys):
    # the largest admitted report whose verdicts go through `solve`: its
    # class and two perturbations, each solved over 82,251 degree-7 columns
    code, out, err = run(capsys, "delta", "--q", "3", "--i", "3", "--poly", "4")
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / "delta_q3_i3_p4.json").read_bytes()


def test_drawn_perturbations_never_cancel(capsys):
    # the two fitting boundaries at q = 2, P = 4 are one boundary, so a
    # draw of both once summed to zero and checked nothing at this seed
    code, out, err = run(capsys, "delta", "--q", "2", "--i", "2", "--poly", "4",
                         "--seed", "20")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["perturbations_checked"] == 2
    assert report["class_stable_under_boundary_perturbations"] is True
    assert out.encode() == (GOLDEN / "delta_q2_i2_p4_seed20.json").read_bytes()


def test_delta_noncycle_warning(capsys):
    code, out, err = run(capsys, "delta", "--q", "3", "--i", "1")
    assert code == 0
    assert "its face d3 equals z^2" in err
    rep = json.loads(out)
    assert rep["homology_class_nonzero"] is None
    assert rep["is_cycle"] is False


def test_no_stability_verdict_without_a_perturbation(capsys):
    # at P = 3 no normalized boundary fits half the bound, so none is checked
    code, out, _ = run(capsys, "delta", "--q", "2", "--i", "2", "--poly", "3")
    report = json.loads(out)
    assert code == 0 and report["perturbations_checked"] == 0
    assert report["class_stable_under_boundary_perturbations"] is None


def test_a_note_says_that_no_perturbation_was_checked(capsys):
    code, out, err = run(capsys, "delta", "--q", "2", "--i", "2")
    assert code == 0 and json.loads(out)["perturbations_checked"] == 0
    assert err == ("note: no perturbation was checked: "
                   "perturbations need --poly >= 4\n")
    # none when perturbations were checked (the benchmark's delta run) ...
    code, out, err = run(capsys, "delta", "--q", "3", "--i", "2", "--poly", "4",
                         "--perturbations", "4", "--seed", "0")
    assert code == 0 and json.loads(out)["perturbations_checked"] == 4
    assert err == ""
    # ... or none was asked for
    code, out, err = run(capsys, "delta", "--q", "2", "--i", "2",
                         "--perturbations", "0")
    assert code == 0 and "perturbations_checked" not in json.loads(out)
    assert err == ""


def test_delta_text_format(capsys):
    code, out, _ = run(capsys, "delta", "--q", "2", "--i", "2",
                       "--format", "text")
    assert code == 0
    assert "delta_2 on the degree-2 fundamental cycle" in out
    assert "is_cycle: True" in out


def test_delta_range_errors(capsys):
    code, _, err = run(capsys, "delta", "--q", "2", "--i", "3")
    assert code == 2
    code, _, err = run(capsys, "delta", "--q", "2", "--i", "2", "--poly", "1")
    assert code == 2


def test_homology_golden(capsys):
    code, out, _ = run(capsys, "homology", "--model", "sphere", "--n", "2",
                       "--max-degree", "5")
    assert code == 0
    assert out == (GOLDEN / "sphere2_homology.csv").read_text()
    lines = out.strip().split("\n")
    assert lines[0] == "complex,degree,dim,rank_d,betti,agree"
    assert all(line.endswith("true") for line in lines[1:])


def test_homology_text_golden(capsys):
    code, out, err = run(capsys, "homology", "--model", "sphere-algebra", "--n",
                         "2", "--max-degree", "5", "--format", "text")
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / "sphere_algebra2_homology_5.txt").read_bytes()


def test_homology_p4_golden(capsys):
    # normalized rows above P = 2, from stacked-face kernels of up to 5,580
    # vectors
    code, out, err = run(capsys, "homology", "--model", "sphere-algebra", "--n",
                         "3", "--max-degree", "6", "--poly", "4")
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / "sphere_algebra3_p4_homology_6.csv").read_bytes()


@pytest.mark.parametrize("argv, message", [
    (("verify", "simp", "--max-total", "-1"), "--max-total must be >= 0"),
    (("verify", "simp", "--max-k", "-1"), "--max-k must be >= 0"),
    (("delta", "--q", "0", "--i", "1"), "--q must be >= 1"),
    (("delta", "--q", "2", "--i", "2", "--perturbations", "-1"),
     "--perturbations must be >= 0"),
    (("homology", "--n", "-1", "--max-degree", "3"), "--n must be >= 0"),
    (("dump-transform", "--name", "shuffle", "--i", "-1", "--j", "0"),
     "--i and --j must be >= 0"),
], ids=["verify-max-total", "verify-max-k", "delta-q", "delta-perturbations",
        "homology-n", "dump-transform-i"])
def test_negative_arguments_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_a_failing_relation_is_reported(capsys, monkeypatch):
    failing = relation_names(family="simp")[0]

    def check(name, max_total):
        passed = name != failing
        return RelationResult(name, "", 1, passed, None if passed else "a witness")

    monkeypatch.setattr(cli, "check_relation", check)
    code, out, err = run(capsys, "verify", "simp", "--max-total", "4")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert f"FAIL {failing}: a witness" in lines
    assert sum(line.startswith("PASS ") for line in lines) == 6
    assert lines[-1] == "6/7 relations passed on window max_total=4"


def test_homology_poly_is_only_for_the_algebra(capsys):
    for model in ("delta", "boundary", "sphere"):
        code, out, err = run(capsys, "homology", "--model", model, "--n", "2",
                             "--max-degree", "3", "--poly", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: --model {model} takes no --poly\n"
    # the algebra's bound defaults to 2 and is still range-checked
    base = ("homology", "--model", "sphere-algebra", "--n", "2", "--max-degree", "4")
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert out == run(capsys, *base, "--poly", "2")[1]
    assert run(capsys, *base, "--poly", "1")[0] == 2


@pytest.mark.parametrize("max_degree", ["0", "-1"])
def test_homology_needs_a_degree(capsys, max_degree):
    # the table covers degrees 0..max_degree-1, so it must not be empty
    for fmt in ("text", "csv"):
        code, out, err = run(capsys, "homology", "--n", "1", "--max-degree",
                             max_degree, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == "error: --max-degree must be >= 1\n"


def test_homology_json(capsys):
    code, out, _ = run(capsys, "homology", "--model", "boundary", "--n", "2",
                       "--max-degree", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    circle = [r for r in rows if r["complex"] == "normalized"]
    assert [r["betti"] for r in circle] == [1, 1, 0]


def test_dump_transform(capsys):
    code, out, _ = run(capsys, "dump-transform", "--name", "refinement",
                       "--k", "1", "--i", "1", "--j", "1", "--reduced")
    assert code == 0
    assert json.loads(out) == {
        "bidegree": [1, 1],
        "target": [1, 1],
        "terms": [["id", "s0 d0"]],
    }
    code, out, _ = run(capsys, "dump-transform", "--name", "shuffle",
                       "--i", "2", "--j", "1")
    assert code == 0
    assert json.loads(out)["target"] == [3, 3]


@pytest.mark.parametrize("name, k, i, j, golden", [
    ("defect", "3", "4", "3", "dump_defect_k3_i4_j3.json"),
    ("refinement", "4", "4", "4", "dump_refinement_k4_i4_j4.json"),
])
def test_dump_transform_raw_terms_golden(capsys, name, k, i, j, golden):
    # raw terms of transforms built by sums, before any cancellation
    code, out, err = run(capsys, "dump-transform", "--name", name,
                         "--k", k, "--i", i, "--j", j)
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("name", ["refinement", "defect"])
def test_dump_transform_at_a_large_k(capsys, name):
    # D^3000 is built level by level, not by 3000 nested calls
    code, out, _ = run(capsys, "dump-transform", "--name", name,
                       "--k", "3000", "--i", "0", "--j", "0")
    assert code == 0
    assert json.loads(out) == {
        "bidegree": [0, 0], "target": [-3000, -3000], "terms": [],
    }


@pytest.mark.parametrize("argv, term", [
    (("--name", "identity"), ["id", "id"]),
    (("--name", "face0-left"), ["d0", "id"]),
    (("--name", "diagonal-identity", "--k", "40"), ["id", "id"]),
], ids=["identity", "face0-left", "diagonal-identity"])
def test_small_transforms_are_dumped_at_a_large_bidegree(capsys, argv, term):
    # a one-term transform is not term-checked
    code, out, err = run(capsys, "dump-transform", *argv, "--i", "40", "--j", "40")
    assert (code, err) == (0, "")
    assert json.loads(out)["terms"] == [term]


@pytest.mark.parametrize("name, i, j", [
    ("boundary-left", 19_999, 0),
    ("boundary-right", 0, 19_999),
    ("diagonal-faces", 19_999, 30_000),
])
def test_face_sums_at_the_term_budget_are_dumped(capsys, name, i, j):
    code, out, err = run(capsys, "dump-transform", "--name", name,
                         "--i", str(i), "--j", str(j))
    assert (code, err) == (0, "")
    assert len(json.loads(out)["terms"]) == cli.TERM_BUDGET


def test_dump_transform_argument_errors(capsys):
    code, _, err = run(capsys, "dump-transform", "--name", "refinement",
                       "--i", "1", "--j", "1")
    assert code == 2
    code, _, err = run(capsys, "dump-transform", "--name", "bogus",
                       "--i", "1", "--j", "1")
    assert code == 2
    code, out, err = run(capsys, "dump-transform", "--name", "shuffle",
                         "--k", "3", "--i", "1", "--j", "1")
    assert code == 2
    assert out == ""
    assert err == "error: --name shuffle takes no --k\n"


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "delta", "--q", "2", "--i", "2",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "delta_q2_i2.json").read_text()


@pytest.mark.parametrize("argv", [
    ("verify", "simp", "--max-total", "4"),
    ("delta", "--q", "2", "--i", "2"),
    ("homology", "--n", "1", "--max-degree", "2"),
    ("dump-transform", "--name", "shuffle", "--i", "1", "--j", "1"),
], ids=["verify", "delta", "homology", "dump-transform"])
def test_unwritable_output_is_a_config_error(capsys, tmp_path, monkeypatch, argv):
    # a missing directory, or a directory as the file, is rejected before
    # any subcommand does its work
    def no_work(*args, **kwargs):
        raise AssertionError("the subcommand ran before --output was checked")

    for name in ("check_relation", "delta_report", "associated_complex",
                 "dump_bidegree"):
        monkeypatch.setattr(cli, name, no_work)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert f"error: cannot write {target}: No such file or directory" in err
    assert not target.exists()
    assert not target.parent.exists()
    # so is an --output that names an existing directory
    code, out, err = run(capsys, *argv, "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert f"error: cannot write {tmp_path}: Is a directory" in err


@pytest.mark.parametrize("small, large", [
    (("verify", "dwyer", "--max-total", "4", "--max-k", "2"),
     ("verify", "dwyer", "--max-total", "8", "--max-k", "4")),
    (("delta", "--q", "2", "--i", "2"), ("delta", "--q", "3", "--i", "3")),
    (("homology", "--model", "sphere-algebra", "--n", "2", "--max-degree", "4"),
     ("homology", "--model", "sphere-algebra", "--n", "3", "--max-degree", "7")),
], ids=["verify", "delta", "homology"])
def test_cli_runs_leave_no_cyclic_garbage(capsys, small, large):
    # main pauses the cyclic collector, which is safe only while a run's
    # data has no reference cycles: then the only cyclic garbage is the
    # fixed amount argparse and json leave per run, whatever the window
    assert run(capsys, *small)[0] == 0
    assert gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        garbage = []
        for argv in (small, large):
            assert run(capsys, *argv)[0] == 0
            assert not gc.isenabled()
            garbage.append(gc.collect())
    finally:
        gc.enable()
    assert garbage[1] <= garbage[0]


def test_the_command_keeps_the_collector_off_to_its_exit(capsys, monkeypatch):
    # the process ends with the run, so entry does not turn it back on
    monkeypatch.setattr(sys, "argv", ["simpdelta", "verify", "simp", "--max-total", "2"])
    assert gc.isenabled()
    try:
        with pytest.raises(SystemExit) as info:
            cli.entry()
        assert info.value.code == 0
        assert not gc.isenabled()
    finally:
        gc.unfreeze()
        gc.enable()
    assert capsys.readouterr().out.endswith("relations passed on window max_total=2\n")


def spawn(*args, stdout=subprocess.PIPE, buffered=True):
    """Run ``python *args`` on this package's sources, with
    PYTHONUNBUFFERED set only when not ``buffered``."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=60)


# the command, with an exit hook that prints how many objects are frozen;
# "fail" makes every checked relation fail
FREEZE_COUNT = """
import atexit, gc, sys
from simpdelta import cli
from simpdelta.relations import RelationResult
atexit.register(lambda: print(f"frozen {gc.get_freeze_count()}", file=sys.stderr))
if sys.argv[1] == "fail":
    cli.check_relation = lambda name, max_total: RelationResult(name, "", 1, False, "w")
sys.argv = ["simpdelta", *sys.argv[2:]]
cli.entry()
"""


@pytest.mark.parametrize("code, argv", [
    (0, ("verify", "simp", "--max-total", "4")),
    (1, ("verify", "simp", "--max-total", "4")),
    (2, ("verify", "dwyer", "--max-total", "2", "--max-k", "4")),
], ids=["exit-0", "exit-1", "exit-2"])
def test_the_command_freezes_its_heap_before_it_exits(capsys, monkeypatch, code, argv):
    # frozen objects are skipped by the collection that interpreter exit
    # runs even with the collector off; main itself freezes nothing
    if code == 1:
        monkeypatch.setattr(cli, "check_relation", lambda name, max_total:
                            RelationResult(name, "", 1, False, "w"))
    got, out, err = run(capsys, *argv)
    assert got == code
    assert gc.get_freeze_count() == 0
    proc = spawn("-c", FREEZE_COUNT, "fail" if code == 1 else "pass", *argv)
    assert proc.returncode == code
    assert proc.stdout == out
    assert proc.stderr.startswith(err)
    frozen = proc.stderr[len(err):]
    assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0


# the command's import in a bare interpreter: the modules the package's
# sources name come first, listed on the command line; prints the modules
# they loaded, then those the package loaded beyond them
COLD_START = """
import sys
bare = set(sys.modules)
for name in sys.argv[1:]:
    __import__(name)
named = set(sys.modules)
import simpdelta.cli
print(*sorted(named - bare))
print(*sorted(set(sys.modules) - named))
"""


def named_modules():
    """The modules named by an absolute import in the package's sources."""
    names = set()
    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return sorted(names)


def test_the_command_imports_no_module_it_does_not_name():
    # without site, and with what the sources name already loaded, the
    # package adds only itself; dataclasses and inspect, which bring ast,
    # dis, tokenize and linecache, are not loaded at all
    names = named_modules()
    assert "sys" in names and "argparse" in names
    proc = spawn("-S", "-c", COLD_START, *names)
    assert proc.returncode == 0, proc.stderr
    by_names, by_package = (line.split() for line in proc.stdout.splitlines())
    assert "simpdelta.cli" in by_package
    assert [m for m in by_package
            if m != "__future__" and m.partition(".")[0] != "simpdelta"] == []
    assert {"dataclasses", "inspect"}.isdisjoint(by_names + by_package)


# a run of the command, then its exit code and which of random and csv it
# loaded, as the last line on stderr
LOADED = """
import sys
from simpdelta.cli import main
code = main(sys.argv[1:])
print(code, *sorted({"random", "csv"} & set(sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, loaded", [
    (("--help",), ""),
    (("verify", "simp", "--max-total", "4"), ""),
    (("delta", "--q", "2", "--i", "2", "--perturbations", "0"), ""),
    (("delta", "--q", "2", "--i", "2", "--perturbations", "1"), " random"),
    (("verify", "simp", "--max-total", "4", "--format", "csv"), " csv"),
], ids=["help", "verify", "delta-unperturbed", "delta-perturbed", "verify-csv"])
def test_random_and_csv_load_only_where_they_are_used(argv, loaded):
    # the perturbation draws import random, and csv output imports csv
    proc = spawn("-S", "-c", LOADED, *argv)
    assert proc.stderr.splitlines()[-1] == f"0{loaded}"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("verify", "simp", "--max-total", "4"),
    ("delta", "--q", "2", "--i", "2", "--perturbations", "0"),
    ("homology", "--n", "1", "--max-degree", "2"),
    ("--help",),
    ("delta", "--help"),
], ids=["verify", "delta", "homology", "help", "delta-help"])
def test_a_failed_write_to_stdout_exits_2(argv, buffered):
    # one error line, with no traceback, and no second one when the
    # interpreter flushes stdout at exit
    with open("/dev/full", "w") as full:
        proc = spawn("-m", "simpdelta.cli", *argv, stdout=full, buffered=buffered)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_no_subcommand(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("argv, size", [
    (("delta", "--q", "8", "--i", "8"), "295,524,516"),
    (("homology", "--model", "sphere-algebra", "--n", "4", "--max-degree", "40"),
     "4,176,203,136"),
    (("homology", "--model", "delta", "--n", "10", "--max-degree", "20"),
     "44,352,165"),
    # past 10^4000 the count stops at the cap: a bound
    (("delta", "--q", "5000", "--i", "5000"), "more than 10^4000"),
    # the closed-form dimension, not a sum over every polynomial degree
    (("homology", "--model", "sphere-algebra", "--n", "4", "--max-degree", "9",
      "--poly", "3000000"), "about 10^604"),
    # comb(s + P, P) with both s and P huge is never built
    (("delta", "--q", "5000", "--i", "5000", "--poly", "3000000"),
     "more than 10^4000"),
    (("homology", "--model", "sphere-algebra", "--n", "200", "--max-degree", "400",
      "--poly", "100000000"), "more than 10^4000"),
    # module dimensions far past the cap: no whole binomial built
    (("delta", "--q", "1000000", "--i", "1000000"), "more than 10^4000"),
    (("homology", "--model", "delta", "--n", "1000000", "--max-degree", "1000000"),
     "more than 10^4000"),
    (("homology", "--model", "boundary", "--n", "1000000", "--max-degree", "1000000"),
     "more than 10^4000"),
    (("homology", "--model", "sphere", "--n", "1000000", "--max-degree", "2000000"),
     "more than 10^4000"),
    (("delta", "--q", "5000", "--i", "5000", "--poly", "1" + "0" * 400),
     "more than 10^4000"),
    # the boundary's exact count, a difference of two 4,500-digit binomials
    (("homology", "--model", "boundary", "--n", "3", "--max-degree", "1" + "0" * 1500),
     "about 10^3000 basis"),
    # C(m, 1) = m: the order of magnitude of an exact power of ten is its own
    (("homology", "--model", "sphere", "--n", "1", "--max-degree", str(10**31)),
     "about 10^31 basis"),
    (("homology", "--model", "sphere", "--n", "1", "--max-degree", str(10**45)),
     "about 10^45 basis"),
    (("homology", "--model", "sphere", "--n", "1", "--max-degree", str(10**60)),
     "about 10^60 basis"),
    (("homology", "--model", "sphere", "--n", "1", "--max-degree", str(10**45 - 1)),
     "about 10^44 basis"),
], ids=["delta-8-8", "sphere-algebra-40", "delta-model-20", "delta-5000-5000",
        "sphere-algebra-poly-3000000", "delta-5000-5000-poly-3000000",
        "sphere-algebra-200-poly-100000000", "delta-1000000-1000000",
        "delta-model-1000000", "boundary-model-1000000", "sphere-model-1000000",
        "delta-5000-5000-poly-10^400", "boundary-model-3-10^1500", "sphere-model-1-10^31",
        "sphere-model-1-10^45", "sphere-model-1-10^60", "sphere-model-1-10^45-1"])
def test_oversized_model_exits_2_at_once(capsys, argv, size):
    t0 = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert size in err and f"budget of {cli.BASIS_BUDGET:,}" in err


@pytest.mark.parametrize("argv, size", [
    # the work estimate (top + 1)^2 dim(top) (top + 1 + P), with a small basis
    (("homology", "--model", "sphere-algebra", "--n", "1", "--max-degree", "1",
      "--poly", "199999"), "160,000,800,000 steps up to degree 1"),
    (("homology", "--model", "sphere-algebra", "--n", "1", "--max-degree", "1",
      "--poly", "20000"), "1,600,240,008 steps up to degree 1"),
    (("homology", "--model", "sphere", "--n", "1", "--max-degree", "300"),
     "8,181,270,300 steps up to degree 300"),
    (("homology", "--model", "delta", "--n", "0", "--max-degree", "100000000"),
     "1,000,000,030,000,000,300,000,001 steps up to degree 100000000"),
    (("homology", "--model", "delta", "--n", "0", "--max-degree", "1000"),
     "1,003,003,001 steps up to degree 1000"),
    # two labels in every degree, past 10^31 steps: the order of magnitude
    (("homology", "--model", "boundary", "--n", "1", "--max-degree", "1" + "0" * 20),
     "about 10^60 steps"),
    # no label in any degree: each still compiles its faces, charged as one label
    (("homology", "--model", "boundary", "--n", "0", "--max-degree", "3000"),
     "27,027,009,001 steps up to degree 3000"),
], ids=["sphere-algebra-poly-199999", "sphere-algebra-poly-20000", "sphere-model-300",
        "delta-model-0-100000000", "delta-model-0-1000", "boundary-model-1-10^20",
        "boundary-model-0-3000"])
def test_too_much_work_exits_2_at_once(capsys, argv, size):
    t0 = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert size in err and f"budget of {cli.WORK_BUDGET:,}" in err


@pytest.mark.parametrize("n, k", [
    (200_001, 1), (200_001, 200_000), (200_002, 2), (300_000, 5),
    (300_000, 6), (300_000, 7), (3_000_126, 126), (400_000, 1_000), (400_000, 200_000),
])
def test_size_estimate_is_the_exact_count_text(n, k):
    # past the budget: exact below 10^30, else the order of magnitude, and
    # past the cap its bound, shown by C(n, k) >= 2^min(k, n - k)
    j = min(k, n - k)
    size = 2**j if 2**j > cli.SIZE_CAP else math.comb(n, k)
    with pytest.raises(cli._ConfigError) as info:
        cli._refuse_over(cli.BASIS_BUDGET, partial(binomial, n, k), "C(n, k) is {}")
    assert str(info.value) == (
        f"C(n, k) is {count_text(size)}, over the budget of 200,000")


@pytest.mark.parametrize("build, n, degree", [
    (delta_model, 300_000, 2), (delta_model, 200_000, 8), (delta_model, 300_000, 12),
    (sphere_model, 5, 300_000), (sphere_model, 12, 300_000),
    (sphere_model, 299_995, 300_000),
    (boundary_delta_model, 200_000, 1), (boundary_delta_model, 3, 400_000),
    # C(m, 1) = m at exact powers of ten and just below one
    (sphere_model, 1, 10**31), (sphere_model, 1, 10**45), (sphere_model, 1, 10**60),
    (sphere_model, 1, 10**45 - 1),
], ids=lambda v: getattr(v, "__name__", v))
def test_module_estimate_is_the_exact_count_text(build, n, degree):
    # exact below 10^30, else the order of magnitude of the closed form
    model = build(n, degree)
    with pytest.raises(cli._ConfigError) as info:
        cli._check_size(model)
    size = count_text(model.dimension(degree))
    assert f" {size} basis elements" in str(info.value)


def test_an_algebra_without_generators_runs_at_once(capsys):
    # no sphere label below degree 5: the unit is the whole basis, and no
    # loop runs to the polynomial bound
    t0 = perf_counter()
    code, out, err = run(capsys, "homology", "--model", "sphere-algebra", "--n", "5",
                         "--max-degree", "3", "--poly", "300000")
    assert perf_counter() - t0 < 1
    assert code == 0 and err == ""
    assert out == run(capsys, "homology", "--model", "sphere-algebra", "--n", "5",
                      "--max-degree", "3", "--poly", "2")[1]
    model = algebra_model(5, 3, 300_000)
    assert model.basis(3) == ((),) and list(model.monomial_indices(3)) == [()]


def test_an_algebra_without_generators_passes_the_guard():
    # no sphere label in degree 3 < n: the unit is the whole basis, C(P, P)
    model = algebra_model(5, 3, 300_000)
    assert model.underlying.dimension(3) == 0 and model.dimension(3) == 1
    cli._check_size(model)


@pytest.mark.parametrize("argv", [
    ("homology", "--model", "sphere", "--n", "14", "--max-degree", "13"),
    ("homology", "--model", "sphere", "--n", str(10**40), "--max-degree", "5"),
    ("homology", "--model", "sphere-algebra", "--n", "1000000", "--max-degree", "3"),
], ids=["sphere-14-13", "sphere-10^40-5", "sphere-algebra-1000000-3"])
def test_empty_spheres_exit_0_at_once(capsys, argv):
    # a sphere has no label below its dimension, and the guard admits it:
    # its table is all zero, and the algebra's is the unit's alone
    t0 = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - t0 < 1
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2 * int(argv[-1])
    for _, degree, dim, rank, betti, agree in rows:
        if argv[2] == "sphere":
            assert (dim, rank, betti) == ("0", "0", "0")
        else:
            assert betti == ("1" if degree == "0" else "0")
        assert agree == "true"


# every int flag of `homology` and `delta`: a small value or a huge one
SIZES = st.integers(0, 6) | st.sampled_from([10**6, 10**40])


@st.composite
def fuzzed_argv(draw):
    """A `homology` or `delta` command line over SIZES, each optional flag
    given or left out."""
    def sizes(*names, optional=False):
        argv = []
        for name in names:
            value = draw(st.none() | SIZES) if optional else draw(SIZES)
            if value is not None:
                argv += [f"--{name}", str(value)]
        return argv

    if draw(st.booleans()):
        model = draw(st.sampled_from(["delta", "boundary", "sphere", "sphere-algebra"]))
        return ["homology", "--model", model, *sizes("n", "max-degree"),
                *sizes("poly", optional=True)]
    return ["delta", *sizes("q", "i"), *sizes("poly", "perturbations", "seed",
                                                optional=True)]


class _Hang(Exception):
    """A fuzzed run outlived its interval timer."""


def _hang(signum, frame):
    raise _Hang


@given(fuzzed_argv())
def _fuzz_main(argv):
    # the slowest admitted run in range, homology of SphereAlgebra(3, P=5)
    # to degree 6, takes about 6 s on a 2-core host; a run past 8 s hangs
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 8)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    assert code in (0, 1, 2)
    if code == 2:
        assert perf_counter() - t0 < 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_homology_and_delta_never_raise_or_hang():
    # main in this process, timed by an interval timer on this process alone:
    # every run exits 0, 1 or 2, and a refusal is one line within 1 s
    old = signal.signal(signal.SIGALRM, _hang)
    t0 = perf_counter()
    try:
        _fuzz_main()
    finally:
        signal.signal(signal.SIGALRM, old)
    assert perf_counter() - t0 < 10


@pytest.mark.parametrize("q, i, poly, admitted", [
    (5, 5, 2, True),   # 107,416 monomials in degree 11
    (3, 3, 4, True),   # 82,251 in degree 7
    (6, 6, 2, False),  # 1,474,903 in degree 13
    (7, 7, 2, False),  # 20,714,266 in degree 15
])
def test_size_budget_admits_the_largest_verdicts_that_finish(q, i, poly, admitted):
    model = algebra_model(q, q + i + 1, poly)
    assert (model.dimension(q + i + 1) <= cli.BASIS_BUDGET) == admitted


@pytest.mark.parametrize("model, work, admitted", [
    (algebra_model(5, 11, 2), 216_550_656, True),     # delta --q 5 --i 5
    (algebra_model(3, 7, 4), 63_168_768, True),       # delta --q 3 --i 3 --poly 4
    (algebra_model(4, 9, 2), 9_753_600, True),        # the benchmark's table
    (algebra_model(1, 1, 5000), 100_060_008, True),
    (delta_model(0, 600), 217_081_801, True),
    (sphere_model(1, 150), 516_442_650, False),
    (algebra_model(1, 1, 199_999), 160_000_800_000, False),
    # an empty top degree is charged as one label
    (boundary_delta_model(0, 3000), 27_027_009_001, False),
    (sphere_model(14, 13), 2_744, True),
], ids=lambda v: getattr(v, "name", v))
def test_work_budget_admits_the_calibration_runs(model, work, admitted):
    # closed forms only: W = (top + 1)^2 max(dim(top), 1) (top + 1 + P)
    top = model.max_degree
    dim = max(model.dimension(top), 1)
    assert (top + 1) ** 2 * dim * (top + 1 + model.poly_bound) == work
    assert (work <= cli.WORK_BUDGET) == admitted
    if admitted:
        cli._check_size(model)
    else:
        with pytest.raises(cli._ConfigError, match=f"{work:,} steps"):
            cli._check_size(model)


@pytest.mark.parametrize("argv, size", [
    (("verify", "dwyer", "--max-total", "40", "--max-k", "4"),
     "137,846,528,820 terms at bidegree (20, 20)"),
    (("dump-transform", "--name", "shuffle", "--i", "40", "--j", "40"),
     "107,507,208,733,336,176,461,620 terms at bidegree (40, 40)"),
    (("verify", "dwyer", "--max-total", "40000", "--max-k", "4"),
     "more than 10^4000 terms at bidegree (20000, 20000)"),
    (("dump-transform", "--name", "shuffle", "--i", "20000", "--j", "20000"),
     "more than 10^4000 terms at bidegree (20000, 20000)"),
    # D^0 .. D^k are built level by level, whatever the bidegree
    (("dump-transform", "--name", "refinement", "--k", "1000000", "--i", "2", "--j", "2"),
     "D^0 .. D^1000000 would be 1,000,001 levels"),
    (("dump-transform", "--name", "defect", "--k", "20000", "--i", "0", "--j", "0"),
     "D^0 .. D^20000 would be 20,001 levels"),
    # a face sum has its exact count: i + 1, j + 1 or min(i, j) + 1 faces
    (("dump-transform", "--name", "boundary-left", "--i", "100000000", "--j", "0"),
     "boundary-left would have 100,000,001 terms at bidegree (100000000, 0)"),
    (("dump-transform", "--name", "boundary-right", "--i", "0", "--j", "20000"),
     "boundary-right would have 20,001 terms at bidegree (0, 20000)"),
    (("dump-transform", "--name", "diagonal-faces", "--i", "100000000",
      "--j", "100000000"),
     "diagonal-faces would have 100,000,001 terms at bidegree (100000000, 100000000)"),
], ids=["verify-window-40", "dump-shuffle-40-40", "verify-window-40000",
        "dump-shuffle-20000-20000", "dump-refinement-k-1000000", "dump-defect-k-20000",
        "dump-boundary-left-100000000", "dump-boundary-right-20000",
        "dump-diagonal-faces-100000000"])
def test_oversized_window_exits_2_at_once(capsys, argv, size):
    t0 = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert size in err and f"budget of {cli.TERM_BUDGET:,}" in err


def test_unbounded_perturbations_exit_2_at_once(capsys, monkeypatch):
    def no_report(*args, **kwargs):
        raise AssertionError("the delta report was started")

    monkeypatch.setattr(cli, "delta_report", no_report)
    t0 = perf_counter()
    code, out, err = run(capsys, "delta", "--q", "3", "--i", "2", "--poly", "4",
                         "--perturbations", "100000000")
    assert perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert ("--perturbations 100,000,000 would evaluate up to 300,000,000 "
            f"delta_2 terms, over the budget of {cli.TERM_BUDGET:,}") in err


@pytest.mark.parametrize("perturbations, i, admitted", [
    (6_666, 2, True),   # 3 terms each
    (6_667, 2, False),
    (2_000, 3, True),   # 10 terms each
    (2_001, 3, False),
    (20_000, 1, True),  # 1 term each
])
def test_term_budget_bounds_the_perturbations(perturbations, i, admitted):
    if admitted:
        cli._check_perturbations(perturbations, i)
    else:
        with pytest.raises(cli._ConfigError, match="delta_"):
            cli._check_perturbations(perturbations, i)


@pytest.mark.parametrize("window, terms, admitted", [
    (12, 924, True),     # C(12, 6), the benchmark's sweep window
    (16, 12_870, True),  # C(16, 8)
    (18, 48_620, False),
    (20, 184_756, False),
])
def test_term_budget_admits_window_16(window, terms, admitted):
    # closed forms only: no transform is built
    i, j = window // 2, window - window // 2
    assert math.comb(i + j, i) == terms
    assert (terms <= cli.TERM_BUDGET) == admitted
    if admitted:
        cli._check_terms(i, j)
    else:
        with pytest.raises(cli._ConfigError, match=f"{terms:,} terms"):
            cli._check_terms(i, j)
