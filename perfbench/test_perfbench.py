"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The traced-counter test runs every workload twice under the tracer and
takes a few minutes; the others take seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

import checks
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCES = checks.load_references()

# Regression tripwires: counts at the commit that added the benchmark.
TRIPWIRES = {
    "sweep-symbolic": {
        "words.normalize.calls": 402084,
        "words.Word.created": 460041,
        "transforms.raw_terms": 201042,
        "relations.cases": 385,
    },
    "sweep-numeric": {
        "models.apply_word.calls": 1197116,
        "relations.cases": 31611,
    },
    "delta-verdict": {
        "homology.associated_complex.calls": 5,
        "homology.same_class.calls": 5,
    },
    "homology-table": {
        "homology.associated_complex.calls": 1,
        "gf2.matrices": 27,
        "gf2.max_columns": 8128,
    },
}


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    layer = run.layer_metrics({"spans": {}, "counters": {}}, 1.0)
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()
    }


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_reference_output_verifies(workload):
    ref = REFERENCES[workload]
    assert ref["argv"] == run.WORKLOADS[workload]
    assert checks.verify(workload, ref["argv"], 0, ref["stdout"], REFERENCES) is None


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_any_other_output_or_status_fails(workload):
    ref = REFERENCES[workload]
    argv = run.WORKLOADS[workload]
    assert checks.verify(workload, argv, 1, ref["stdout"], REFERENCES)
    assert checks.verify(workload, argv, 0, ref["stdout"] + "\n", REFERENCES)
    assert checks.verify(workload, argv + ["--seed", "1"], 0, ref["stdout"], REFERENCES)


def test_cross_checks_reject_bad_verdicts():
    with pytest.raises(ValueError):
        checks.check_sweep("FAIL dwyer-0: witness\n0/1 relations passed on window max_total=8\n")
    with pytest.raises(ValueError):
        checks.check_sweep("PASS a (cases=1)\n1/2 relations passed on window max_total=8\n")
    with pytest.raises(ValueError):
        checks.check_homology("complex,degree,dim,rank_d,betti,agree\nassociated,0,1,0,1,false\n")
    report = json.loads(REFERENCES["delta-verdict"]["stdout"])
    for key, value in [("perturbations_checked", 0), ("equals_theta", False),
                       ("class_stable_under_boundary_perturbations", False)]:
        with pytest.raises(ValueError):
            checks.check_delta(json.dumps(dict(report, **{key: value})))


def _copy_benchmark(dest, with_sources: bool):
    shutil.copy(run.ROOT / "BENCHMARK.json", dest)
    shutil.copytree(run.HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(run.SRC / "simpdelta", dest / "src" / "simpdelta",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run_copy(dest, workload):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=dest, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, check=False,
    )


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    _copy_benchmark(tmp_path, with_sources=False)
    proc = _run_copy(tmp_path, "delta-verdict")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_corrupted_reference_counts_as_failed(tmp_path):
    _copy_benchmark(tmp_path, with_sources=True)
    out = tmp_path / "perfbench" / "reference" / "delta-verdict.out"
    out.write_text(out.read_text().replace('"perturbations_checked": 4',
                                           '"perturbations_checked": 3'))
    proc = _run_copy(tmp_path, "delta-verdict")
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def _counters(metrics: dict) -> dict:
    return {name: value for name, (value, unit) in metrics.items() if unit != "s"}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_counters_repeat_exactly(workload):
    deadline = perf_counter() + 600
    seen = []
    with run.SpeedProbe() as probe:
        run.setup(probe, deadline)
        for _ in range(2):
            sample, trace = run.traced_sample(workload, REFERENCES, probe, deadline)
            assert sample.error is None
            seen.append(_counters(run.layer_metrics(trace, 1.0)))
    assert seen[0] == seen[1]
    for name, value in TRIPWIRES[workload].items():
        assert seen[0][name] == value, name
