"""Verification of the CLI output of each benchmark workload.

A sample passes when its exit status and stdout equal the reference
captured with the same arguments, and the cross-checks the output carries
all hold: every relation line is a PASS and the summary counts them all,
every homology row has agree=true, and the delta report certifies its
value (equals_theta, is_cycle, homology_class_nonzero) and a non-vacuous
perturbation check (stable, with at least one perturbation checked).

The references in ``reference/`` were captured from the CLI at the commit
that added this benchmark.  Re-capture them (``python3 perfbench/checks.py
--capture``) only when a change of CLI output is intended, and say so in
that change.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MANIFEST = REFERENCE_DIR / "manifest.json"

_PASS_LINE = re.compile(r"PASS \S+ \(cases=\d+\)")
_SUMMARY_LINE = re.compile(r"(\d+)/(\d+) relations passed on window max_total=\d+")


def load_references() -> dict:
    """Workload -> {"argv", "exit_status", "stdout"}."""
    manifest = json.loads(MANIFEST.read_text())
    return {
        name: dict(entry, stdout=(REFERENCE_DIR / entry["stdout"]).read_text())
        for name, entry in manifest.items()
    }


def check_sweep(stdout: str) -> None:
    *lines, summary = stdout.splitlines() or [""]
    for line in lines:
        if not _PASS_LINE.fullmatch(line):
            raise ValueError(f"not a PASS line: {line!r}")
    match = _SUMMARY_LINE.fullmatch(summary)
    if not lines or match is None or match.groups() != (str(len(lines)),) * 2:
        raise ValueError(f"summary does not count every relation as passed: {summary!r}")


def check_homology(stdout: str) -> None:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if not rows:
        raise ValueError("empty homology table")
    for row in rows:
        if row["agree"] != "true":
            raise ValueError(f"the two complexes disagree: {row}")


def check_delta(stdout: str) -> None:
    report = json.loads(stdout)
    for key in ("equals_theta", "is_cycle", "homology_class_nonzero",
                "class_stable_under_boundary_perturbations"):
        if report.get(key) is not True:
            raise ValueError(f"{key} is {report.get(key)!r}, expected true")
    if report["perturbations_checked"] < 1:
        raise ValueError("no perturbation was checked, so stability is vacuous")


CHECKS = {
    "sweep-symbolic": check_sweep,
    "sweep-numeric": check_sweep,
    "delta-verdict": check_delta,
    "homology-table": check_homology,
}


def verify(workload: str, argv: list[str], exit_status: int, stdout: str,
           references: dict) -> str | None:
    """None when the sample is correct, else the reason it is not."""
    ref = references.get(workload)
    if ref is None or ref["argv"] != argv:
        return f"no reference captured for {workload} with these arguments"
    if exit_status != ref["exit_status"]:
        return f"exit status {exit_status}, reference {ref['exit_status']}"
    if stdout != ref["stdout"]:
        return "stdout differs from the reference"
    try:
        CHECKS[workload](stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return str(exc) or type(exc).__name__
    return None


def capture() -> None:
    """Run the CLI once per workload; store its exit status and stdout."""
    import run

    run.WORK.mkdir(parents=True, exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    manifest = {}
    for name, argv in run.WORKLOADS.items():
        code, stdout, _, _ = run.spawn(
            [sys.executable, "-m", "simpdelta.cli", *argv], run.DEADLINE_S)
        (REFERENCE_DIR / f"{name}.out").write_text(stdout)
        manifest[name] = {"argv": argv, "exit_status": code, "stdout": f"{name}.out"}
        print(f"{name}: exit {code}", file=sys.stderr)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        print("usage: checks.py --capture", file=sys.stderr)
        sys.exit(2)
    capture()
