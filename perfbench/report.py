"""Print every end-to-end metric per workload, by name and with its unit.

Usage: python3 perfbench/report.py --seed N [--runs R]

Runs run.py untraced once per workload and round, for the run_seconds of
BENCHMARK.json, interleaving the workloads within each round so that host
drift spreads over all of them; round r uses seed N + r.  Prints, per
workload and end-to-end metric, the median over the rounds with its unit,
and with two or more rounds the spread: the distance between the first and
third quartiles as a share of the median (statistics.quantiles, n=4), next
to the bound from BENCHMARK.json.  Also prints fail_share, the
failed samples over the attempted ones.  Exits 1 when any sample failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args()

    values: dict = defaultdict(lambda: defaultdict(list))
    units: dict = {}
    attempted: dict = defaultdict(int)
    failed: dict = defaultdict(int)
    for r in range(args.runs):
        for workload in names:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed + r), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted[workload] += result["attempted"]
            failed[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
                units[name] = metric["unit"]
            print(f"round {r} {workload}: {json.dumps(result)}", file=sys.stderr,
                  flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in names:
        print(f"{workload}  (runs={args.runs}, seeds {args.seed}..{args.seed + args.runs - 1})")
        for name, vals in values[workload].items():
            median = statistics.median(vals)
            line = f"  {name:<40} {median:>14.6g} {units[name]:<6}"
            s = spread(vals)
            if s is not None:
                line += f"  spread {s:.3f} (bound {bounds[name]})"
            print(line)
        share = failed[workload] / attempted[workload]
        print(f"  {'fail_share':<40} {share:>14.6g} ratio   "
              f"({failed[workload]}/{attempted[workload]} samples)")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
