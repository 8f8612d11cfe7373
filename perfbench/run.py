"""Benchmark of the simpdelta CLI: cold processes, one workload per run.

Usage (from any directory; the repository root is found from this file):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh ``python3 -m simpdelta.cli ...`` process, started
only after the previous one has exited (a closed loop with one caller),
because every CLI user pays interpreter start, imports, lazy model bases
and empty caches on each call.  Samples run until the next one would end
after ``--seconds``; at least one runs.  Every sample's exit status and
stdout are verified (see checks.py).

With ``--trace 0`` the run reports the end-to-end metrics, as medians over
its samples.  With ``--trace 1`` it runs one untraced and one traced
sample (tracer.py) and reports the per-layer metrics of the traced one.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 2 means the
benchmark could not be set up (for example, no ``src/simpdelta``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

from checks import load_references, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_SPAWNS = 15
DEADLINE_S = 170.0  # a run must exit within 180 s

# CLI arguments of each workload.  They do not depend on the seed, so every
# run does the same work.  delta-verdict fixes its perturbation seed too:
# over seeds 0-25 the delta report checked 0 to 4 perturbations and took
# 0.8 to 5.5 s, a spread no bound could absorb (see README.md).
WORKLOADS = {
    "sweep-symbolic": ["verify", "dwyer", "--max-total", "12", "--max-k", "4"],
    "sweep-numeric": ["verify", "chainmap", "--max-total", "8"],
    "delta-verdict": ["delta", "--q", "3", "--i", "2", "--poly", "4",
                      "--perturbations", "4", "--seed", "0"],
    "homology-table": ["homology", "--model", "sphere-algebra", "--n", "4",
                       "--max-degree", "9"],
}

END_TO_END_UNITS = {
    "wall_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}

# On a shared host the same CPU work takes up to ~1.8x longer at some times
# than at others, in wall and in CPU time alike (README.md).  So a probe
# thread on the one CPU the samples run on times a fixed piece of work, in
# its own CPU time, every PROBE_PERIOD_S: small-int arithmetic, as in the
# sweeps, and GF(2) elimination of wide ints, as in gf2.  The work runs
# twice and only the second pass is timed: the first brings the probe's data
# back into the caches the sample has used since the last probe, so the
# reading does not depend on the sample's memory use.  A sample's speed is
# the mean of REF_PROBE_S over the probe times during it; its wall and CPU
# times are multiplied by that speed, giving the time on a host where the
# probe takes REF_PROBE_S.  The probe takes about 5% of the CPU.
PROBE_PERIOD_S = 0.1
REF_PROBE_S = 0.002
PROBE_COLUMNS = 120
PROBE_BITS = 8192


class SetupError(Exception):
    pass


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    speed: float  # host speed during the sample
    peak_rss_mb: float
    error: str | None  # None when the output verified

    @property
    def wall_norm_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def cpu_norm_s(self) -> float:
        return self.cpu_s * self.speed


class SpeedProbe(threading.Thread):
    def __init__(self):
        super().__init__(daemon=True)
        rng = random.Random(0)
        self.columns = [rng.getrandbits(PROBE_BITS) for _ in range(PROBE_COLUMNS)]
        self.times: list[float] = []
        self.halt = threading.Event()

    def work(self) -> None:
        x = 0
        for k in range(10_000):
            x += k * k
        pivots: list[tuple[int, int]] = []
        for v in self.columns:
            for pbit, pval in pivots:
                if v >> pbit & 1:
                    v ^= pval
            if v:
                pivots.append((v.bit_length() - 1, v))

    def measure_once(self) -> None:
        self.work()
        start = thread_time()
        self.work()
        self.times.append(thread_time() - start)

    def run(self):
        while not self.halt.wait(PROBE_PERIOD_S):
            self.measure_once()

    def __enter__(self) -> "SpeedProbe":
        self.measure_once()
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.halt.set()
        self.join()

    def speed_since(self, index: int) -> float:
        """Mean of REF_PROBE_S over each probe time from probe ``index`` on."""
        times = self.times[index:] or self.times[-1:]
        return statistics.fmean(REF_PROBE_S / t for t in times)


def pin_to_one_cpu() -> None:
    """Run this thread, and the threads and processes it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def spawn(cmd: list[str], timeout: float) -> tuple[int, str, float, resource.struct_rusage]:
    """Run one process to its exit: (exit code, stdout, wall seconds, rusage).

    The process is killed when it outlives ``timeout``.
    """
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
        if proc.returncode != 0 and stderr:
            print(stderr.strip()[-2000:], file=sys.stderr)
        return proc.returncode, out.read().decode(errors="replace"), wall, usage


def setup(probe: SpeedProbe, deadline: float) -> float:
    """Check the package, warm its bytecode cache; median rescaled import time."""
    if not (SRC / "simpdelta" / "cli.py").is_file():
        raise SetupError(f"no simpdelta sources under {SRC}")
    WORK.mkdir(parents=True, exist_ok=True)
    where = "import simpdelta, simpdelta.cli; print(simpdelta.__file__)"
    code, out, _, _ = spawn([sys.executable, "-c", where], deadline - perf_counter())
    if code != 0 or Path(out.strip()).resolve().parent != SRC / "simpdelta":
        raise SetupError(f"simpdelta is not importable from {SRC}")
    times = []
    for _ in range(SETUP_SPAWNS):
        first_probe = len(probe.times)
        code, _, wall, _ = spawn([sys.executable, "-c", "import simpdelta.cli"],
                                 deadline - perf_counter())
        if code != 0:
            raise SetupError("importing simpdelta.cli failed")
        times.append(wall * probe.speed_since(first_probe))
    return statistics.median(times)


def run_sample(workload: str, references: dict, probe: SpeedProbe, deadline: float,
               prefix: tuple[str, ...] = ("-m", "simpdelta.cli")) -> Sample:
    """One verified CLI process of the workload; ``prefix`` runs the CLI."""
    argv = WORKLOADS[workload]
    first_probe = len(probe.times)
    code, stdout, wall, usage = spawn([sys.executable, *prefix, *argv],
                                      deadline - perf_counter())
    error = verify(workload, argv, code, stdout, references)
    sample = Sample(wall, usage.ru_utime + usage.ru_stime,
                    probe.speed_since(first_probe), usage.ru_maxrss / 1024, error)
    print(f"{workload}: wall {sample.wall_s:.3f} s, cpu {sample.cpu_s:.3f} s, "
          f"speed {sample.speed:.3f}, {error or 'verified'}", file=sys.stderr)
    return sample


def measure(workload: str, seconds: float, references: dict, probe: SpeedProbe,
            deadline: float) -> tuple[list[Sample], dict]:
    setup_s = setup(probe, deadline)
    samples: list[Sample] = []
    start = perf_counter()
    while True:
        samples.append(run_sample(workload, references, probe, deadline))
        elapsed = perf_counter() - start
        next_end = elapsed + elapsed / len(samples)
        if next_end > seconds or perf_counter() + elapsed / len(samples) > deadline:
            break
    metrics = {
        "wall_norm_s": statistics.median(s.wall_norm_s for s in samples),
        "cpu_norm_s": statistics.median(s.cpu_norm_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "setup_s": setup_s,
    }
    return samples, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


# -- traced run -------------------------------------------------------------


def layer_metrics(trace: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics from a tracer dump: name -> (value, unit)."""
    spans = trace["spans"]
    calls = defaultdict(int, {name: s["calls"] for name, s in spans.items()})
    self_s = defaultdict(float, {name: s["self_s"] for name, s in spans.items()})
    count = defaultdict(int, trace["counters"])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "words.normalize.calls": calls["words.normalize"],
        "words.normalize.self_s": self_s["words.normalize"],
        "words.normalize.reuse_ratio": ratio(count["words.normalize.reused"],
                                             calls["words.normalize"]),
        "words.Word.created": count["words.Word.created"],
        "transforms.reduced.calls": calls["transforms.reduced"],
        "transforms.reduced.self_s": self_s["transforms.reduced"],
        "transforms.terms.self_s": self_s["transforms.terms"],
        "transforms.raw_terms": count["transforms.raw_terms"],
        "transforms.reduced_terms": count["transforms.reduced_terms"],
        "transforms.survival_ratio": ratio(count["transforms.reduced_terms"],
                                           count["transforms.raw_terms"]),
        "models.evaluate_em.calls": calls["models.evaluate_em"],
        "models.evaluate_em.self_s": self_s["models.evaluate_em"],
        "models.apply_word.calls": calls["models.apply_word"],
        "models.apply_word.self_s": self_s["models.apply_word"],
        "models.basis.self_s": self_s["models.basis"],
        "models.basis.max_dim": count["models.basis.max_dim"],
        "gf2.matrices": count["gf2.matrices"],
        "gf2.columns": count["gf2.columns"],
        "gf2.max_columns": count["gf2.max_columns"],
        "gf2.pivot_share": ratio(count["gf2.eliminated_rank"],
                                 count["gf2.eliminated_columns"]),
        "gf2.rank.self_s": self_s["gf2.rank"],
        "gf2.kernel_basis.self_s": self_s["gf2.kernel_basis"],
        "gf2.solve.self_s": self_s["gf2.solve"],
        "gf2.reduced_echelon.self_s": self_s["gf2.reduced_echelon"],
        "homology.associated_complex.calls": calls["homology.associated_complex"],
        "homology.associated_complex.self_s": self_s["homology.associated_complex"],
        "homology.normalized_complex.self_s": self_s["homology.normalized_complex"],
        "homology.same_class.calls": calls["homology.same_class"],
        "homology.normalized_subspace.self_s": self_s["homology.normalized_subspace"],
        "operations.delta_i.calls": calls["operations.delta_i"],
        "operations.delta_i.self_s": self_s["operations.delta_i"],
        "operations.delta_via_em.self_s": self_s["operations.delta_via_em"],
        "operations.delta_report.self_s": self_s["operations.delta_report"],
        "relations.check_relation.self_s": self_s["relations.check_relation"],
        "relations.cases": count["relations.cases"],
        "cli.main.self_s": self_s["cli.main"],
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: (value, _layer_unit(name)) for name, value in metrics.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def traced_sample(workload: str, references: dict, probe: SpeedProbe,
                  deadline: float) -> tuple[Sample, dict]:
    """One CLI sample under tracer.py: the sample and the tracer's dump."""
    fd, trace_path = tempfile.mkstemp(suffix=".json", dir=WORK)
    os.close(fd)
    try:
        prefix = (str(HERE / "tracer.py"), trace_path, "--")
        sample = run_sample(workload, references, probe, deadline, prefix)
        with open(trace_path) as fh:
            text = fh.read()
        trace = json.loads(text) if text else {"spans": {}, "counters": {}}
    finally:
        os.unlink(trace_path)
    return sample, trace


def measure_traced(workload: str, references: dict, probe: SpeedProbe,
                   deadline: float) -> tuple[list[Sample], dict]:
    setup(probe, deadline)
    plain = run_sample(workload, references, probe, deadline)
    traced, trace = traced_sample(workload, references, probe, deadline)
    overhead = traced.wall_norm_s / plain.wall_norm_s
    return [plain, traced], layer_metrics(trace, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="accepted for the run protocol; the inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = perf_counter() + DEADLINE_S
    pin_to_one_cpu()
    try:
        references = load_references()
        with SpeedProbe() as probe:
            if args.trace:
                samples, metrics = measure_traced(args.workload, references, probe,
                                                  deadline)
            else:
                samples, metrics = measure(args.workload, args.seconds, references,
                                           probe, deadline)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = sum(1 for s in samples if s.error is not None)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
