"""Benchmark of the `prelie-coh` verifier, run against the package in src/.

    python3 bench/run.py --workload cohom-sparse --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 [--trace 1]

One client, closed loop, no threads: a job starts only after the
previous one finished. A job calls `preliecoh.cli.main(argv)` with
stdout captured, or one public library function, on inputs generated
from the seed (see jobs.py); every job gets a fresh isomorphic copy,
and its answer is checked. Job inputs are generated outside the timed
region; the loop stops at the first whole cycle of job kinds after the
jobs' own time at reference speed (see below), or their wall time if
that comes first, reaches --seconds. So every run has the same mix and,
on a machine at least as fast as the reference, the same job count.

End-to-end metrics (--trace 0), one row per workload, with every time
at reference speed (see below):
  jobs_per_s    jobs completed per second of job wall time
  job_s.p50     median job wall time
  job_s.tail    the highest percentile with at least 10 jobs beyond it
                (the 11th-slowest job; its percentile and n are printed)
  setup_s       median over SETUPS rounds of: importing preliecoh.cli in
                a fresh interpreter, plus building the workload and
                writing its first cycle of inputs in this process
  peak_rss_mb   peak resident memory of the process
  fail_ratio    jobs with a wrong exit code or answer, or that raised,
                over jobs attempted (printed; the run exits 1 when > 0)

Reference speed. On a machine shared with other tenants the throughput
of a CPU can drift by 2x over minutes while the process is never
descheduled (its CPU time equals its wall time), which no run length
averages out. So a fixed computation that uses the standard library
only is timed between jobs and around each set-up round. Speed at a
timing is REFERENCE_S / r when the computation took a median of r
seconds in three tries, and a time t measured between two timings is
reported as t times the mean of their speeds: the time on a machine
where the computation takes REFERENCE_S. No code of the package runs in
the reference, so changing the package cannot move it. The table's
`speed` column is the run's median speed.

--trace 1 alternates untraced jobs with jobs of the same kind on fresh
copies with every layer wrapped (tracer.py) until the untraced ones add
up to half the time, again in whole cycles, and prints per-layer
metrics of the traced jobs; trace.overhead_s is the mean difference in
job time. When a single workload runs, the last line of output is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
SETUPS = 9
TAIL_BEYOND = 10
REFERENCE_S = 0.015
REFERENCE_EVERY_S = 1.0  # least job time between two reference timings

import inputs  # noqa: E402
import jobs  # noqa: E402
import tracer as tracing  # noqa: E402

_REFERENCE_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + 2 * j) % 3) for j in range(9)] for i in range(9)]


def _reference() -> float:
    """Time of a fixed computation: rational Gauss-Jordan and a dict of
    tuple keys, the two kinds of work the package does."""
    start = perf_counter()
    inputs.invert(_REFERENCE_MATRIX)
    table: dict = {}
    for a in range(14):
        for b in range(14):
            for c in range(6):
                table[a, b, c] = table.get((b, a, c), Fraction(0)) + Fraction(a * b - c, 3)
    return perf_counter() - start


def reference_speed() -> float:
    """REFERENCE_S over the median of three reference times; the median
    drops a try that an interrupt lengthened. The collector is off, so
    the heap the package leaves cannot slow the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return REFERENCE_S / statistics.median(_reference() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import preliecoh.cli\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds() -> float:
    """Time to import preliecoh.cli in a new interpreter, where the
    standard library modules it needs are not loaded yet either."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def setup(workload_cls, seed: int, workdir: Path, pkg):
    """Build the workload and write its first cycle of inputs."""
    workload = workload_cls(seed, workdir, jobs.load_expected(), pkg)
    first = [workload.job(i) for i in range(len(workload.cycle))]
    return workload, first


def execute(pkg, job):
    """Run one job; returns the outcome its check expects."""
    if job.argv is None:
        return job.call(pkg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(job.argv)
    return code, out.getvalue(), err.getvalue()


class Loop:
    """Closed-loop runner of one workload instance."""

    def __init__(self, pkg, workload, first) -> None:
        self.pkg = pkg
        self.workload = workload
        self.ready = {i: job for i, job in enumerate(first)}
        self.times: list[float] = []
        self.scaled: list[float] = []  # job times at reference speed
        self.speeds: list[float] = []
        self.failures: list[str] = []

    def run_one(self, index: int, wrap=None) -> None:
        job = self.ready.pop(index, None) or self.workload.job(index)
        call = lambda: execute(self.pkg, job)  # noqa: E731
        start = perf_counter()
        try:
            outcome = wrap(index, call) if wrap else call()
        except Exception:  # a raising job is a failed job; keep measuring
            self.times.append(perf_counter() - start)
            self.failures.append(f"job {index} ({job.kind}) raised:\n{traceback.format_exc()}")
            return
        self.times.append(perf_counter() - start)
        try:
            reason = job.check(outcome)
        except Exception:  # malformed output counts against the program
            reason = "check raised:\n" + traceback.format_exc()
        if reason is not None:
            self.failures.append(f"job {index} ({job.kind}): {reason}")

    def run_for(self, seconds: float) -> None:
        index, kinds = 0, len(self.workload.cycle)
        self.speeds.append(reference_speed())
        batch: list[float] = []  # times of the jobs since the last timing
        done = False
        while not done:
            self.run_one(index)
            index += 1
            batch.append(self.times[-1])
            spent = max(sum(self.scaled) + sum(batch) * self.speeds[-1], sum(self.times))
            done = index % kinds == 0 and spent >= seconds
            if done or sum(batch) >= REFERENCE_EVERY_S:
                self.speeds.append(reference_speed())
                speed = (self.speeds[-2] + self.speeds[-1]) / 2
                self.scaled += [t * speed for t in batch]
                batch = []


def end_to_end(times: list[float], setup_times: list[float]) -> dict:
    ordered = sorted(times)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0  # too few jobs: report the maximum
    return {
        "jobs_per_s": (n / sum(ordered), "1/s"),
        "job_s.p50": (statistics.median(ordered), "s"),
        "job_s.tail": (ordered[n - 1 - beyond], "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, 100.0 * (n - beyond) / n


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload_cls = jobs.WORKLOADS[name]
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pkg = importlib.import_module("preliecoh")
        importlib.import_module("preliecoh.cli")
        setup_times = []
        speed = reference_speed()
        for _ in range(SETUPS):
            started = import_seconds()
            start = perf_counter()
            workload, first = setup(workload_cls, seed, workdir, pkg)
            seconds_taken = started + perf_counter() - start
            before, speed = speed, reference_speed()
            setup_times.append(seconds_taken * (before + speed) / 2)
        loop = Loop(pkg, workload, first)
        if not trace:
            loop.run_for(seconds)
            metrics, pct = end_to_end(loop.scaled, setup_times)
            print_e2e(name, metrics, pct, loop)
        else:
            # untraced and traced jobs alternate, job i of each stream having
            # the same kind, so drift in machine speed and warm-up cancel in
            # the overhead; the tracer is installed for traced jobs only
            traced = Loop(pkg, workload_cls(seed, workdir, workload.expected, pkg, stream=1), [])
            tr = tracing.Tracer()
            index = 0
            while sum(loop.times) < seconds / 2 or index % len(workload.cycle):
                loop.run_one(index)
                tr.install(pkg)
                try:
                    traced.run_one(index, tr.run_job)
                finally:
                    tr.uninstall()
                index += 1
            n = len(traced.times)
            overhead = (sum(traced.times) - sum(loop.times)) / n
            layers = tracing.layer_metrics(tr, n, overhead)
            units = dict(tracing.LAYER_METRICS)
            metrics = {k: (v, units[k]) for k, v in layers.items()}
            tr.write(str(OUT / f"spans-{name}-{seed}.jsonl"))
            print_layers({name: layers})
            loop.failures += traced.failures
            loop.times += traced.times
        attempted, failed = len(loop.times), len(loop.failures)
        for failure in loop.failures[:5]:
            print(failure, file=sys.stderr)
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
            )
        )
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --- tables -------------------------------------------------------------------------


def print_e2e(name: str, m: dict, pct: float, loop: Loop) -> None:
    n = len(loop.times)
    tail = f"{m['job_s.tail'][0]:.4f} [p{pct:.0f} n={n}]"
    print(
        f"{'workload':14} {'jobs_per_s (1/s)':>17} {'job_s.p50 (s)':>14} "
        f"{'job_s.tail (s)':>22} {'fail_ratio':>10} {'setup_s (s)':>12} {'peak_rss_mb (MB)':>17} {'speed':>6}"
    )
    speed = statistics.median(loop.speeds)
    print(
        f"{name:14} {m['jobs_per_s'][0]:17.4f} {m['job_s.p50'][0]:14.4f} {tail:>22} "
        f"{len(loop.failures) / n:10.4f} {m['setup_s'][0]:12.4f} {m['peak_rss_mb'][0]:17.1f} {speed:6.3f}"
    )


def print_layers(columns: dict[str, dict[str, float]]) -> None:
    names = list(columns)
    print(f"{'per-layer metric':34} {'unit':6} " + " ".join(f"{n:>22}" for n in names))
    for metric, unit in tracing.LAYER_METRICS:
        cells = []
        for name in names:
            values = columns[name]
            value = values[metric]
            share = ""
            if unit == "s/job" and values["job.s"] > 0:
                share = f" ({100 * value / values['job.s']:5.1f}%)"
            cells.append(f"{value:.4g}{share}".rjust(22))
        print(f"{metric:34} {unit:6} " + " ".join(cells))


def run_many(names: list[str], seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so memory and imports are its own."""
    status = 0
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: benchmark exited {proc.returncode}", file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
        results[name] = (json.loads(lines[-1]), lines[:-1])
    if trace:
        print_layers({n: {k: v["value"] for k, v in r["metrics"].items()} for n, (r, _) in results.items()})
    else:
        print(results[names[0]][1][0])  # header
        for _, (_, table) in results.items():
            print(table[1])
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, a comma list, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "preliecoh" / "__init__.py").is_file():
        print(f"error: no preliecoh package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(jobs.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in jobs.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(jobs.WORKLOADS)}")
    if len(names) > 1:
        return run_many(names, args.seed, args.seconds, bool(args.trace))
    return run_workload(names[0], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
