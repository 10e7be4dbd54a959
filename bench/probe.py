"""Write baseline.json: the machine, a one-off traced probe of the
assembly/elimination baseline, and the per-layer shares each workload's
traced run measured.

    python3 bench/probe.py

The probe is not a workload: it builds d_3 of the regular
representation of the 5-dim left-unit algebra once with
`coboundary_matrix` and eliminates it once with `rank_kernel_image`,
both traced, and records the time and size facts of each. The shares
come from one traced run per workload of BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

BASELINE_PATH = HERE / "baseline.json"

# Layers whose share of traced job time is recorded per workload.
SHARES = (
    "cochain.assemble.s",
    "cochain.coboundary.self_s",
    "cochain.lie.s",
    "linalg.elim.self_s",
    "linalg.quotient.self_s",
    "linalg.solve.self_s",
    "trees.pullback.self_s",
    "algebra.check.self_s",
    "xmodules.check.self_s",
    "functors.convert.self_s",
    "documents.parse.self_s",
    "cli.self_s",
    "trace.overhead_s",
)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count()}


def probe() -> dict:
    pkg = importlib.import_module("preliecoh")
    importlib.import_module("preliecoh.cli")
    rep = pkg.documents.document_from_obj(inputs.regular(inputs.left_unit(5))).payload
    tr = tracing.Tracer()
    tr.install(pkg)
    try:
        d3 = tr.run_job(0, lambda: pkg.cochain.coboundary_matrix(rep, 3))
        tr.run_job(1, lambda: pkg.cochain.rank_kernel_image(d3))
    finally:
        tr.uninstall()
    seconds = {name: end - start for name, start, end, _, _ in tr.spans}
    out = {}
    for facts in tr.facts:
        rows, cols = facts["shape"]
        out[facts["name"]] = dict(
            seconds=seconds[facts["name"]],
            shape=facts["shape"],
            nnz=facts["nnz"],
            density=facts["nnz"] / (rows * cols),
            rank=facts["rank"],
            max_bits=facts["max_bits"],
        )
    return {"input": "regular representation of the 5-dim left-unit algebra, n = 3", **out}


def shares(seconds: int) -> dict:
    """Share of traced job time per layer, from one traced run per workload."""
    result = {}
    for name in jobs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
             "--seconds", str(seconds), "--trace", "1"],
            capture_output=True, text=True, check=True,
        )
        metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
        job_s = metrics["job.s"]
        result[name] = {
            "traced_job_s": job_s,
            "share_of_job_time": {k: round(metrics[k] / job_s, 4) for k in SHARES},
        }
    return result


def main() -> None:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    record = {"machine": machine(), "probe": probe(), "workloads": shares(seconds)}
    BASELINE_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
