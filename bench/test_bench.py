"""Tests of the benchmark itself:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

# Cheap job indices of each workload (see the cycles in jobs.py).
CHEAP = {
    "cohom-sparse": [0],
    "cohom-dense": [1, 4],
    "xmod-trees": list(range(12)),
}


@pytest.fixture(scope="module")
def pkg():
    import preliecoh
    import preliecoh.cli  # noqa: F401

    return preliecoh


def _make(name, seed, workdir, pkg, expected=None, stream=0):
    return jobs.WORKLOADS[name](seed, workdir, expected or jobs.load_expected(), pkg, stream)


def _files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", list(jobs.WORKLOADS))
def test_same_seed_writes_identical_inputs(name, pkg, tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        workload = _make(name, 7, tmp_path / sub, pkg)
        for index in range(2 * len(workload.cycle)):
            workload.job(index)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def _answer(outcome):
    """The part of an outcome that must not depend on the copy."""
    if not isinstance(outcome, tuple):
        return outcome is None
    code, out, _ = outcome
    dims = jobs.cohomology_dims(out)
    if out.startswith("{"):
        result = json.loads(out)
        dims = result.get("dims") or result.get("cohomologous")
    return code, dims


@pytest.mark.parametrize("name", list(jobs.WORKLOADS))
def test_different_seeds_give_distinct_inputs_with_identical_answers(name, pkg, tmp_path):
    answers = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        workload = _make(name, seed, workdir, pkg)
        outcomes = []
        for index in CHEAP[name]:
            job = workload.job(index)
            outcome = run.execute(pkg, job)
            assert job.check(outcome) is None
            outcomes.append(_answer(outcome))
        answers.append(outcomes)
    assert answers[0] == answers[1]
    first, second = _files(tmp_path / "1"), _files(tmp_path / "2")
    assert first.keys() == second.keys()
    assert all(first[k] != second[k] for k in first)


def _corrupt(expected: dict) -> dict:
    wrong = copy.deepcopy(expected)
    wrong["cohomology_dims"]["lu3-regular"][0] += 1
    wrong["cohomology_dims"]["dense-regular"][1] += 1
    for entry in wrong["convert"].values():
        if entry["output"] is not None:
            entry["output"]["m"]["dim"] += 1
        else:
            entry["exit"] = 0
    return wrong


@pytest.mark.parametrize(
    "name,indices",
    # xmod-trees: convert jobs on xmod_identity_lmult2, xmod_module_idem1,
    # rb_zero_t (converted) and rb_rho_mismatch (exit 3)
    [("cohom-sparse", [0]), ("cohom-dense", [0]), ("xmod-trees", [2, 6, 14, 26])],
)
def test_wrong_expected_answer_counts_as_failure(name, indices, pkg, tmp_path):
    workload = _make(name, 3, tmp_path, pkg, expected=_corrupt(jobs.load_expected()))
    loop = run.Loop(pkg, workload, [])
    for index in indices:
        loop.run_one(index)
    assert len(loop.failures) == len(indices)


def test_wrong_pullback_verdict_counts_as_failure(pkg, tmp_path):
    workload = _make("xmod-trees", 3, tmp_path, pkg)
    closed = workload.job(3)  # PULLBACKS[0]: a closed H^3 representative
    perturbed = workload.job(11)  # PULLBACKS[2]: a non-closed perturbation
    violation = run.execute(pkg, perturbed)
    assert perturbed.check(violation) is None
    assert closed.check(violation) is not None
    assert perturbed.check(None) is not None


def test_traced_outputs_match_untraced_and_names_are_restored(pkg, tmp_path):
    planned = []
    for name, indices in CHEAP.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = _make(name, 5, workdir, pkg)
        planned += [workload.job(i) for i in indices]
    plain = [run.execute(pkg, job) for job in planned]
    tr = tracing.Tracer()
    tr.install(pkg)
    replaced = tr.targets()
    try:
        traced = [tr.run_job(i, lambda job=job: run.execute(pkg, job)) for i, job in enumerate(planned)]
    finally:
        tr.uninstall()
    assert traced == plain
    layers = {tracing.layer_of(span[0]) for span in tr.spans}
    assert {"cli", "cochain.assemble", "linalg.elim", "trees.pullback", "functors.convert"} <= layers
    assert len(replaced) > 40
    for owner, attr, original in replaced:
        current = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        assert current is original, attr


def test_size_facts_are_recorded_outside_layer_spans(pkg, tmp_path):
    workload = _make("cohom-sparse", 1, tmp_path, pkg)
    job = workload.job(0)
    tr = tracing.Tracer()
    tr.install(pkg)
    try:
        tr.run_job(0, lambda: run.execute(pkg, job))
    finally:
        tr.uninstall()
    spans = tr.spans
    facts_spans = [i for i, span in enumerate(spans) if span[0] == tracing.FACTS_SPAN]
    assert len(facts_spans) == len(tr.facts) > 0
    for i, fact in zip(facts_spans, tr.facts):
        measured = max(j for j in range(i) if spans[j][0] == fact["name"])
        assert spans[i][1] >= spans[measured][2]  # starts after the measured call ended
        assert spans[i][3] == spans[measured][3]  # a sibling: no layer's self time includes it
    assembled = [f for f in tr.facts if f["name"].startswith("cochain.assemble")]
    assert assembled and all({"shape", "nnz", "rank", "max_bits"} <= set(f) for f in assembled)
    metrics = tracing.layer_metrics(tr, 1, 0.0)
    assert set(metrics) == {m for m, _ in tracing.LAYER_METRICS}


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    times = [float(t) for t in range(1, 22)]
    metrics, pct = run.end_to_end(times, [0.1] * 5)
    assert metrics["job_s.p50"][0] == 11.0
    assert metrics["job_s.tail"][0] == 11.0  # ten of the 21 jobs lie beyond it
    assert round(pct) == 52
    assert metrics["jobs_per_s"][0] == 21 / sum(times)


def test_runs_stop_on_a_whole_cycle_of_job_kinds(pkg, tmp_path):
    workload = _make("xmod-trees", 2, tmp_path, pkg)
    loop = run.Loop(pkg, workload, [])
    loop.run_for(1e-9)
    assert len(loop.times) == len(workload.cycle)
    assert not loop.failures
    assert len(loop.scaled) == len(loop.times) and len(loop.speeds) >= 2


def test_reference_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert run.reference_speed() > 0
    assert gc.isenabled()


def test_setup_imports_in_a_fresh_interpreter():
    assert 0 < run.import_seconds() < 60


def test_rank_mod_p_matches_exact_rank():
    from fractions import Fraction as F

    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1, 3), F(-1)]]
    assert tracing.rank_mod_p(rows) == 2


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "xmod-trees", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
