"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402  (puts the repository's src/ first on sys.path)
import workloads  # noqa: E402

import hsrfusion  # noqa: E402
from hsrfusion import experiment, model, solver  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smallest_size_emits_every_metric(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert np.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "desk-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _infeasible_solve(y_ms, y_hs, spectral, spatial, config):
    n, pixels = config.materials, y_ms.shape[1]
    return solver.Solution(
        endmembers=np.full((y_hs.shape[0], n), 1.5),
        abundances=np.full((n, pixels), 0.5),
        objective_trace=np.array([1.0, 2.0]),
        iterations=1,
        termination="converged",
    )


def test_infeasible_solution_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "solve_coupled", _infeasible_solve)
    workload = workloads.make("desk-sweep", small=True)
    state = workload.setup(tmp_path)
    result = worker.measure(workload, state, tmp_path,
                            Namespace(seed=1, seconds=0.01, trace=0, out=str(tmp_path)))
    assert result["attempted"] == workload.reference_ops + workload.round_size
    assert result["failed"] == result["attempted"]
    assert solver.solve_coupled is _infeasible_solve


def test_solution_problems_name_each_violation():
    bad = _infeasible_solve(np.zeros((6, 256)), np.zeros((50, 64)), None, None,
                            solver.SolverConfig(materials=6))
    problems = workloads.solution_problems(bad, noiseless=True, mse=1.0)
    text = "\n".join(problems)
    for needle in ("endmember_range", "abundance_sum", "increases", "noiseless mse"):
        assert needle in text


def _certificate(reference, **overrides):
    payload = {
        "kruskal": reference["kruskal"],
        "dominance": reference["dominance"],
        "condition": reference["condition"],
        "pixel_bounds": np.repeat(*zip(*reference["pixel_bounds"])).tolist(),
        "assumptions": {key: {"passed": True, "detail": ""}
                        for key in ("full_rank", "sparsity", "pure_pixels", "dominance")},
    }
    payload.update(overrides)
    return payload


def test_wrong_certificate_is_a_problem():
    reference = workloads.make("certify-files").reference[0]
    assert workloads.certificate_problems(_certificate(reference), reference) == []
    wrong = [
        _certificate(reference, kruskal=reference["kruskal"] - 1),
        _certificate(reference, condition=reference["condition"] * (1 + 1e-6)),
        _certificate(reference, pixel_bounds=[1.0] * 4096),
    ]
    failed_pure = _certificate(reference)
    failed_pure["assumptions"]["pure_pixels"]["passed"] = False
    for payload in wrong + [failed_pure]:
        assert workloads.certificate_problems(payload, reference)


def test_wrong_certificate_counts_as_failed(tmp_path):
    workload = workloads.make("certify-files", small=True)
    workload.reference = [{"kruskal": 99, "dominance": 1.0, "condition": 1.0,
                           "pixel_bounds": [[1.0, 256]]}] * workload.reference_ops
    state = workload.setup(tmp_path)
    result = worker.measure(workload, state, tmp_path,
                            Namespace(seed=1, seconds=0.01, trace=0, out=str(tmp_path)))
    assert result["failed"] == workload.reference_ops
    assert result["attempted"] > workload.reference_ops


def test_failed_cli_call_and_unparsable_output_are_problems(tmp_path):
    workload = workloads.make("certify-files", small=True)
    for output in (workloads.CertifyOutput(tmp_path / "a", 0, 1, "{}"),
                   workloads.CertifyOutput(tmp_path / "b", 0, 0, "not json")):
        output.directory.mkdir()
        assert workload.finish(output)
        assert not output.directory.exists()


def test_trace_sees_nested_calls_and_self_times_partition_the_op(tmp_path):
    original = model.spatial_decimate
    workload = workloads.make("desk-sweep", small=True)
    patcher = tracing.Patcher(tracing.package_modules())
    tracer = tracing.Tracer()
    try:
        tracer.install(patcher)
        workload.install_hooks(patcher)
        state = workload.setup(tmp_path)
        with tracer.op(0):
            workload.run_op(state, 1, 0)
    finally:
        patcher.undo()
    assert model.spatial_decimate is original and experiment.spatial_decimate is original
    assert hsrfusion.solve_coupled is solver.solve_coupled

    spans = tracer.spans
    parents = {(span[0], spans[span[3]][0]) for span in spans if span[3] >= 0}
    assert ("model.spatial_decimate", "experiment.run_trial") in parents
    assert ("solver.project_columns_to_simplex", "solver.solve_coupled") in parents
    assert ("model.SpatialResponse.to_dense", "solver.solve_coupled") in parents

    op = tracing.per_op(spans)[0]
    covered = sum(entry["self_s"] for entry in op.values())
    assert covered == pytest.approx(op[tracing.OP_SPAN]["total_s"], rel=1e-9)
