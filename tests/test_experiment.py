import json
import math

import numpy as np
import pytest

from hsrfusion import ExperimentConfig, SceneConfig, SolverConfig, scenegen
from hsrfusion.experiment import RESULT_COLUMNS, mean_mse_by_snr, run_experiment


def tiny_config(out_dir, snr_db=(math.inf,), trials=2, seed=5):
    scene = SceneConfig(sr_bands=30, ms_bands=4, materials=3, width=8, height=8,
                        factor=2, max_support=2, kernel="uniform", kernel_size=2,
                        require_dominance=False)
    solver = SolverConfig(materials=3, max_outer=200, inner_steps=10,
                          rel_tol=1e-12, objective_floor=1e-22)
    return ExperimentConfig(scene=scene, snr_db=list(snr_db), trials=trials,
                            solver=solver, output_dir=str(out_dir),
                            master_seed=seed)


def test_noiseless_trials_recover_the_scene(tmp_path):
    records = run_experiment(tiny_config(tmp_path / "run"))
    assert all(r.error is None for r in records)
    assert max(r.mse for r in records) < 1e-8
    assert max(r.objective for r in records) < 1e-8


def test_results_csv_schema_and_summary(tmp_path):
    out = tmp_path / "run"
    run_experiment(tiny_config(out, snr_db=(25.0, math.inf), trials=2))
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 1 + 4
    assert lines[-1].startswith("inf,")
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["mean_mse"].keys()) == {"25", "inf"}
    assert summary["failures"] == []


def test_sweep_is_deterministic(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_experiment(tiny_config(first, snr_db=(20.0,), trials=2))
    run_experiment(tiny_config(second, snr_db=(20.0,), trials=2))
    assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()


def test_noise_reduces_accuracy_monotonically(tmp_path):
    records = run_experiment(
        tiny_config(tmp_path / "run", snr_db=(10.0, 30.0, math.inf), trials=2)
    )
    means = mean_mse_by_snr(records)
    assert means[10.0] > means[30.0] > means[math.inf]


def test_failed_trials_are_recorded_not_fatal(tmp_path):
    # a scene demanding more pure windows than the grid offers fails cleanly
    scene = SceneConfig(sr_bands=30, ms_bands=6, materials=6, width=4, height=4,
                        factor=2, max_support=2, kernel="uniform", kernel_size=2,
                        require_dominance=False)
    solver = SolverConfig(materials=6, max_outer=10)
    config = ExperimentConfig(scene=scene, snr_db=[math.inf], trials=2,
                              solver=solver, output_dir=str(tmp_path / "run"),
                              master_seed=0)
    records = run_experiment(config)
    assert len(records) == 2
    assert all(r.error is not None for r in records)
    assert all(math.isnan(r.mse) for r in records)
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert len(summary["failures"]) == 2


@pytest.mark.parametrize("snr", [1e308, -1e308, -6300.0])
def test_an_snr_whose_noise_is_not_finite_fails_only_its_trials(tmp_path, snr):
    out = tmp_path / "run"
    records = run_experiment(tiny_config(out, snr_db=(snr, math.inf), trials=1))
    assert records[0].error == (f"SNR {snr} dB is out of range: the noise scale or the "
                                "noisy data is not finite")
    assert records[1].error is None
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[1].startswith(f"{snr:g},0,nan,")
    summary = json.loads((out / "summary.json").read_text())
    assert [f["snr_db"] for f in summary["failures"]] == [f"{snr:g}"]


def test_each_row_says_why_its_solve_stopped(tmp_path):
    out = tmp_path / "run"
    records = run_experiment(tiny_config(out, snr_db=(25.0, 1e308), trials=1))
    solved, failed = records
    assert solved.termination == "converged" and solved.stationarity > 0.0
    assert (failed.termination, math.isnan(failed.stationarity)) == ("", True)
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    assert rows[0][-3:] == [str(solved.iterations), "converged", f"{solved.stationarity:.17g}"]
    assert rows[1][-3:] == ["0", "", "nan"]


def test_generator_self_check_failure_propagates(tmp_path, monkeypatch):
    def broken(*args):
        raise AssertionError("pure window 0 is not pure for 0")

    monkeypatch.setattr(scenegen, "_verify_generated", broken)
    with pytest.raises(AssertionError, match="not pure"):
        run_experiment(tiny_config(tmp_path / "run", trials=1))
