import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hsrfusion import build_counterexample, experiment, scenegen
from hsrfusion.cli import main
from hsrfusion.fileio import read_matrix, write_matrix, write_spatial_response
from hsrfusion.model import spatial_decimate
from conftest import bounded_arange


def _write_bundle(directory):
    """The counterexample's model files, its image and noiseless observations,
    and a short solver config, in directory; the estimates are the truth."""
    inst = build_counterexample(0.1)
    image = inst.endmembers @ inst.abundances
    matrices = {"endmembers": inst.endmembers, "abundances": inst.abundances,
                "spectral": inst.spectral, "image": image, "ms": inst.spectral @ image,
                "hs": spatial_decimate(image, inst.spatial)}
    for name, matrix in matrices.items():
        write_matrix(directory / f"{name}.csv", matrix)
    write_spatial_response(directory / "spatial.json", inst.spatial)
    (directory / "solver.json").write_text('{"materials": 3, "max_outer": 5}', encoding="utf-8")
    return directory


@pytest.fixture()
def counterexample_files(tmp_path):
    return _write_bundle(tmp_path)


def test_certify_counterexample_files(counterexample_files, capsys):
    out = counterexample_files / "cert.json"
    code = main([
        "certify",
        "--endmembers", str(counterexample_files / "endmembers.csv"),
        "--abundances", str(counterexample_files / "abundances.csv"),
        "--spectral", str(counterexample_files / "spectral.csv"),
        "--spatial", str(counterexample_files / "spatial.json"),
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kruskal"] == 1
    assert payload["dominance"] == pytest.approx(0.142857, abs=1e-6)
    assert payload["assumptions"]["pure_pixels"]["passed"]


def test_counterexample_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    surface = tmp_path / "surface.csv"
    code = main([
        "counterexample", "--rho", "0.25", "--alpha1", "0.25",
        "--out", str(out), "--surface", str(surface),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["error"] == pytest.approx(math.sqrt(2.0) * 0.25, abs=1e-12)
    lines = surface.read_text().strip().splitlines()
    assert lines[0] == "alpha1,error,objective"
    assert len(lines) == 22


def test_dominance_subcommand(tmp_path):
    out = tmp_path / "dom.json"
    code = main([
        "dominance", "--n", "2", "--m", "64", "--trials", "2000",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["analytic"] == pytest.approx(0.72933, abs=1e-5)
    sigma = payload["binomial_sigma"]
    assert payload["empirical"] >= payload["analytic"] - 3 * sigma


def test_generate_observe_solve_align_pipeline(tmp_path):
    scene_config = {
        "sr_bands": 40, "ms_bands": 5, "materials": 4, "width": 12,
        "height": 12, "factor": 2, "max_support": 2, "kernel": "uniform",
        "kernel_size": 2, "seed": 3, "require_dominance": False,
    }
    config_path = tmp_path / "scene.json"
    config_path.write_text(json.dumps(scene_config), encoding="utf-8")
    scene_dir = tmp_path / "scene"
    assert main(["generate", "--config", str(config_path), "--out", str(scene_dir)]) == 0

    obs_dir = tmp_path / "obs"
    assert main([
        "observe", "--image", str(scene_dir / "image.csv"),
        "--spectral", str(scene_dir / "spectral.csv"),
        "--spatial", str(scene_dir / "spatial.json"),
        "--out", str(obs_dir),
    ]) == 0

    sol_dir = tmp_path / "sol"
    assert main([
        "solve", "--ms", str(obs_dir / "ms.csv"), "--hs", str(obs_dir / "hs.csv"),
        "--spectral", str(scene_dir / "spectral.csv"),
        "--spatial", str(scene_dir / "spatial.json"),
        "--materials", "4", "--out", str(sol_dir),
    ]) == 0
    solution = json.loads((sol_dir / "solution.json").read_text())
    assert solution["objective"] < 1e-8

    align_path = tmp_path / "align.json"
    assert main([
        "align",
        "--true-endmembers", str(scene_dir / "endmembers.csv"),
        "--endmembers", str(sol_dir / "endmembers_est.csv"),
        "--true-abundances", str(scene_dir / "abundances.csv"),
        "--abundances", str(sol_dir / "abundances_est.csv"),
        "--spectral", str(scene_dir / "spectral.csv"),
        "--spatial", str(scene_dir / "spatial.json"),
        "--out", str(align_path),
    ]) == 0
    report = json.loads(align_path.read_text())
    assert report["stochastic_pass"]
    assert report["offdiagonal_pass"]


def test_written_files_are_re_readable(tmp_path):
    # closure under round trip: everything the CLI writes, the CLI reads
    scene_config = {
        "sr_bands": 30, "ms_bands": 4, "materials": 3, "width": 8,
        "height": 8, "factor": 2, "max_support": 2, "kernel": "uniform",
        "kernel_size": 2, "seed": 1, "require_dominance": False,
    }
    config_path = tmp_path / "scene.json"
    config_path.write_text(json.dumps(scene_config), encoding="utf-8")
    scene_dir = tmp_path / "scene"
    assert main(["generate", "--config", str(config_path), "--out", str(scene_dir)]) == 0
    for name in ("endmembers.csv", "abundances.csv", "image.csv", "spectral.csv"):
        m = read_matrix(scene_dir / name)
        assert np.all(np.isfinite(m))


def test_generate_and_certify_leave_heavy_scipy_subpackages_unloaded(tmp_path):
    # Each CLI command starts a fresh process, so every module-level import
    # is paid on every call; scipy.optimize alone costs ~0.3 s and 27 MB.
    scene_config = {
        "sr_bands": 30, "ms_bands": 4, "materials": 3, "width": 8,
        "height": 8, "factor": 2, "max_support": 2, "kernel": "uniform",
        "kernel_size": 2, "seed": 1, "require_dominance": False,
    }
    config_path = tmp_path / "scene.json"
    config_path.write_text(json.dumps(scene_config), encoding="utf-8")
    scene = tmp_path / "scene"
    generate = ["generate", "--config", str(config_path), "--out", str(scene)]
    certify = ["certify",
               *[arg for name in ("endmembers", "abundances", "spectral")
                 for arg in (f"--{name}", str(scene / f"{name}.csv"))],
               "--spatial", str(scene / "spatial.json")]
    script = f"""
import sys
import hsrfusion
from hsrfusion import cli
assert cli.main({generate!r}) == 0
assert cli.main({certify!r}) == 0
heavy = ("scipy.optimize", "scipy.linalg", "scipy.sparse.linalg")
loaded = [name for name in heavy if name in sys.modules]
assert not loaded, f"loaded at start-up: {{loaded}}"
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_validation_failure_exits_one(tmp_path):
    code = main(["counterexample", "--rho", "0.9"])
    assert code == 1


def test_usage_error_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "hsrfusion", "certify", "--bogus-flag"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_calls_in_one_process_share_the_parser_and_no_state(tmp_path, capsys, monkeypatch):
    from hsrfusion import cli

    scene_config = {
        "sr_bands": 30, "ms_bands": 4, "materials": 3, "width": 8,
        "height": 8, "factor": 2, "max_support": 2, "kernel": "uniform",
        "kernel_size": 2, "seed": 3, "require_dominance": False,
    }
    config_path = tmp_path / "scene.json"
    config_path.write_text(json.dumps(scene_config), encoding="utf-8")
    assert main(["generate", "--config", str(config_path), "--seed", "1",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["dominance", "--materials", "3", "--bands", "5", "--seed", "7"]) == 0
    assert main(["generate", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert "trials" not in json.loads(printed[1])
    seeds = [json.loads((tmp_path / d / "scene.json").read_text())["seed"] for d in "ab"]
    assert seeds == [1, 3]  # the second generate takes the config's seed, not the first's flag
    assert cli.build_parser() is cli.build_parser()

    calls = []
    monkeypatch.setattr(cli, "_cmd_certify", lambda args: calls.append(args.spatial) or 0)
    spatial = str(tmp_path / "a" / "spatial.json")
    assert main(["certify", "--endmembers", "e", "--abundances", "a", "--spectral", "s",
                 "--spatial", spatial]) == 0
    assert calls == [spatial]

    with pytest.raises(SystemExit) as raised:
        main(["certify", "--bogus-flag"])
    assert raised.value.code == 2
    assert capsys.readouterr().err.startswith("usage: hsrfusion certify ")


def test_unknown_solver_key_is_a_one_line_error(tmp_path):
    config = {
        "scene": {"sr_bands": 30, "ms_bands": 4, "materials": 3, "width": 8,
                  "height": 8, "factor": 2, "max_support": 2},
        "snr_db": ["inf"], "trials": 1,
        "solver": {"materials": 3, "step_rule": "backtracking"},
    }
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "hsrfusion", "experiment", "--config", str(config_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "step_rule" in lines[0]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["certify", "solve"])
@pytest.mark.parametrize("window, check", [
    ({"pixels": [0, 6], "weights": [0.5, 0.5]}, "window_range"),
    ({"pixels": [0, 1e300], "weights": [0.5, 0.5]}, "window_range"),
    ({"pixels": [0, 1], "weights": [-0.5, 1.5]}, "window_weight_positive"),
], ids=["pixel-out-of-range", "pixel-past-int64", "negative-weight"])
def test_invalid_window_is_a_one_line_error(counterexample_files, command, window, check):
    inst = build_counterexample(0.1)
    image = inst.endmembers @ inst.abundances
    write_matrix(counterexample_files / "ms.csv", inst.spectral @ image)
    write_matrix(counterexample_files / "hs.csv", spatial_decimate(image, inst.spatial))
    path = counterexample_files / "spatial.json"
    payload = json.loads(path.read_text())
    payload["windows"][0] = window
    path.write_text(json.dumps(payload), encoding="utf-8")
    files = {name: str(counterexample_files / f"{name}.csv")
             for name in ("endmembers", "abundances", "spectral", "ms", "hs")}
    if command == "certify":
        args = ["--endmembers", files["endmembers"], "--abundances", files["abundances"]]
    else:
        args = ["--ms", files["ms"], "--hs", files["hs"], "--materials", "3",
                "--out", str(counterexample_files / "sol")]
    proc = subprocess.run(
        [sys.executable, "-m", "hsrfusion", command, *args,
         "--spectral", files["spectral"], "--spatial", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and check in lines[0]
    assert "Traceback" not in proc.stderr


def test_missing_window_key_is_a_one_line_error(counterexample_files):
    path = counterexample_files / "spatial.json"
    payload = json.loads(path.read_text())
    del payload["windows"][0]["weights"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "hsrfusion", "certify",
         *[arg for name in ("endmembers", "abundances", "spectral")
           for arg in (f"--{name}", str(counterexample_files / f"{name}.csv"))],
         "--spatial", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "window 0: missing key 'weights'" in lines[0]
    assert "Traceback" not in proc.stderr


def test_nan_window_weight_is_a_one_line_error(counterexample_files):
    path = counterexample_files / "spatial.json"
    payload = json.loads(path.read_text())
    payload["windows"][0]["weights"] = [math.nan, 0.5]
    path.write_text(json.dumps(payload), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "hsrfusion", "certify",
         *[arg for name in ("endmembers", "abundances", "spectral")
           for arg in (f"--{name}", str(counterexample_files / f"{name}.csv"))],
         "--spatial", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "window_weight_finite] window 0:" in lines[0]
    assert "Traceback" not in proc.stderr


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "hsrfusion", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for sub in ("generate", "observe", "solve", "certify", "align",
                "counterexample", "dominance", "experiment"):
        assert sub in proc.stdout


def _one_line_error(capsys, argv):
    """stderr's one line of a run of main that exits 1."""
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    return lines[0]


@pytest.mark.parametrize("edit, message", [
    (lambda p: [], "expected a JSON object, got array"),
    (lambda p: None, "expected a JSON object, got null"),
    (lambda p: {**p, "windows": 5}, "windows must be an array, got number"),
    (lambda p: {**p, "windows": [1, 2]}, "window 0: expected a JSON object, got number"),
    (lambda p: {**p, "windows": [{"pixels": 0, "weights": [1.0]}] + p["windows"][1:]},
     "window 0: pixels must be an array, got number"),
    (lambda p: {**p, "windows": [{"pixels": [0, 1], "weights": ["a", 0.5]}] + p["windows"][1:]},
     'window 0: weights entry "a" is not a number'),
    (lambda p: {**p, "windows": [{"pixels": [0, None], "weights": [0.5, 0.5]}]
                + p["windows"][1:]},
     "window 0: pixels entry null is not a number"),
    (lambda p: {**p, "L": -5}, "L -5 is negative"),
    (lambda p: {**p, "L": 10 ** 11},
     "L 100000000000 exceeds the 6 window pixel entries, so some SR pixel is not covered"),
    (lambda p: {**p, "L": 10 ** 400},
     f"L {10 ** 400} exceeds the 6 window pixel entries, so some SR pixel is not covered"),
], ids=["array", "null", "windows-number", "window-number", "pixels-number",
        "string-weight", "null-pixel", "negative-L", "huge-L", "L-past-float"])
def test_badly_shaped_spatial_json_is_a_one_line_error(counterexample_files, capsys, edit,
                                                        message):
    path = counterexample_files / "spatial.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))), encoding="utf-8")
    line = _one_line_error(capsys, [
        "certify", *[arg for name in ("endmembers", "abundances", "spectral")
                     for arg in (f"--{name}", str(counterexample_files / f"{name}.csv"))],
        "--spatial", str(path)])
    assert line == f"error: {path}: {message}"


@pytest.mark.parametrize("key, value", [
    ("sr_bands", "x"), ("sr_bands", None), ("factor", 0), ("width", True), ("height", 8.0),
    ("ms_bands", -2), ("kernel_size", "4"), ("seed", "x"), ("kernel_var", 0.0),
    pytest.param("kernel_var", 10**400, id="kernel_var-10**400"),
    ("require_dominance", "false"), ("require_dominance", 0), ("require_dominance", None),
])
def test_bad_scene_config_value_is_a_one_line_error(tmp_path, capsys, key, value):
    config = {"sr_bands": 30, "ms_bands": 4, "materials": 3, "width": 8, "height": 8,
              "factor": 2, "max_support": 2, key: value}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    line = _one_line_error(capsys, ["generate", "--config", str(path),
                                    "--out", str(tmp_path / "scene")])
    assert f"{key} must be a" in line and repr(value) in line


def test_a_spatial_response_failing_validation_is_a_one_line_generate_error(tmp_path, capsys):
    # At kernel_var 0.001 the Gaussian's outer weights underflow to 0, and at
    # 1e-320, a subnormal, its exponent overflows (with no numpy warning) and
    # the weights are NaN. validate() rejects both: generate exits 1 and
    # writes no spatial.json.
    for kernel_var, check in ((0.001, "window_weight_positive"), (1e-320, "window_weight_finite")):
        config = {"sr_bands": 30, "ms_bands": 4, "materials": 3, "width": 16, "height": 16,
                  "factor": 4, "max_support": 2, "kernel": "gaussian", "kernel_size": 6,
                  "kernel_var": kernel_var}
        path = tmp_path / f"{check}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        line = _one_line_error(capsys, ["generate", "--config", str(path),
                                        "--out", str(tmp_path / check)])
        assert f"[{check}] window 0: " in line
        assert not (tmp_path / check).exists()


@pytest.mark.parametrize("name, edit, message", [
    ("endmembers", lambda m: 2.0 * m, "[endmember_range] "),
    ("abundances", lambda m: 3.0 * m, "[abundance_sum] "),
    ("endmembers", lambda m: m[:2], "[shape] spectral/endmembers: "),
], ids=["endmembers-x2", "abundances-x3", "endmember-rows"])
def test_invalid_model_is_a_one_line_certify_error(counterexample_files, capsys, name, edit,
                                                   message):
    path = counterexample_files / f"{name}.csv"
    write_matrix(path, edit(read_matrix(path)))
    line = _one_line_error(capsys, [
        "certify", *[arg for key in ("endmembers", "abundances", "spectral")
                     for arg in (f"--{key}", str(counterexample_files / f"{key}.csv"))],
        "--spatial", str(counterexample_files / "spatial.json")])
    assert line.startswith(f"error: {message}")


_SWEEP = {"scene": {"sr_bands": 30, "ms_bands": 4, "materials": 3, "width": 8, "height": 8,
                    "factor": 2, "max_support": 2},
          "snr_db": ["inf"], "trials": 1, "solver": {"materials": 3}}


@pytest.mark.parametrize("payload, message", [
    (None, "ExperimentConfig: expected a JSON object, got null"),
    (5, "ExperimentConfig: expected a JSON object, got number"),
    ({**_SWEEP, "solver": None}, "SolverConfig: expected a JSON object, got null"),
    ({**_SWEEP, "scene": [1]}, "SceneConfig: expected a JSON object, got array"),
    ({**_SWEEP, "solver": {"materials": "6"}}, "materials must be a positive integer, got '6'"),
    ({**_SWEEP, "solver": {"materials": 3, "max_outer": 1.5}},
     "max_outer must be a positive integer, got 1.5"),
    ({**_SWEEP, "solver": {"materials": 3, "inner_steps": True}},
     "inner_steps must be a positive integer, got True"),
    ({**_SWEEP, "solver": {"materials": 3, "rel_tol": "1e-9"}},
     "rel_tol must be a positive number, got '1e-9'"),
    ({**_SWEEP, "solver": {"materials": 3, "objective_floor": None}},
     "objective_floor must be a number, got None"),
    ({**_SWEEP, "solver": {"materials": 3, "init": "pure-pixel"}},
     "SolverConfig: unknown key 'init' (allowed: materials, max_outer, inner_steps, rel_tol, "
     "objective_floor)"),
    ({**_SWEEP, "trials": 2.0}, "trials must be a positive integer, got 2.0"),
    ({**_SWEEP, "master_seed": "x"}, "master_seed must be a non-negative integer, got 'x'"),
    ({**_SWEEP, "snr_db": 30}, "snr_db must be a nonempty list, got 30"),
    ({**_SWEEP, "snr_db": ["nan"]}, "snr_db entries must be numbers, finite or inf, got nan"),
    ({**_SWEEP, "snr_db": [[30]]}, "snr_db entries must be numbers, finite or inf, got [30]"),
    ({**_SWEEP, "snr_db": ["abc"]}, "snr_db entries must be numbers, finite or inf, got 'abc'"),
    ({**_SWEEP, "snr_db": [10**400]},
     f"snr_db entries must be numbers, finite or inf, got {10**400}"),
    ({**_SWEEP, "output_dir": 5}, "output_dir must be a path string, got 5"),
], ids=["null", "number", "solver-null", "scene-array", "materials-string", "max_outer-float",
        "inner_steps-bool", "rel_tol-string", "objective_floor-null", "init-unknown-key",
        "trials-float", "master_seed-string", "snr_db-number", "snr-nan", "snr-array",
        "snr-string", "snr-too-large", "output_dir-number"])
def test_bad_experiment_config_is_a_one_line_error(tmp_path, capsys, payload, message):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    line = _one_line_error(capsys, ["experiment", "--config", str(path)])
    assert line == f"error: {message}"


@pytest.mark.parametrize("snr", ["nan", "-inf"])
def test_observe_rejects_an_snr_that_is_not_finite_or_plus_inf(counterexample_files, capsys,
                                                               snr):
    inst = build_counterexample(0.1)
    write_matrix(counterexample_files / "image.csv", inst.endmembers @ inst.abundances)
    out = counterexample_files / "obs"
    line = _one_line_error(capsys, [
        "observe", "--image", str(counterexample_files / "image.csv"),
        "--spectral", str(counterexample_files / "spectral.csv"),
        "--spatial", str(counterexample_files / "spatial.json"),
        f"--snr-db={snr}", "--out", str(out)])
    assert line == f"error: SNR must be a finite number of dB or inf, got {float(snr)}"
    assert not out.exists()


@pytest.mark.parametrize("snr", ["1e308", "-1e308", "-6300"])
def test_observe_rejects_an_snr_whose_noise_is_not_finite(counterexample_files, capsys, snr):
    # 10^(snr/20) overflows at 1e308 and is 0 at -1e308; at -6300 the noise
    # scale leaves the float range. None may write observations.
    inst = build_counterexample(0.1)
    write_matrix(counterexample_files / "image.csv", inst.endmembers @ inst.abundances)
    out = counterexample_files / "obs"
    line = _one_line_error(capsys, [
        "observe", "--image", str(counterexample_files / "image.csv"),
        "--spectral", str(counterexample_files / "spectral.csv"),
        "--spatial", str(counterexample_files / "spatial.json"),
        f"--snr-db={snr}", "--out", str(out)])
    assert line == (f"error: SNR {float(snr)} dB is out of range: the noise scale or the "
                    "noisy data is not finite")
    assert not (out / "ms.csv").exists()


def test_align_names_a_spectral_response_of_the_wrong_width(counterexample_files, capsys):
    wide = counterexample_files / "wide.csv"
    write_matrix(wide, np.ones((1, 4)))
    paths = {name: str(counterexample_files / f"{name}.csv") for name in ("endmembers",
                                                                          "abundances")}
    line = _one_line_error(capsys, [
        "align", "--true-endmembers", paths["endmembers"], "--endmembers", paths["endmembers"],
        "--true-abundances", paths["abundances"], "--abundances", paths["abundances"],
        "--spectral", str(wide), "--spatial", str(counterexample_files / "spatial.json")])
    assert line == (f"error: [shape] spectral/true-endmembers: {wide} has 4 bands, "
                    f"{paths['endmembers']} has 3")


def test_an_empty_counterexample_grid_is_a_one_line_error(capsys):
    line = _one_line_error(capsys, ["counterexample", "--rho", "0.2", "--grid", "0"])
    assert line == "error: the alpha grid needs at least 1 point, got 0"


# The model files each of observe, solve, certify and align reads, by flag.
_MODEL_FILES = {
    "observe": ("image", "spectral", "spatial"),
    "solve": ("ms", "hs", "spectral", "spatial"),
    "certify": ("endmembers", "abundances", "spectral", "spatial"),
    "align": ("true-endmembers", "endmembers", "true-abundances", "abundances", "spectral",
              "spatial"),
}


def _bundle_file(directory, flag):
    name = flag.removeprefix("true-")
    return directory / (f"{name}.json" if name == "spatial" else f"{name}.csv")


def _model_argv(command, directory, **paths):
    """command over the bundle in directory, with the files of any flags
    given (true_endmembers for --true-endmembers) replaced."""
    argv = [command]
    for flag in _MODEL_FILES[command]:
        path = paths.get(flag.replace("-", "_"), _bundle_file(directory, flag))
        argv += [f"--{flag}", str(path)]
    return argv + {"observe": ["--out", str(directory / "obs")],
                   "solve": ["--config", str(directory / "solver.json"),
                             "--out", str(directory / "sol")]}.get(command, [])


_UNDECODABLE = {
    "truncated": b'{"L": 4, "windows": [',
    "not-utf8": b'{"seed": "\xff"}',
    "nested-too-deep": b"[" * 100_000,
}


@pytest.mark.parametrize("command", ["generate", "solve", "experiment", "certify",
                                     "certify-csv"])
@pytest.mark.parametrize("data", list(_UNDECODABLE.values()), ids=list(_UNDECODABLE))
def test_undecodable_input_is_a_one_line_error_naming_its_path(counterexample_files, capsys,
                                                               command, data):
    directory = counterexample_files
    path = directory / "input.json"
    path.write_bytes(data)
    inst = build_counterexample(0.1)
    image = inst.endmembers @ inst.abundances
    write_matrix(directory / "ms.csv", inst.spectral @ image)
    write_matrix(directory / "hs.csv", spatial_decimate(image, inst.spatial))
    argv = {
        "generate": ["generate", "--config", str(path), "--out", str(directory / "scene")],
        "solve": ["solve", *[arg for name in ("ms", "hs", "spectral")
                             for arg in (f"--{name}", str(directory / f"{name}.csv"))],
                  "--spatial", str(directory / "spatial.json"), "--config", str(path),
                  "--out", str(directory / "sol")],
        "experiment": ["experiment", "--config", str(path)],
        "certify": _model_argv("certify", directory, spatial=path),
        "certify-csv": _model_argv("certify", directory, endmembers=path),
    }[command]
    assert _one_line_error(capsys, argv).startswith(f"error: {path}: ")


# sha256 of each JSON file's objects as commit 6be49b8 wrote them (then
# indented, but for spatial.json), encoded as write_json encodes them, and of
# the certificate's bytes. solution.json and summary.json hold the solves of
# the solver with stalling block passes, and solution.json the later
# "stationarity" and "stats" keys. Both hold the pseudo-inverse start, whose
# fit differs from lstsq's in the last bits: the solve's objective and the
# sweep's mean MSE move by about 1e-15 relative, and no count moves.
_DESK_PIPELINE_DIGESTS = {
    "scene/scene.json": "26ca467bfa0a0eaf8bfe95865a805d306a2330c5d0b49e70eee8952c345c6cda",
    "scene/spatial.json": "9bc5a51020f966b1f9fba473a13bb9b9cc5c2fbadf69819be0d3330cc3e17c5d",
    "sol/solution.json": "2dab8a988cf74bc45eb9ebd1dbf619d2d198cbdc99685895f0f7c2ee2254868b",
    "sweep/summary.json": "85370094120bb42e366216359fc83d83d00adbaaffcb71e377690c8fc94f24a9",
    "cert.json": "21d8582661b391e2bf402a34f145c7abdcd0c9b5d7e0eeb166d4884afff318c4",
}


def test_desk_pipeline_writes_each_json_file_as_one_compact_line(tmp_path, capsys):
    scene = {"sr_bands": 50, "ms_bands": 6, "materials": 6, "width": 16, "height": 16,
             "factor": 2, "max_support": 3, "kernel": "uniform", "kernel_size": 2,
             "require_dominance": False}
    configs = {"scene-config.json": {**scene, "seed": 7},
               "solver-config.json": {"materials": 6, "max_outer": 20},
               "sweep-config.json": {"scene": scene, "snr_db": [25], "trials": 1,
                                     "solver": {"materials": 6, "max_outer": 10},
                                     "master_seed": 5}}
    for name, payload in configs.items():
        (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")
    s, o = tmp_path / "scene", tmp_path / "obs"
    assert main(["generate", "--config", str(tmp_path / "scene-config.json"),
                 "--out", str(s)]) == 0
    assert main(["observe", "--image", str(s / "image.csv"), "--spectral", str(s / "spectral.csv"),
                 "--spatial", str(s / "spatial.json"), "--snr-db", "25", "--out", str(o)]) == 0
    assert main(["solve", "--ms", str(o / "ms.csv"), "--hs", str(o / "hs.csv"),
                 "--spectral", str(s / "spectral.csv"), "--spatial", str(s / "spatial.json"),
                 "--config", str(tmp_path / "solver-config.json"),
                 "--out", str(tmp_path / "sol")]) == 0
    solution = json.loads((tmp_path / "sol" / "solution.json").read_text())
    assert capsys.readouterr().out.endswith(
        f"{solution['termination']}, stationarity {solution['stationarity']:.3g})\n")
    assert main([*_model_argv("certify", s), "--out", str(tmp_path / "cert.json")]) == 0
    assert capsys.readouterr().out == (tmp_path / "cert.json").read_text()
    assert main(["experiment", "--config", str(tmp_path / "sweep-config.json"),
                 "--out", str(tmp_path / "sweep")]) == 0
    for name, digest in _DESK_PIPELINE_DIGESTS.items():
        text = (tmp_path / name).read_bytes()
        assert text.count(b"\n") == 1 and text.endswith(b"\n"), name
        assert hashlib.sha256(text).hexdigest() == digest, name


def _negate_entry(m, row, column):
    m = m.copy()
    m[row, column] = -m[row, column]
    return m


@pytest.mark.parametrize("command, flag, edit, message", [
    ("observe", "spectral", lambda m: _negate_entry(m, 0, 1),
     "[spectral_nonnegative] entry (0, 1): negative weight -1 (magnitude 1.000e+00) ({path})"),
    ("solve", "spectral", lambda m: _negate_entry(m, 0, 1),
     "[spectral_nonnegative] entry (0, 1): negative weight -1 (magnitude 1.000e+00) ({path})"),
    ("align", "true-abundances", lambda m: 2.0 * m,
     "[abundance_sum] column 0: column sums to 2, expected 1 (magnitude 1.000e+00) ({path})"),
    ("align", "true-endmembers", lambda m: 3.0 * m,
     "[endmember_range] entry (2, 2): entry 3 above 1 (magnitude 2.000e+00) ({path})"),
    ("align", "endmembers", lambda m: m[:, :2],
     "[shape] true-endmembers/endmembers: {bundle}/endmembers.csv has 3 materials, "
     "{path} has 2"),
    ("align", "true-abundances", lambda m: m[:, :4],
     "[shape] spatial/true-abundances: {bundle}/spatial.json has 6 pixels, {path} has 4"),
], ids=["observe-negative-spectral", "solve-negative-spectral", "align-true-abundances-x2",
        "align-true-endmembers-x3", "align-two-column-estimate", "align-four-pixel-truth"])
def test_a_bad_model_file_is_a_one_line_error_naming_it(counterexample_files, capsys, command,
                                                        flag, edit, message):
    directory = counterexample_files
    path = directory / "edited.csv"
    write_matrix(path, edit(read_matrix(_bundle_file(directory, flag))))
    argv = _model_argv(command, directory, **{flag.replace("-", "_"): path})
    assert _one_line_error(capsys, argv) == "error: " + message.format(path=path,
                                                                       bundle=directory)
    assert not (directory / "obs").exists() and not (directory / "sol").exists()


def test_observe_rejects_a_spectral_response_with_as_many_ms_bands_as_bands(counterexample_files,
                                                                           capsys):
    directory = counterexample_files
    image, spectral = directory / "image30.csv", directory / "spectral32.csv"
    write_matrix(image, np.full((30, 6), 0.5))
    write_matrix(spectral, np.full((32, 30), 1.0 / 30))
    line = _one_line_error(capsys, _model_argv("observe", directory, image=image,
                                               spectral=spectral))
    assert line == (f"error: [spectral_size] matrix: ms_bands 32 must be < bands 30 "
                    f"(magnitude 3.000e+00) ({spectral})")


def test_counterexample_report_bytes_are_unchanged(tmp_path, capsys):
    # sha256 of the report as the per-key to_dict wrote it, before the
    # reports were written from their fields.
    out = tmp_path / "report.json"
    assert main(["counterexample", "--rho", "0.25", "--alpha1", "0.25",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "96af447e570ef88afa09277f6a8327af9c0ad3a9b4a2789f0a08ddb694af1cba")


@pytest.fixture(scope="module")
def model_bundle(tmp_path_factory):
    return _write_bundle(tmp_path_factory.mktemp("bundle"))


_MUTATIONS = ("scale", "drop-row", "drop-column", "transpose", "negate-entry")
_SPATIAL_MUTATIONS = ("drop-window", "drop-entry", "scale-weights", "negate-weight",
                      "pixel-past-L")


def _mutated_matrix(data, matrix):
    mutation = data.draw(st.sampled_from(_MUTATIONS), label="mutation")
    rows, columns = matrix.shape
    if mutation == "scale":
        return data.draw(st.sampled_from([0.5, 2.0, 3.0]), label="factor") * matrix
    if mutation == "drop-row":
        return np.delete(matrix, data.draw(st.integers(0, rows - 1), label="row"), axis=0)
    if mutation == "drop-column":
        return np.delete(matrix, data.draw(st.integers(0, columns - 1), label="column"), axis=1)
    if mutation == "transpose":
        return matrix.T
    return _negate_entry(matrix, data.draw(st.integers(0, rows - 1), label="row"),
                         data.draw(st.integers(0, columns - 1), label="column"))


def _mutated_spatial(data, payload):
    """A spatial.json object with one window, one entry of it or the weights
    changed; a dropped window lowers the declared Lh with it."""
    mutation = data.draw(st.sampled_from(_SPATIAL_MUTATIONS), label="mutation")
    windows = payload["windows"]
    window = windows[data.draw(st.integers(0, len(windows) - 1), label="window")]
    entry = data.draw(st.integers(0, len(window["pixels"]) - 1), label="entry")
    if mutation == "drop-window":
        windows.remove(window)
        payload["Lh"] -= 1
    elif mutation == "drop-entry":
        del window["pixels"][entry], window["weights"][entry]
    elif mutation == "scale-weights":
        factor = data.draw(st.sampled_from([0.5, 2.0, 3.0]), label="factor")
        for w in windows:
            w["weights"] = [factor * v for v in w["weights"]]
    elif mutation == "negate-weight":
        window["weights"][entry] = -window["weights"][entry]
    else:
        window["pixels"][entry] = payload["L"] + data.draw(st.integers(0, 2), label="past")
    return payload


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_model_file_exits_zero_or_is_a_one_line_error_naming_it(model_bundle, data):
    command = data.draw(st.sampled_from(sorted(_MODEL_FILES)), label="command")
    flag = data.draw(st.sampled_from(_MODEL_FILES[command]), label="flag")
    source = _bundle_file(model_bundle, flag)
    if flag == "spatial":
        path = model_bundle / "mutated.json"
        payload = _mutated_spatial(data, json.loads(source.read_text(encoding="utf-8")))
        path.write_text(json.dumps(payload), encoding="utf-8")
    else:
        path = model_bundle / "mutated.csv"
        write_matrix(path, _mutated_matrix(data, read_matrix(source)))
    argv = _model_argv(command, model_bundle, **{flag.replace("-", "_"): path})
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert str(path) in lines[0]
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("surface, message", [
    ("adir", "error: [Errno 21] Is a directory: '{dir}'"),
    ("afile/x.csv", "error: cannot create directory {file}: {file} is a file"),
    ("afile/y/x.csv", "error: cannot create directory {file}/y: {file} is a file"),
], ids=["directory", "through-a-file", "deeper-through-a-file"])
def test_a_surface_path_that_cannot_be_written_is_one_line_with_nothing_printed(
        tmp_path, capsys, surface, message):
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("", encoding="utf-8")
    assert main(["counterexample", "--rho", "0.25", "--surface", str(tmp_path / surface)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format(dir=tmp_path / "adir", file=tmp_path / "afile") + "\n"


def test_an_output_directory_through_a_file_is_a_one_line_error_before_any_work(
        tmp_path, capsys, monkeypatch):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(_SWEEP), encoding="utf-8")
    monkeypatch.setattr(experiment, "run_trial", None)  # a sweep that starts fails otherwise
    line = _one_line_error(capsys, ["experiment", "--config", str(config),
                                    "--out", str(tmp_path / "afile" / "sweep")])
    assert line == f"error: cannot create directory {tmp_path / 'afile' / 'sweep'}: " \
                   f"{tmp_path / 'afile'} is a file"


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 18.6 GiB for an array with shape (2500000000,) and data "
                 "type int64"),
     "error: Unable to allocate 18.6 GiB for an array with shape (2500000000,) and data type "
     "int64"),
    (MemoryError(), "error: MemoryError"),
], ids=["numpy", "bare"])
def test_a_grid_too_large_for_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch, error,
                                                         message):
    # The allocation is patched to fail as numpy's does; none is made.
    def allocate(*args, **kwargs):
        raise error

    monkeypatch.setattr(scenegen, "build_spatial_response", allocate)
    config = tmp_path / "scene.json"
    config.write_text(json.dumps({**_SWEEP["scene"], "width": 100000, "height": 100000}),
                      encoding="utf-8")
    assert _one_line_error(capsys, ["generate", "--config", str(config),
                                    "--out", str(tmp_path / "scene")]) == message


def test_a_kernel_far_wider_than_the_image_is_built_clipped_and_refused_by_its_message(
        tmp_path, capsys, monkeypatch):
    # Every window of a kernel wider than the image covers all of it, so no
    # window is pure; the response is built at its clipped width, with no
    # range as long as the kernel.
    bounded_arange(monkeypatch, 10**6)
    config = tmp_path / "scene.json"
    config.write_text(json.dumps({**_SWEEP["scene"], "kernel_size": 10**9}), encoding="utf-8")
    assert _one_line_error(capsys, ["generate", "--config", str(config),
                                    "--out", str(tmp_path / "scene")]) == (
        "error: could not place 3 isolated pure windows on a 16-window grid; image too small "
        "for this kernel")


# Values a config entry is swapped to. Counts stay small: a large grid, band,
# material, trial, step or draw count allocates or works in proportion
# (its bounds are tested by their messages).
_SWAPS = (None, True, False, "x", "", "3", [], [3], {}, {"a": 1}, 0, -1, 1, 2, 1.5, -0.0)
# Extremes for the entries that no allocation or loop follows.
_EXTREMES = (1e-320, 1e308, -1e308, 10**18, 10**400, "nan", "inf", "-inf")
_FREE_KEYS = ("kernel_var", "kernel_size", "seed", "master_seed", "rel_tol", "objective_floor",
              "snr_db", "output_dir")


def _mutated_config(data, payload):
    """payload as JSON bytes with one entry, at any depth, swapped or
    dropped, or one key added, or all of it encoded in UTF-16; the
    mutation, the path and the value are drawn from ``data``."""
    mutation = data.draw(st.sampled_from(["swap"] * 3 + ["drop", "extra", "utf-16"]),
                         label="mutation")
    if mutation == "utf-16":
        return json.dumps(payload).encode("utf-16")
    entries = [(payload, key) for key in payload]
    entries += [(payload[key], k) for key in ("scene", "solver") if key in payload
                for k in payload[key]]
    entries += [(payload["snr_db"], i) for i in range(len(payload.get("snr_db", ())))]
    owner, key = data.draw(st.sampled_from(entries), label="entry")
    if mutation == "swap":
        free = key in _FREE_KEYS or isinstance(key, int)
        owner[key] = data.draw(st.sampled_from(_SWAPS + _EXTREMES * free), label="value")
    elif mutation == "drop":
        del owner[key]
    else:
        target = owner if isinstance(owner, dict) else payload
        target["unknown"] = data.draw(st.sampled_from(_SWAPS), label="value")
    return json.dumps(payload).encode()


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_generate_or_experiment_config_exits_zero_or_is_one_line(config_dir, data):
    command = data.draw(st.sampled_from(["generate", "experiment"]), label="command")
    scene = {**_SWEEP["scene"], "kernel": "gaussian", "kernel_size": 3, "kernel_var": 1.0,
             "seed": 0, "require_dominance": False, "max_draws": 100}
    payload = scene if command == "generate" else {
        **_SWEEP, "scene": scene, "snr_db": [30, "inf"], "master_seed": 0, "output_dir": "",
        "solver": {"materials": 3, "max_outer": 50, "inner_steps": 10, "rel_tol": 1e-10,
                   "objective_floor": 0.0}}
    path = config_dir / "config.json"
    path.write_bytes(_mutated_config(data, payload))
    out = config_dir / "out"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            pytest.MonkeyPatch.context() as patch:
        bounded_arange(patch, 10**6)  # kernel_size draws 10**18
        code = main([command, "--config", str(path), "--out", str(out)])
    event(f"{command} exit {code}")
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    else:
        assert (out / ("scene.json" if command == "generate" else "summary.json")).exists()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(snr=st.floats())
def test_observe_at_any_float_snr_exits_zero_or_is_one_line(model_bundle, snr):
    argv = _model_argv("observe", model_bundle)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([*argv, f"--snr-db={snr!r}"])
    event(f"exit {code}")
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert np.isfinite(read_matrix(model_bundle / "obs" / "ms.csv")).all()
