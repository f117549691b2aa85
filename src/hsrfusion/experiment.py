"""Seeded sweep harness: generate, observe, add noise, solve, score.

Every trial derives its own random streams from (master seed, SNR index,
trial index), so a sweep is reproducible end to end and trials are
independent of execution order. Expected trial failures (ValueError,
RuntimeError) are recorded and skipped; a scene-generator bug propagates.
"""

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds, fileio, scenegen, solver
from .model import _check_counts, _is_number, spatial_decimate, spectral_decimate


@dataclass
class ExperimentConfig:
    """A full sweep: scene family, SNR list, trial count, solver settings.

    An SNR of None or "inf" is noiseless, as in a config file. Two SNRs whose
    labels (format_snr) coincide are refused: their rows could not be told
    apart and their means would be pooled."""

    scene: scenegen.SceneConfig
    snr_db: list[float]
    trials: int
    solver: solver.SolverConfig
    output_dir: str | None = None
    master_seed: int = 0

    def __post_init__(self):
        _check_counts(self, ("trials",), ("master_seed",))
        if not isinstance(self.snr_db, (list, tuple)) or not self.snr_db:
            raise ValueError(f"snr_db must be a nonempty list, got {self.snr_db!r}")
        self.snr_db = [_parse_snr(value) for value in self.snr_db]
        labels = {}
        for value in self.snr_db:
            if not _is_number(value) or not -math.inf < value <= math.inf:
                raise ValueError(f"snr_db entries must be numbers, finite or inf, got {value!r}")
            label = format_snr(value)
            if label in labels:
                raise ValueError(f"snr_db entries {labels[label]!r} and {value!r} share "
                                 f"the label {label!r}")
            labels[label] = value
        if self.output_dir is not None and not isinstance(self.output_dir, (str, Path)):
            raise ValueError(f"output_dir must be a path string, got {self.output_dir!r}")


def _parse_snr(value):
    """null reads as inf and a number or a numeric string as a float, -0 as 0
    so that equal SNRs share a label; anything else is left for
    ExperimentConfig to reject by name."""
    if value is None:
        return math.inf
    try:
        return float(value) + 0.0 if isinstance(value, str) or _is_number(value) else value
    except ValueError:  # a string float() cannot read
        return value


@dataclass
class TrialRecord:
    snr_db: float
    trial: int
    mse: float
    max_pixel_error: float
    bound_max: float
    objective: float
    iterations: int
    # Why the solve stopped, and its gradient mapping's norm at exit relative
    # to the first iteration's; "" and nan for a failed trial.
    termination: str = ""
    stationarity: float = math.nan
    error: str | None = None


RESULT_COLUMNS = ("snr_db", "trial", "mse", "max_pixel_error", "bound_max",
                  "objective", "iters", "termination", "stationarity")


def _child_seed(master, *key):
    ss = np.random.SeedSequence([int(master), *[int(k) for k in key]])
    return int(ss.generate_state(1)[0])


def run_trial(config, spatial, snr_db, snr_index, trial):
    """One generate/observe/solve/score cycle with derived seeds."""
    scene_cfg_seed = _child_seed(config.master_seed, snr_index, trial, 0)
    scene_cfg = dataclasses.replace(config.scene, seed=scene_cfg_seed)
    generated = scenegen.generate_scene(scene_cfg, spatial)
    scene = generated.scene

    y_ms = spectral_decimate(generated.spectral, scene.image)
    y_hs = spatial_decimate(scene.image, spatial)
    y_ms = scenegen.add_noise(y_ms, snr_db, _child_seed(config.master_seed, snr_index, trial, 1))
    y_hs = scenegen.add_noise(y_hs, snr_db, _child_seed(config.master_seed, snr_index, trial, 2))

    solution = solver.solve_coupled(y_ms, y_hs, generated.spectral, spatial, config.solver)

    estimate = solution.reconstruction()
    certificate = bounds.certify(scene.endmembers, scene.abundances,
                                 generated.spectral, spatial)
    # One residual, squared in place, gives the MSE and each pixel's error.
    squared = scene.image - estimate
    squared *= squared
    return TrialRecord(
        snr_db=snr_db,
        trial=trial,
        mse=float(squared.sum() / squared.size),
        max_pixel_error=float(np.sqrt(squared.sum(axis=0)).max()),
        bound_max=float(certificate.pixel_bounds.max()),
        objective=float(solution.objective_trace[-1]),
        iterations=solution.iterations,
        termination=solution.termination,
        stationarity=solution.stationarity,
    )


def run_experiment(config):
    """Run the sweep; returns the trial records and writes CSV/JSON output.

    Output files (when output_dir is set): results.csv with one row per
    (snr, trial) and summary.json with the mean MSE per SNR plus any
    failures. The directory is made before the first trial, so a path that
    cannot be one fails before any trial runs.
    """
    out_dir = None if config.output_dir is None else fileio.make_directory(config.output_dir)
    spatial = config.scene.spatial_response()
    records = []
    for snr_index, snr_db in enumerate(config.snr_db):
        for trial in range(config.trials):
            try:
                record = run_trial(config, spatial, snr_db, snr_index, trial)
            except (ValueError, RuntimeError) as exc:  # recorded, not fatal
                record = TrialRecord(
                    snr_db=snr_db, trial=trial, mse=math.nan,
                    max_pixel_error=math.nan, bound_max=math.nan,
                    objective=math.nan, iterations=0, error=str(exc),
                )
            records.append(record)
    if out_dir is None:
        return records

    fileio.write_table(out_dir / "results.csv", RESULT_COLUMNS, [
        (format_snr(r.snr_db), r.trial, r.mse, r.max_pixel_error, r.bound_max, r.objective,
         r.iterations, r.termination, r.stationarity) for r in records])
    means = mean_mse_by_snr(records)
    fileio.write_json(out_dir / "summary.json", {
        "master_seed": config.master_seed,
        "trials": config.trials,
        "mean_mse": {format_snr(snr): means.get(snr, None) for snr in config.snr_db},
        "failures": [{"snr_db": format_snr(r.snr_db), "trial": r.trial, "message": r.error}
                     for r in records if r.error is not None],
    })
    return records


def mean_mse_by_snr(records):
    """Mean MSE per SNR over successful trials, in config order."""
    out = {}
    for rec in records:
        if rec.error is None:
            out.setdefault(rec.snr_db, []).append(rec.mse)
    return {snr: float(np.mean(vals)) for snr, vals in out.items()}


def format_snr(value):
    """SNR label: "inf" when noiseless, else the value in %g form."""
    return "inf" if math.isinf(value) else f"{value:g}"
