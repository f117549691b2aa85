"""File formats: CSV matrices and JSON sidecars.

Matrices are plain CSV, one row per line, '.' decimal separator, no
header; dimensions are inferred. Values are written with 17 significant
digits so a write/read round trip is bit exact for float64.

The writer builds one row format, a comma-joined ``%.17g`` field per
column and a newline, and streams the matrix through it one row at a
time, so it never holds more than one row's text. ``%`` and
``format(v, ".17g")`` share one formatter, so each line is byte for byte
the comma join of the row's ``f"{v:.17g}"`` values.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .experiment import ExperimentConfig
from .model import SpatialResponse
from .scenegen import SceneConfig
from .solver import SolverConfig


def write_matrix(path, matrix):
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    line = ",".join(["%.17g"] * m.shape[-1]) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(line % tuple(row.tolist()) for row in m)


def read_matrix(path):
    rows, linenos = [], []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(cells)}"
                )
            parsed = []
            for col, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}, column {col}: cannot parse {cell!r}"
                    ) from None
            rows.append(parsed)
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: zero rows")
    matrix = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        row, col = bad[0].tolist()
        raise ValueError(
            f"{path}: line {linenos[row]}, column {col + 1}: non-finite value {matrix[row, col]}"
        )
    return matrix


def write_spatial_response(path, spatial):
    pixels, weights = spatial.pixels.tolist(), spatial.weights.tolist()
    bounds = zip(spatial.indptr[:-1].tolist(), spatial.indptr[1:].tolist())
    payload = {
        "L": spatial.sr_pixel_count,
        "Lh": spatial.hs_pixel_count,
        "windows": [{"pixels": pixels[a:b], "weights": weights[a:b]} for a, b in bounds],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def read_spatial_response(path):
    """Read a spatial response; raise ValueError on the first invalid window."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    missing = [f"missing key {key!r}" for key in ("L", "windows") if key not in payload]
    missing += [f"window {i}: missing key {key!r}" for i, w in enumerate(payload.get("windows", []))
                for key in ("pixels", "weights") if key not in w]
    if missing:
        raise ValueError(f"{path}: {missing[0]}")
    windows = payload["windows"]
    sizes = [len(w["pixels"]) for w in windows]
    counts = {key: payload[key] for key in ("L", "Lh") if key in payload}
    for key, value in counts.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not float(value).is_integer()):
            raise ValueError(f"{path}: {key} {value!r} is not an integer")
    if "Lh" in counts and counts["Lh"] != len(sizes):
        raise ValueError(
            f"{path}: declared Lh {payload['Lh']} does not match {len(sizes)} windows")
    if sizes != [len(w["weights"]) for w in windows]:
        raise ValueError(f"{path}: window pixels and weights must have equal length")
    indptr = np.cumsum([0] + sizes)
    pixels = np.array([p for w in windows for p in w["pixels"]], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(pixels) & (pixels == np.round(pixels))))
    if bad.size:
        raise ValueError(f"{path}: window {np.searchsorted(indptr, bad[0], 'right') - 1}: "
                         f"pixel index {float(pixels[bad[0]])} is not an integer")
    spatial = SpatialResponse(
        int(counts["L"]), indptr=indptr, pixels=pixels.astype(int),
        weights=np.array([v for w in windows for v in w["weights"]], dtype=float))
    problems = spatial.validate()
    if problems:
        raise ValueError(f"{path}: {problems[0]}")
    return spatial


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=json_default)
        handle.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def json_default(obj):
    """JSON fallback for numpy arrays and scalars."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Config round trips
# ---------------------------------------------------------------------------

def _check_keys(cls, payload):
    """Raise ValueError naming every unknown and missing key of a config."""
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    required = [f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    problems = [f"unknown key {key!r}" for key in payload if key not in names]
    problems += [f"missing key {key!r}" for key in required if key not in payload]
    if problems:
        raise ValueError(f"{cls.__name__}: {', '.join(problems)} (allowed: {', '.join(names)})")


def scene_config_from_dict(payload):
    _check_keys(SceneConfig, payload)
    return SceneConfig(**payload)


def solver_config_from_dict(payload):
    _check_keys(SolverConfig, payload)
    return SolverConfig(**payload)


def experiment_config_from_dict(payload):
    _check_keys(ExperimentConfig, payload)
    payload = dict(payload)
    payload["scene"] = scene_config_from_dict(payload["scene"])
    payload["solver"] = solver_config_from_dict(payload["solver"])
    payload["snr_db"] = [_parse_snr(v) for v in payload["snr_db"]]
    return ExperimentConfig(**payload)


def _parse_snr(value):
    return math.inf if value is None else float(value)


def read_scene_config(path):
    return scene_config_from_dict(read_json(path))


def read_solver_config(path):
    return solver_config_from_dict(read_json(path))


def read_experiment_config(path):
    return experiment_config_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# Scene and solution bundles
# ---------------------------------------------------------------------------

def save_generated_scene(out_dir, generated):
    """Write a generated scene as CSV matrices plus a JSON sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "endmembers.csv", generated.scene.endmembers)
    write_matrix(out / "abundances.csv", generated.scene.abundances)
    write_matrix(out / "image.csv", generated.scene.image)
    write_matrix(out / "spectral.csv", generated.spectral)
    write_spatial_response(out / "spatial.json", generated.spatial)
    write_json(out / "scene.json", {
        "seed": generated.seed,
        "pure_windows": list(generated.pure_windows),
        "cell_supports": {str(k): list(v) for k, v in generated.cell_supports.items()},
        "draws": generated.draws,
        "acceptance_rate": generated.acceptance_rate,
    })
    return out


def save_solution(out_dir, solution):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "endmembers_est.csv", solution.endmembers)
    write_matrix(out / "abundances_est.csv", solution.abundances)
    write_json(out / "solution.json", {
        "iterations": solution.iterations,
        "termination": solution.termination,
        "restarts": solution.restarts,
        "objective_trace": solution.objective_trace.tolist(),
        "objective": float(solution.objective_trace[-1]),
    })
    return out
