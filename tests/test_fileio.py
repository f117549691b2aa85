import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hsrfusion import Solution, SpatialResponse, Window
from hsrfusion.fileio import (
    experiment_config_from_dict,
    read_matrix,
    read_spatial_response,
    save_solution,
    scene_config_from_dict,
    solver_config_from_dict,
    write_matrix,
    write_spatial_response,
)


def test_matrix_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(scale=[[1e-8], [1.0], [1e8]], size=(3, 4))
    path = tmp_path / "m.csv"
    write_matrix(path, m)
    back = read_matrix(path)
    assert back.shape == m.shape
    assert np.array_equal(back, m)


# Extremes of float64 next to integers and ordinary values: signed zero,
# the smallest subnormal and magnitudes near the largest finite double.
cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]),
    st.integers(-2 ** 60, 2 ** 60).map(float),
)
shapes = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 8)),
    st.tuples(st.integers(1, 8), st.just(1)),
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    st.tuples(st.integers(1, 8)),
)


@settings(max_examples=200, deadline=None)
@given(arrays(float, shapes, elements=cells))
def test_matrix_round_trip_is_bit_exact_with_per_value_17g_lines(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    write_matrix(path, m)
    expected = np.atleast_2d(m)
    old_format = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in expected)
    assert path.read_bytes() == old_format.encode("utf-8")
    back = read_matrix(path)
    assert back.shape == expected.shape
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))  # -0.0 too


def test_ragged_rows_name_the_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        read_matrix(path)


def test_empty_file_reports_zero_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="zero rows"):
        read_matrix(path)


def test_parse_error_names_line_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2, column 2"):
        read_matrix(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_cell_names_line_and_column(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,2\n\n3,{cell}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3, column 2: non-finite"):
        read_matrix(path)


def test_spatial_response_round_trip(tmp_path):
    g = SpatialResponse(
        sr_pixel_count=6,
        windows=[
            Window(pixels=np.array([0, 1]), weights=np.array([0.5, 0.5])),
            Window(pixels=np.array([2, 3, 4]), weights=np.array([0.25, 0.5, 0.25])),
            Window(pixels=np.array([5]), weights=np.array([1.0])),
        ],
    )
    path = tmp_path / "g.json"
    write_spatial_response(path, g)
    back = read_spatial_response(path)
    assert back.sr_pixel_count == 6
    assert back.hs_pixel_count == 3
    for original, loaded in zip(g.windows, back.windows):
        assert np.array_equal(original.pixels, loaded.pixels)
        assert np.array_equal(original.weights, loaded.weights)


def test_spatial_response_rejects_inconsistent_header(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        '{"L": 4, "Lh": 2, "windows": [{"pixels": [0], "weights": [1.0]}]}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="Lh"):
        read_spatial_response(path)


@pytest.mark.parametrize("key, value", [("L", 6.7), ("Lh", 2.5)])
def test_spatial_response_rejects_a_fractional_count(tmp_path, key, value):
    payload = {"L": 4, "Lh": 2, "windows": [{"pixels": [0, 1], "weights": [0.5, 0.5]},
                                            {"pixels": [2, 3], "weights": [0.5, 0.5]}]}
    payload[key] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=f"{key} {value} is not an integer"):
        read_spatial_response(path)


@pytest.mark.parametrize("edit, where, key", [
    (lambda p: p.pop("L"), "", "L"),
    (lambda p: p.pop("windows"), "", "windows"),
    (lambda p: p["windows"][1].pop("pixels"), "window 1", "pixels"),
    (lambda p: p["windows"][2].pop("weights"), "window 2", "weights"),
], ids=["L", "windows", "window-pixels", "window-weights"])
def test_spatial_response_names_a_missing_key(tmp_path, edit, where, key):
    payload = {"L": 4, "windows": [{"pixels": [0], "weights": [1.0]},
                                   {"pixels": [1, 2], "weights": [0.5, 0.5]},
                                   {"pixels": [3], "weights": [1.0]}]}
    edit(payload)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=f"{where}.*missing key '{key}'"):
        read_spatial_response(path)


@pytest.mark.parametrize("pixel", ["1.5", "NaN", "Infinity"])
def test_spatial_response_rejects_a_non_integer_pixel(tmp_path, pixel):
    path = tmp_path / "g.json"
    path.write_text(
        '{"L": 3, "windows": [{"pixels": [0], "weights": [1.0]}, '
        f'{{"pixels": [2, {pixel}], "weights": [0.5, 0.5]}}]}}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="window 1: pixel index .* is not an integer"):
        read_spatial_response(path)


def test_experiment_config_parses_infinite_snr():
    payload = {
        "scene": {
            "sr_bands": 20, "ms_bands": 4, "materials": 2, "width": 8,
            "height": 8, "factor": 2, "max_support": 2,
            "kernel": "uniform", "kernel_size": 2, "seed": 0,
        },
        "snr_db": [15, "inf", None],
        "trials": 2,
        "solver": {"materials": 2},
        "master_seed": 3,
    }
    config = experiment_config_from_dict(payload)
    assert config.snr_db[0] == 15.0
    assert math.isinf(config.snr_db[1])
    assert math.isinf(config.snr_db[2])
    assert config.scene.materials == 2
    assert config.solver.materials == 2


def test_config_readers_name_unknown_and_missing_keys():
    scene = {"sr_bands": 20, "ms_bands": 4, "materials": 2, "width": 8,
             "height": 8, "factor": 2}
    with pytest.raises(ValueError, match="missing key 'max_support'.*allowed: sr_bands"):
        scene_config_from_dict(scene)
    with pytest.raises(ValueError, match="unknown key 'step_rule'"):
        solver_config_from_dict({"materials": 2, "step_rule": "backtracking"})
    with pytest.raises(ValueError, match="missing key 'scene'"):
        experiment_config_from_dict({"snr_db": [15], "trials": 1, "solver": {"materials": 2}})


def test_solution_json_records_the_momentum_restarts(tmp_path):
    solution = Solution(endmembers=np.eye(2), abundances=np.eye(2),
                        objective_trace=np.array([2.0, 1.0]), iterations=1,
                        termination="converged", restarts=3)
    save_solution(tmp_path, solution)
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert payload["restarts"] == 3
    assert payload["iterations"] == 1
