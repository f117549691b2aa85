import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hsrfusion import (ExperimentConfig, SceneConfig, Solution, SolverConfig,
                       build_spatial_response, generate_scene)
from hsrfusion import fileio
from hsrfusion.fileio import (
    config_from_dict,
    read_matrix,
    read_spatial_response,
    save_generated_scene,
    save_solution,
    write_matrix,
    write_spatial_response,
)
from conftest import desk_scene_config, response_from_windows, windows_of


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


def _per_value_17g(m):
    """The CSV text of the per-value ``f"{v:.17g}"`` join, as bytes."""
    rows = np.atleast_2d(np.asarray(m, dtype=float))
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows).encode()


def _near_powers_of_ten():
    """Each power of ten 1e-6 .. 1e17, and its 3 float neighbours on either
    side, both signs."""
    cells = 10.0 ** np.arange(-6, 18)
    for direction in (0.0, np.inf):
        step = cells
        for _ in range(3):
            step = np.nextafter(step, direction)
            cells = np.concatenate([cells, step])
    return np.concatenate([cells, -cells])


def test_matrix_bytes_equal_the_per_value_17g_join_at_scale(tmp_path):
    rng = np.random.default_rng(20)
    half = 2.0 ** -2  # magnitude ~1e15 with a .25 or .75 tail: 17 digits end on a tie
    bits = rng.integers(0, 2 ** 64, size=10 ** 5, dtype=np.uint64)
    # The writer refuses NaN and inf (exponent all ones): clearing the
    # exponent's top bit makes such a pattern a finite value in [1, 2).
    bits[((bits >> 52) & 0x7FF) == 0x7FF] &= ~np.uint64(1 << 62)
    cases = {
        "bit patterns": bits.view(np.float64).reshape(200, 500),
        "powers of ten": _near_powers_of_ten().reshape(-1, 4),
        "fast-path edges": np.array([[1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1),
                                      1e16, np.nextafter(1e16, 0), 9.9999999999999999e15,
                                      -1e-4, -1e16, 0.00099999999999999999, 1e17]]),
        "ties": (rng.integers(2 ** 52, 2 ** 53, size=(50, 20)) | 1) * half,
        "rounded decimals": np.round(rng.uniform(-1e5, 1e5, size=(40, 50)), 3),
        "specials": np.array([[0.0, -0.0, 5e-324, 1.0]]),
        "row of 0": np.zeros((3, 0)),
        "column of 0": np.zeros((0, 3)),
        "1-D": np.array([0.5, -2.0, 1e-7]),
        "0-d": np.array(-3.25),
        "long row": rng.uniform(size=(2, 20000)),  # one row per chunk
    }
    path = tmp_path / "m.csv"
    for name, m in cases.items():
        write_matrix(path, m)
        assert path.read_bytes() == _per_value_17g(m), name
    assert _per_value_17g(np.zeros((3, 0))) == b"\n\n\n"
    assert _per_value_17g(np.zeros((0, 3))) == b""


@pytest.mark.parametrize("cell", [np.nan, -np.nan, np.inf, -np.inf],
                         ids=["nan", "-nan", "inf", "-inf"])
def test_writer_refuses_a_non_finite_cell_as_the_reader_would(tmp_path, cell):
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, cell]])
    path = tmp_path / "m.csv"
    path.write_bytes(_per_value_17g(m))
    with pytest.raises(ValueError) as read:
        read_matrix(path)
    path.unlink()
    with pytest.raises(ValueError) as written:
        write_matrix(path, m)
    assert str(written.value) == str(read.value)
    assert str(written.value) == f"{path}: line 2, column 3: non-finite value {cell:g}"
    assert not path.exists()


def test_matrix_writer_streams_through_bounded_memory(tmp_path):
    m = np.random.default_rng(21).uniform(size=(200, 4096))
    path = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        write_matrix(path, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


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


def test_generated_csvs_read_the_same_as_the_line_loop(tmp_path, monkeypatch):
    generated = generate_scene(desk_scene_config(4), build_spatial_response(
        16, 16, kernel="uniform", kernel_size=2, factor=2))
    save_generated_scene(tmp_path, generated)
    read_lines, fallbacks = fileio._read_matrix_lines, []
    monkeypatch.setattr(fileio, "_read_matrix_lines", fallbacks.append)
    for path in sorted(tmp_path.glob("*.csv")):
        fast, loop = read_matrix(path), read_lines(path)
        assert fast.shape == loop.shape and fast.tobytes() == loop.tobytes(), path.name
    assert fallbacks == []  # numpy's C reader took every file


@pytest.mark.parametrize("text, message", [
    ("1,2,3\n4,5\n", "line 2: expected 3 columns, got 2"),
    ("1,2\n3,oops\n", "line 2, column 2: cannot parse 'oops'"),
    ("1,2,\n", "line 1, column 3: cannot parse ''"),
    ("# a comment\n1,2\n", "line 1, column 1: cannot parse '# a comment'"),
    ("1,2\n\n3,nan\n", "line 3, column 2: non-finite value nan"),
    ("-inf,2\n", "line 1, column 1: non-finite value -inf"),
    ("", "zero rows"),
    ("\n  \n", "zero rows"),
], ids=["ragged", "parse", "trailing-comma", "comment", "nan", "inf", "empty", "blank"])
def test_reader_error_messages_name_the_path_line_and_column(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning of the C reader escapes
        with pytest.raises(ValueError) as caught:
            read_matrix(path)
    assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize("text, expected", [
    ("1,2\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    (" 1 ,\t2 \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\n   \n3,4", [[1.0, 2.0], [3.0, 4.0]]),
    ("1_0,-0\n", [[10.0, -0.0]]),
    ("1,2,3\n", [[1.0, 2.0, 3.0]]),
    ("1\n2\n", [[1.0], [2.0]]),
], ids=["blank-line", "whitespace", "crlf", "whitespace-line", "underscore", "one-row",
        "one-column"])
def test_reader_accepts_what_float_accepts(tmp_path, text, expected):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    back = read_matrix(path)
    assert back.tolist() == expected
    assert np.array_equal(np.signbit(back), np.signbit(expected))


def test_writer_skips_zeros_byte_for_byte(tmp_path):
    rng = np.random.default_rng(23)
    m = rng.uniform(size=(12, 4096)) * (rng.uniform(size=(12, 4096)) < 0.25)
    m[:, :6] = [[-0.0, 5e-324, 1e-5, 1e17, -1e-5, -5e-324]]
    m[3] = 0.0  # a row of zeros only
    assert (m == 0.0).mean() > 0.75
    path = tmp_path / "m.csv"
    write_matrix(path, m)
    assert path.read_bytes() == _per_value_17g(m)


def test_spatial_response_round_trip(tmp_path):
    g = response_from_windows(6, [
        ([0, 1], [0.5, 0.5]),
        ([2, 3, 4], [0.25, 0.5, 0.25]),
        ([5], [1.0]),
    ])
    path = tmp_path / "g.json"
    write_spatial_response(path, g)
    back = read_spatial_response(path)
    assert back.sr_pixel_count == 6
    assert back.hs_pixel_count == 3
    for original, loaded in zip(windows_of(g), windows_of(back)):
        assert np.array_equal(original[0], loaded[0])
        assert np.array_equal(original[1], loaded[1])


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


@pytest.mark.parametrize("pixel, shown", [("1e300", "1e+300"), ("-1e300", "-1e+300"),
                                          (str(2**70), str(2**70))])
def test_spatial_response_names_a_huge_pixel_index_as_read(tmp_path, pixel, shown):
    # Past 2^63 an int cast wraps (with a RuntimeWarning): the range is checked first.
    path = tmp_path / "g.json"
    path.write_text(
        '{"L": 3, "windows": [{"pixels": [0], "weights": [1.0]}, '
        f'{{"pixels": [2, {pixel}], "weights": [0.5, 0.5]}}]}}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as caught:
        read_spatial_response(path)
    assert str(caught.value).startswith(
        f"{path}: [window_range] window 1: pixel index {shown} is out of range for 3 SR pixels")


def test_spatial_response_names_the_path_of_a_json_syntax_error(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"L": 4, "windows": [', encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        read_spatial_response(path)
    assert str(caught.value).startswith(f"{path}: Expecting value")


def test_experiment_config_parses_infinite_snr():
    payload = {
        "scene": {
            "sr_bands": 20, "ms_bands": 4, "materials": 2, "width": 8,
            "height": 8, "factor": 2, "max_support": 2,
            "kernel": "uniform", "kernel_size": 2, "seed": 0,
        },
        "snr_db": [15, "inf"],
        "trials": 2,
        "solver": {"materials": 2},
        "master_seed": 3,
    }
    config = config_from_dict(ExperimentConfig, payload)
    assert config.snr_db == [15.0, math.inf]
    assert type(config.scene) is SceneConfig and config.scene.materials == 2
    assert type(config.solver) is SolverConfig and config.solver.materials == 2
    # null is the other spelling of inf; the library reads both as the file does.
    assert config_from_dict(ExperimentConfig, {**payload, "snr_db": [None]}).snr_db == [math.inf]
    assert dataclasses.replace(config, snr_db=[None, "-5"]).snr_db == [math.inf, -5.0]


def test_config_readers_name_unknown_and_missing_keys():
    scene = {"sr_bands": 20, "ms_bands": 4, "materials": 2, "width": 8,
             "height": 8, "factor": 2}
    with pytest.raises(ValueError, match="missing key 'max_support'.*allowed: sr_bands"):
        config_from_dict(SceneConfig, scene)
    with pytest.raises(ValueError, match="unknown key 'step_rule'"):
        config_from_dict(SolverConfig, {"materials": 2, "step_rule": "backtracking"})
    with pytest.raises(ValueError, match="missing key 'scene'"):
        config_from_dict(ExperimentConfig,
                         {"snr_db": [15], "trials": 1, "solver": {"materials": 2}})


def test_solution_json_records_the_momentum_restarts(tmp_path):
    solution = Solution(endmembers=np.eye(2), abundances=np.eye(2),
                        objective_trace=np.array([2.0, 1.0]), iterations=1,
                        termination="converged", restarts=3, stationarity=2.5e-5)
    save_solution(tmp_path, solution)
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert payload["restarts"] == 3
    assert payload["stationarity"] == 2.5e-5
    assert payload["iterations"] == 1


def test_solution_json_records_each_blocks_steps_and_fallbacks(tmp_path):
    stats = {"endmembers": {"passes": 4, "steps": 21, "fallbacks": 1},
             "abundances": {"passes": 4, "steps": 30, "fallbacks": 0}}
    save_solution(tmp_path, Solution(endmembers=np.eye(2), abundances=np.eye(2),
                                     objective_trace=np.array([2.0, 1.0]), iterations=4,
                                     termination="converged", stats=stats))
    assert json.loads((tmp_path / "solution.json").read_text())["stats"] == stats


@pytest.mark.parametrize("data, message", [
    (b"\xff1,2\n", "line 1, column 1: byte 0xff is not UTF-8"),
    (b"1,2\n3,4\xe9\n", "line 2, column 2: byte 0xe9 is not UTF-8"),
    (b"1,2\n\n3,\xc3\n", "line 3, column 2: byte 0xc3 is not UTF-8"),
], ids=["first-byte", "after-a-digit", "truncated-sequence"])
def test_reader_names_the_line_and_column_of_a_byte_that_is_not_utf8(tmp_path, data, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError) as caught:
        read_matrix(path)
    assert str(caught.value) == f"{path}: {message}"
