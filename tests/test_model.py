import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsrfusion import (
    SolverConfig,
    SpatialResponse,
    build_counterexample,
    build_spatial_response,
    certify,
    generate_scene,
    objective,
    peak_window_weights,
    reconstruct,
    solve_coupled,
    spatial_decimate,
    spectral_decimate,
    validate_model,
)
from hsrfusion.fileio import read_spatial_response, write_spatial_response
from conftest import (
    desk_scene_config,
    identity_response,
    random_simplex_columns,
    response_from_windows,
    to_dense,
    windows_of,
)


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_identity():
    a = np.eye(2)
    s = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(reconstruct(a, s), np.eye(2))


def test_reconstruct_counterexample_columns_are_endmembers():
    inst = build_counterexample(0.1)
    image = reconstruct(inst.endmembers, inst.abundances)
    # every pixel holds a single material, so the image columns are the
    # endmember columns repeated pairwise
    for pixel, material in enumerate([0, 0, 1, 1, 2, 2]):
        assert np.allclose(image[:, pixel], inst.endmembers[:, material], atol=0)


def test_reconstruct_matches_triple_loop_oracle():
    rng = np.random.default_rng(42)
    a = rng.uniform(0.0, 1.0, size=(4, 3))
    s = random_simplex_columns(rng, 3, 5)
    expected = np.zeros((4, 5))
    for i in range(4):
        for j in range(5):
            acc = 0.0
            for k in range(3):
                acc += a[i, k] * s[k, j]
            expected[i, j] = acc
    assert np.allclose(reconstruct(a, s), expected, rtol=1e-14, atol=1e-15)


def test_reconstruct_dimension_mismatch():
    with pytest.raises(ValueError):
        reconstruct(np.eye(2), np.ones((3, 4)) / 3)


# ---------------------------------------------------------------------------
# spectral_decimate
# ---------------------------------------------------------------------------

def test_spectral_decimate_row_of_ones_sums():
    f = np.array([[1.0, 1.0, 1.0]])
    x = np.array([[0.2], [0.3], [0.5]])
    assert spectral_decimate(f, x) == pytest.approx(np.array([[1.0]]))


def test_spectral_decimate_identity():
    x = np.random.default_rng(0).uniform(size=(3, 4))
    assert np.array_equal(spectral_decimate(np.eye(3), x), x)


def test_spectral_decimate_counterexample_endmembers():
    inst = build_counterexample(0.1)
    decimated = spectral_decimate(inst.spectral, inst.endmembers)
    assert np.allclose(decimated, np.array([[1.0, 1.0, 1.0]]), atol=1e-15)


def test_spectral_decimate_dimension_mismatch():
    with pytest.raises(ValueError):
        spectral_decimate(np.ones((1, 3)), np.ones((4, 2)))


# ---------------------------------------------------------------------------
# spatial_decimate
# ---------------------------------------------------------------------------

def test_spatial_decimate_identity_windows():
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(3, 5))
    assert np.allclose(spatial_decimate(x, identity_response(5)), x, atol=0)


def test_spatial_decimate_counterexample_abundances():
    inst = build_counterexample(0.3)
    assert np.allclose(spatial_decimate(inst.abundances, inst.spatial), np.eye(3), atol=0)


def test_spatial_decimate_matches_window_summation_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 6))
    g = response_from_windows(6, [
        ([0, 1, 2], [0.2, 0.5, 0.3]),
        ([2, 3], [0.6, 0.4]),
        ([3, 4, 5], [0.1, 0.1, 0.8]),
    ])
    result = spatial_decimate(x, g)
    for i, (pixels, weights) in enumerate(windows_of(g)):
        expected = np.zeros(4)
        for pixel, weight in zip(pixels, weights):
            expected += x[:, pixel] * weight
        assert np.allclose(result[:, i], expected, rtol=1e-14, atol=1e-15)


def test_spatial_decimate_gives_zero_for_an_empty_window():
    g = response_from_windows(3, [([], []), ([2, 0], [0.5, 0.5]), ([], [])])
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(spatial_decimate(x, g), [[0.0, 2.0, 0.0], [0.0, 5.0, 0.0]])


def test_spatial_decimate_dimension_mismatch():
    with pytest.raises(ValueError):
        spatial_decimate(np.ones((2, 4)), identity_response(5))


# ---------------------------------------------------------------------------
# spatial_decimate on abundances
# ---------------------------------------------------------------------------

def test_decimate_abundances_constant_columns():
    s = np.zeros((3, 4))
    s[0] = 1.0
    g = response_from_windows(4, [([0, 1], [0.5, 0.5]), ([1, 2, 3], [0.2, 0.3, 0.5])])
    out = spatial_decimate(s, g)
    assert np.allclose(out, np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), atol=0)


def test_decimate_abundances_stays_on_simplex():
    rng = np.random.default_rng(3)
    s = random_simplex_columns(rng, 4, 10)
    pix = rng.permutation(10)
    g = response_from_windows(10, [
        (pix[:4], [0.25] * 4),
        (pix[3:7], [0.4, 0.3, 0.2, 0.1]),
        (pix[6:], [0.7, 0.1, 0.1, 0.1]),
    ])
    out = spatial_decimate(s, g)
    assert np.all(out >= 0)
    assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-12


def test_support_nesting():
    # the support of every contributing column is inside the output support
    rng = np.random.default_rng(11)
    s = np.zeros((5, 8))
    for j in range(8):
        sup = rng.choice(5, size=2, replace=False)
        w = rng.dirichlet(np.ones(2))
        s[sup, j] = w
    g = response_from_windows(8, [([0, 1, 2, 3], np.full(4, 0.25)),
                                  ([4, 5, 6, 7], np.full(4, 0.25))])
    out = spatial_decimate(s, g)
    for i, (pixels, _) in enumerate(windows_of(g)):
        out_support = set(np.flatnonzero(out[:, i] > 0))
        for j in pixels:
            assert set(np.flatnonzero(s[:, j] > 0)) <= out_support


# ---------------------------------------------------------------------------
# The one representation: CSR arrays against the dense matrix and the file
# ---------------------------------------------------------------------------

@st.composite
def spatial_responses(draw):
    """Valid responses with overlapping windows of 1..12 unsorted pixels.

    Windows draw from a pixel universe; the pixels some window uses are
    then renumbered 0..L-1 so every pixel is covered."""
    universe = draw(st.integers(2, 40))
    members = draw(st.lists(
        st.lists(st.integers(0, universe - 1), min_size=1, max_size=12, unique=True),
        min_size=1, max_size=8))
    used = np.unique(np.concatenate(members))
    assume(len(members) < len(used))
    windows = []
    for pix in members:
        raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(pix), max_size=len(pix))))
        windows.append((np.searchsorted(used, pix), raw / raw.sum()))
    return response_from_windows(len(used), windows)


@settings(max_examples=200, deadline=None)
@given(spatial_responses(), st.integers(0, 2**16))
def test_arrays_dense_matrix_and_file_agree(tmp_path_factory, g, seed):
    assert g.validate() == []
    dense = to_dense(g)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(3, g.sr_pixel_count))
    assert np.abs(spatial_decimate(x, g) - x @ dense).max() <= 1e-12
    assert np.array_equal(peak_window_weights(g), dense.max(axis=1))
    path = tmp_path_factory.mktemp("g") / "g.json"
    write_spatial_response(path, g)
    back = read_spatial_response(path)
    for name in ("indptr", "pixels", "weights"):
        original, loaded = getattr(g, name), getattr(back, name)
        assert loaded.dtype == original.dtype and np.array_equal(loaded, original)


@settings(max_examples=200, deadline=None)
@given(spatial_responses(), st.integers(0, 2**16))
def test_operator_matches_the_dense_oracle(g, seed):
    dense = to_dense(g)
    op = g
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(3, g.sr_pixel_count))
    y = rng.uniform(-1.0, 1.0, size=(3, g.hs_pixel_count))
    assert np.abs(op.apply(x) - x @ dense).max() <= 1e-12
    assert np.abs(op.adjoint(y) - y @ dense.T).max() <= 1e-12
    assert abs(np.sum(op.apply(x) * y) - np.sum(x * op.adjoint(y))) <= 1e-12
    gram = dense.T @ dense
    row_sum = gram.sum(axis=1).max()
    assert abs(op.gram_norm() - row_sum) <= 1e-12 * row_sum
    assert op.gram_norm() >= np.linalg.eigvalsh(gram)[-1] * (1 - 1e-12)


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_validate_flags_a_non_finite_weight(weight):
    g = response_from_windows(3, [([0, 1], [weight, 0.5]), ([1, 2], [0.5, 0.5])])
    report = g.validate()
    assert [(v.check, v.location) for v in report] == [("window_weight_finite", "window 0")]
    assert report[0].message == f"weight {weight} is not finite"


def test_validate_flags_a_pixel_listed_twice():
    # Read as a list, this window weighs pixel 0 by 0.5 + 0.5; written into a
    # matrix, the second entry overwrites the first. Neither reading is valid.
    g = response_from_windows(3, [([0, 0], [0.5, 0.5]), ([1, 2], [0.5, 0.5])])
    x = np.array([[1.0, 2.0, 3.0]])
    assert not np.allclose(spatial_decimate(x, g), x @ to_dense(g))
    report = g.validate()
    assert [(v.check, v.location) for v in report] == [("window_duplicate_pixel", "window 0")]


@pytest.mark.parametrize("count", [10**11, 2**62])
def test_validate_counts_uncovered_pixels_of_a_huge_response_without_sizing_by_them(count):
    # One window over two pixels: the check works from the two entries, so it
    # neither allocates a mask of `count` pixels nor overflows a key.
    g = SpatialResponse(count, indptr=[0, 2], pixels=[0, 1], weights=[0.5, 0.5])
    report = g.validate()
    assert [(v.check, v.location, v.magnitude) for v in report] == [
        ("coverage", "pixels", float(count - 2))]
    assert report[0].message == f"{count - 2} of {count} SR pixels are not covered by any window"


def test_validate_finds_a_repeat_among_huge_pixel_indices():
    # window * count + pixel would pass 2^63 at window 2
    big = 2**62 - 1
    g = SpatialResponse(2**62, indptr=[0, 2, 4, 6], pixels=[0, big, 1, big, big, big],
                        weights=[0.5] * 6)
    report = g.validate()
    assert [(v.check, v.location) for v in report] == [("window_duplicate_pixel", "window 2"),
                                                       ("coverage", "pixels")]


def test_a_response_holds_read_only_copies_of_its_arrays():
    given_arrays = {"indptr": np.array([0, 2, 3]), "pixels": np.array([0, 1, 2]),
                    "weights": np.array([0.5, 0.5, 1.0])}
    passed = {name: a.copy() for name, a in given_arrays.items()}
    g = SpatialResponse(3, **passed)
    for name, values in given_arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = values[1]
        assert passed[name].flags.writeable and np.array_equal(passed[name], values)


def test_a_response_attribute_cannot_be_rebound():
    # A rebound array would reach the CSR pair but not the kept report.
    g = build_spatial_response(16, 16, "uniform", 2, factor=2)
    assert g.validate() == []
    for name in ("sr_pixel_count", "indptr", "pixels", "weights"):
        before = getattr(g, name)
        with pytest.raises(AttributeError):
            setattr(g, name, -1 * before)
        assert getattr(g, name) is before
    assert np.allclose(g.apply(np.ones((1, g.sr_pixel_count))), 1.0)


@pytest.mark.parametrize("pixel", [1.5, np.nan, np.inf, 1e300, -1e300, 2.0**63])
def test_a_pixel_that_is_no_int64_integer_is_refused_naming_its_window(pixel):
    # The int cast would truncate 1.5 to 1 and wrap 1e300 (with a warning).
    with pytest.raises(ValueError, match=r"^window 1: pixel index .* is not an integer "
                                         r"within the int64 range$"):
        SpatialResponse(4, indptr=[0, 2, 4], pixels=[0, 1, 2, pixel], weights=[0.5] * 4)


@pytest.mark.parametrize("indptr, message", [
    ([0, 2.5, 4], r"^indptr entry 1: 2.5 is not an integer within the int64 range$"),
    ([0, 1e300], r"^indptr entry 1: 1e\+300 is not an integer within the int64 range$"),
    ([0, np.nan, 4], r"^indptr entry 1: nan is not an integer within the int64 range$"),
    ([], r"^indptr, pixels and weights do not describe a list of windows$"),
    ([[0, 2, 4]], r"^indptr, pixels and weights do not describe a list of windows$"),
])
def test_an_indptr_the_int_cast_would_change_is_refused(indptr, message):
    # The cast would truncate 2.5 to 2 (a clean report), and the empty and
    # huge cases raised IndexError and OverflowError instead of ValueError.
    with pytest.raises(ValueError, match=message):
        SpatialResponse(4, indptr=indptr, pixels=[0, 1, 2, 3], weights=[0.5] * 4)


def test_a_whole_float_indptr_builds_the_same_response():
    g = SpatialResponse(4, indptr=[0.0, 2.0, 4.0], pixels=[0, 1, 2, 3], weights=[0.5] * 4)
    assert g.indptr.dtype.kind == "i" and g.indptr.tolist() == [0, 2, 4]
    assert g.validate() == []


@pytest.mark.parametrize("count", [4.7, 4.0, True, "4"])
def test_a_pixel_count_that_is_no_integer_is_refused(count):
    with pytest.raises(ValueError, match="sr_pixel_count must be an integer"):
        SpatialResponse(count, indptr=[0, 2, 4], pixels=[0, 1, 2, 3], weights=[0.5] * 4)


def test_build_solve_and_certify_share_one_validation_report(monkeypatch):
    # The report scans the windows through _reduce: the builder forms it,
    # and the solve and the certificate reuse it.
    scans = []
    reduce = SpatialResponse._reduce

    def counted(self, *args):
        scans.append(self)
        return reduce(self, *args)

    monkeypatch.setattr(SpatialResponse, "_reduce", counted)
    g = build_spatial_response(16, 16, "uniform", 2, factor=2)
    per_report = len(scans)
    gen = generate_scene(desk_scene_config(seed=5), g)
    y_ms = spectral_decimate(gen.spectral, gen.scene.image)
    y_hs = spatial_decimate(gen.scene.image, g)
    solve_coupled(y_ms, y_hs, gen.spectral, g, SolverConfig(materials=6, max_outer=2))
    certify(gen.scene.endmembers, gen.scene.abundances, gen.spectral, g)
    assert per_report > 0 and len(scans) == per_report


def test_gram_norm_is_exact_for_non_overlapping_boxes_without_an_eigensolver(monkeypatch):
    g = build_spatial_response(16, 16, "uniform", 2, factor=2)
    dense = to_dense(g)
    exact = np.linalg.eigvalsh(dense.T @ dense)[-1]
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    assert g.gram_norm() == pytest.approx(exact, rel=1e-12, abs=0)


def test_gram_norm_allocates_under_a_tenth_of_the_dense_gram():
    g = build_spatial_response(128, 128, "gaussian", 6, factor=4)
    g.apply(np.zeros((1, g.sr_pixel_count)))  # forms the CSR pair the products share
    tracemalloc.start()
    try:
        g.gram_norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.hs_pixel_count**2 / 10


# ---------------------------------------------------------------------------
# validate_model
# ---------------------------------------------------------------------------

def _valid_instance():
    inst = build_counterexample(0.2)
    return inst.endmembers, inst.abundances, inst.spectral, inst.spatial


def test_validate_model_accepts_valid_inputs():
    assert validate_model(*_valid_instance()) == []


def test_validate_model_flags_zero_weight():
    a, s, f, g = _valid_instance()
    weights = g.weights.copy()
    weights[g.indptr[1]] = 0.0  # the first weight of window 1
    bad = SpatialResponse(g.sr_pixel_count, indptr=g.indptr, pixels=g.pixels, weights=weights)
    report = validate_model(a, s, f, bad)
    assert any(v.check == "window_weight_positive" for v in report)


def test_validate_model_names_uncovered_pixel():
    a, s, f, g = _valid_instance()
    bad = response_from_windows(6, windows_of(g)[:2])
    report = validate_model(a, s, f, bad)
    coverage = [v for v in report if v.check == "coverage"]
    assert {v.location for v in coverage} == {"pixel 4", "pixel 5"}


def test_validate_model_flags_out_of_range_endmember():
    a, s, f, g = _valid_instance()
    a = a.copy()
    a[0, 0] = 1.2
    report = validate_model(a, s, f, g)
    assert any(v.check == "endmember_range" for v in report)


def test_validate_model_flags_bad_abundance_column():
    a, s, f, g = _valid_instance()
    s = s.copy()
    s[:, 2] = [0.5, 0.6, 0.0]
    report = validate_model(a, s, f, g)
    assert any(v.check == "abundance_sum" and "column 2" in v.location for v in report)


# ---------------------------------------------------------------------------
# the scene container and the observation shapes
# ---------------------------------------------------------------------------

def test_scene_validates_its_product():
    from hsrfusion import Scene

    inst = build_counterexample(0.15)
    scene = Scene.from_factors(inst.endmembers, inst.abundances)
    assert scene.validate() == []
    broken = Scene(endmembers=inst.endmembers, abundances=inst.abundances,
                   image=scene.image + 1e-6)
    assert any(v.check == "scene_product" for v in broken.validate())


def test_objective_rejects_observations_that_do_not_fit_the_responses():
    inst = build_counterexample(0.15)
    y_ms, y_hs = inst.observations()
    args = inst.endmembers, inst.abundances
    assert objective(*args, y_ms, y_hs, inst.spectral, inst.spatial) <= 1e-24
    with pytest.raises(ValueError, match="^MS pixel count does not match"):
        objective(*args, y_ms[:, :4], y_hs, inst.spectral, inst.spatial)
    with pytest.raises(ValueError, match="^MS band count does not match"):
        objective(*args, np.vstack([y_ms, y_ms]), y_hs, inst.spectral, inst.spatial)


# ---------------------------------------------------------------------------
# operator identities
# ---------------------------------------------------------------------------

def test_spectral_decimation_commutes_with_mixing():
    rng = np.random.default_rng(5)
    a = rng.uniform(size=(12, 4))
    s = random_simplex_columns(rng, 4, 9)
    f = rng.uniform(size=(3, 12))
    left = spectral_decimate(f, reconstruct(a, s))
    right = reconstruct(spectral_decimate(f, a), s)
    assert np.allclose(left, right, rtol=1e-12, atol=1e-14)


def test_spatial_decimation_commutes_with_mixing():
    rng = np.random.default_rng(6)
    a = rng.uniform(size=(7, 3))
    s = random_simplex_columns(rng, 3, 6)
    inst = build_counterexample(0.1)
    g = inst.spatial
    left = spatial_decimate(reconstruct(a, s), g)
    right = reconstruct(a, spatial_decimate(s, g))
    assert np.allclose(left, right, rtol=1e-12, atol=1e-14)
