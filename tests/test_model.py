import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsrfusion import (
    SpatialResponse,
    Window,
    build_counterexample,
    decimate_abundances,
    peak_window_weights,
    reconstruct,
    spatial_decimate,
    spectral_decimate,
    validate_model,
)
from hsrfusion.fileio import read_spatial_response, write_spatial_response
from conftest import random_simplex_columns


def identity_windows(n):
    return SpatialResponse(
        sr_pixel_count=n,
        windows=[Window(pixels=np.array([i]), weights=np.array([1.0])) for i in range(n)],
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
    assert np.allclose(spatial_decimate(x, identity_windows(5)), x, atol=0)


def test_spatial_decimate_counterexample_abundances():
    inst = build_counterexample(0.3)
    assert np.allclose(decimate_abundances(inst.abundances, inst.spatial), np.eye(3), atol=0)


def test_spatial_decimate_matches_window_summation_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 6))
    g = SpatialResponse(
        sr_pixel_count=6,
        windows=[
            Window(pixels=np.array([0, 1, 2]), weights=np.array([0.2, 0.5, 0.3])),
            Window(pixels=np.array([2, 3]), weights=np.array([0.6, 0.4])),
            Window(pixels=np.array([3, 4, 5]), weights=np.array([0.1, 0.1, 0.8])),
        ],
    )
    result = spatial_decimate(x, g)
    for i, win in enumerate(g.windows):
        expected = np.zeros(4)
        for pixel, weight in zip(win.pixels, win.weights):
            expected += x[:, pixel] * weight
        assert np.allclose(result[:, i], expected, rtol=1e-14, atol=1e-15)


def test_spatial_decimate_gives_zero_for_an_empty_window():
    g = SpatialResponse(
        sr_pixel_count=3,
        windows=[
            Window(pixels=np.array([], dtype=int), weights=np.array([])),
            Window(pixels=np.array([2, 0]), weights=np.array([0.5, 0.5])),
            Window(pixels=np.array([], dtype=int), weights=np.array([])),
        ],
    )
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(spatial_decimate(x, g), [[0.0, 2.0, 0.0], [0.0, 5.0, 0.0]])


def test_spatial_decimate_dimension_mismatch():
    with pytest.raises(ValueError):
        spatial_decimate(np.ones((2, 4)), identity_windows(5))


# ---------------------------------------------------------------------------
# decimate_abundances
# ---------------------------------------------------------------------------

def test_decimate_abundances_constant_columns():
    s = np.zeros((3, 4))
    s[0] = 1.0
    g = SpatialResponse(
        sr_pixel_count=4,
        windows=[
            Window(pixels=np.array([0, 1]), weights=np.array([0.5, 0.5])),
            Window(pixels=np.array([1, 2, 3]), weights=np.array([0.2, 0.3, 0.5])),
        ],
    )
    out = decimate_abundances(s, g)
    assert np.allclose(out, np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), atol=0)


def test_decimate_abundances_stays_on_simplex():
    rng = np.random.default_rng(3)
    s = random_simplex_columns(rng, 4, 10)
    pix = rng.permutation(10)
    g = SpatialResponse(
        sr_pixel_count=10,
        windows=[
            Window(pixels=pix[:4], weights=np.array([0.25] * 4)),
            Window(pixels=pix[3:7], weights=np.array([0.4, 0.3, 0.2, 0.1])),
            Window(pixels=pix[6:], weights=np.array([0.7, 0.1, 0.1, 0.1])),
        ],
    )
    out = decimate_abundances(s, g)
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
    g = SpatialResponse(
        sr_pixel_count=8,
        windows=[
            Window(pixels=np.array([0, 1, 2, 3]), weights=np.full(4, 0.25)),
            Window(pixels=np.array([4, 5, 6, 7]), weights=np.full(4, 0.25)),
        ],
    )
    out = decimate_abundances(s, g)
    for i, win in enumerate(g.windows):
        out_support = set(np.flatnonzero(out[:, i] > 0))
        for j in win.pixels:
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
        windows.append(Window(pixels=np.searchsorted(used, pix), weights=raw / raw.sum()))
    return SpatialResponse(sr_pixel_count=len(used), windows=windows)


@settings(max_examples=200, deadline=None)
@given(spatial_responses(), st.integers(0, 2**16))
def test_arrays_dense_matrix_and_file_agree(tmp_path_factory, g, seed):
    assert g.validate() == []
    dense = g.to_dense()
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
    dense = g.to_dense()
    op = g.operator()
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(3, g.sr_pixel_count))
    y = rng.uniform(-1.0, 1.0, size=(3, g.hs_pixel_count))
    assert np.abs(op.apply(x) - x @ dense).max() <= 1e-12
    assert np.abs(op.adjoint(y) - y @ dense.T).max() <= 1e-12
    assert abs(np.sum(op.apply(x) * y) - np.sum(x * op.adjoint(y))) <= 1e-12
    expected = np.linalg.eigvalsh(dense.T @ dense)[-1]
    assert abs(op.gram_norm() - expected) <= 1e-12 * expected


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_validate_flags_a_non_finite_weight(weight):
    g = SpatialResponse(
        sr_pixel_count=3,
        windows=[
            Window(pixels=np.array([0, 1]), weights=np.array([weight, 0.5])),
            Window(pixels=np.array([1, 2]), weights=np.array([0.5, 0.5])),
        ],
    )
    report = g.validate()
    assert [(v.check, v.location) for v in report] == [("window_weight_finite", "window 0")]
    assert report[0].message == f"weight {weight} is not finite"


def test_validate_flags_a_pixel_listed_twice():
    # Read as a list, this window weighs pixel 0 by 0.5 + 0.5; written into a
    # matrix, the second entry overwrites the first. Neither reading is valid.
    g = SpatialResponse(
        sr_pixel_count=3,
        windows=[
            Window(pixels=np.array([0, 0]), weights=np.array([0.5, 0.5])),
            Window(pixels=np.array([1, 2]), weights=np.array([0.5, 0.5])),
        ],
    )
    x = np.array([[1.0, 2.0, 3.0]])
    assert not np.allclose(spatial_decimate(x, g), x @ g.to_dense())
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
    bad = SpatialResponse(
        sr_pixel_count=g.sr_pixel_count,
        windows=[Window(pixels=w.pixels.copy(), weights=w.weights.copy()) for w in g.windows],
    )
    bad.windows[1].weights[0] = 0.0
    report = validate_model(a, s, f, bad)
    assert any(v.check == "window_weight_positive" for v in report)


def test_validate_model_names_uncovered_pixel():
    a, s, f, g = _valid_instance()
    bad = SpatialResponse(sr_pixel_count=6, windows=g.windows[:2])
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
# scene and observation containers
# ---------------------------------------------------------------------------

def test_scene_validates_its_product():
    from hsrfusion import Scene

    inst = build_counterexample(0.15)
    scene = Scene.from_factors(inst.endmembers, inst.abundances)
    assert scene.validate() == []
    broken = Scene(endmembers=inst.endmembers, abundances=inst.abundances,
                   image=scene.image + 1e-6)
    assert any(v.check == "scene_product" for v in broken.validate())


def test_observed_pair_dimension_checks():
    from hsrfusion import ObservedPair

    inst = build_counterexample(0.15)
    y_ms, y_hs = inst.observations()
    pair = ObservedPair(ms=y_ms, hs=y_hs)
    assert pair.validate(inst.spectral, inst.spatial) == []
    bad = ObservedPair(ms=y_ms[:, :4], hs=y_hs)
    assert any(v.check == "observed_ms_pixels"
               for v in bad.validate(inst.spectral, inst.spatial))


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
    right = reconstruct(a, decimate_abundances(s, g))
    assert np.allclose(left, right, rtol=1e-12, atol=1e-14)
