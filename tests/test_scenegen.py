import math

import numpy as np
import pytest

from hsrfusion import (
    SceneConfig,
    SpatialResponse,
    add_noise,
    build_spatial_response,
    build_spectral_response,
    certify,
    dominance_monte_carlo,
    dominance_probability,
    generate_scene,
    kruskal_rank,
    spatial_decimate,
)
from conftest import bounded_arange, desk_scene_config, windows_of


# ---------------------------------------------------------------------------
# spectral response builder
# ---------------------------------------------------------------------------

def test_spectral_blocks_even_split():
    f = build_spectral_response(6, 2)
    expected = np.array([
        [1 / 3, 1 / 3, 1 / 3, 0, 0, 0],
        [0, 0, 0, 1 / 3, 1 / 3, 1 / 3],
    ])
    assert np.allclose(f, expected, atol=0)


def test_spectral_single_row_matches_counterexample_up_to_scale():
    f = build_spectral_response(3, 1)
    assert np.allclose(f, np.array([[1 / 3, 1 / 3, 1 / 3]]), atol=0)
    assert np.allclose(3.0 * f, np.array([[1.0, 1.0, 1.0]]), atol=0)


def test_spectral_blocks_uneven_split():
    f = build_spectral_response(178, 6)
    sizes = (f > 0).sum(axis=1)
    assert sizes.tolist() == [30, 30, 30, 30, 29, 29]
    assert np.allclose(f.sum(axis=1), 1.0, atol=1e-14)
    # blocks are contiguous and partition the band axis
    starts = [int(np.flatnonzero(row)[0]) for row in f]
    assert starts == sorted(starts)
    assert (f > 0).sum(axis=0).tolist() == [1] * 178


def test_spectral_requires_strictly_fewer_rows():
    with pytest.raises(ValueError):
        build_spectral_response(4, 4)


# ---------------------------------------------------------------------------
# spatial response builder
# ---------------------------------------------------------------------------

def test_uniform_box_window():
    g = build_spatial_response(2, 2, kernel="uniform", kernel_size=2, factor=2)
    assert g.hs_pixel_count == 1
    pixels, weights = windows_of(g)[0]
    assert sorted(pixels.tolist()) == [0, 1, 2, 3]
    assert np.allclose(weights, 0.25, atol=0)


def test_gaussian_windows_match_kernel_oracle():
    var = 1.0
    g = build_spatial_response(4, 4, kernel="gaussian", kernel_size=3, variance=var, factor=2)
    assert g.hs_pixel_count == 4
    for i, (pixels, weights) in enumerate(windows_of(g)):
        assert abs(weights.sum() - 1.0) <= 1e-12
        cy, cx = divmod(i, 2)
        center_y = cy * 2 + 0.5
        center_x = cx * 2 + 0.5
        raw = []
        for p in pixels:
            row, col = divmod(int(p), 4)
            raw.append(math.exp(-((row - center_y) ** 2 + (col - center_x) ** 2) / (2 * var)))
        expected = np.array(raw) / np.sum(raw)
        assert np.allclose(weights, expected, rtol=1e-12, atol=1e-15)


def test_paper_scale_window_count():
    g = build_spatial_response(120, 120, kernel="gaussian", kernel_size=11,
                               variance=1.7 ** 2, factor=4)
    assert g.hs_pixel_count == 900
    assert g.validate() == []


def test_kernel_too_small_for_coverage():
    with pytest.raises(ValueError):
        build_spatial_response(8, 8, kernel="uniform", kernel_size=1, factor=2)


@pytest.mark.parametrize("variance, check", [(1e-3, "window_weight_positive"),
                                             (1e-5, "window_weight_finite")])
def test_a_too_narrow_gaussian_is_rejected_by_the_builder(variance, check):
    # The window weights underflow to 0 (1e-3), or every one of a window's
    # does and renormalising gives NaN (1e-5): the builder raises the first
    # violation on one line, and with no warning, which the suite would fail.
    with pytest.raises(ValueError, match=rf"\[{check}\] window 0: ") as raised:
        build_spatial_response(16, 16, "gaussian", 6, variance=variance, factor=4)
    assert "\n" not in str(raised.value)


def test_builder_output_always_satisfies_window_invariants():
    rng = np.random.default_rng(14)
    for _ in range(12):
        factor = int(rng.integers(2, 5))
        width = factor * int(rng.integers(2, 6))
        height = factor * int(rng.integers(2, 6))
        size = factor + int(rng.integers(0, 4))
        kernel = "gaussian" if rng.integers(2) else "uniform"
        g = build_spatial_response(width, height, kernel=kernel, kernel_size=size,
                                   variance=float(rng.uniform(0.5, 3.0)), factor=factor)
        assert g.validate() == []
        assert g.hs_pixel_count == (width // factor) * (height // factor)


def _per_window_response(width, height, kernel, kernel_size, variance, factor):
    """The builder's reference: one window at a time, row-major over the
    cells, each the kernel footprint clipped to the image and renormalized
    as a 2-D block."""
    def axis_footprint(cell, dim):
        center = cell * factor + (factor - 1) / 2.0
        start = math.ceil(center - kernel_size / 2.0)
        idx = np.arange(start, start + kernel_size)
        keep = (idx >= 0) & (idx < dim)
        return idx[keep], idx[keep] - center

    pixels, weights = [], []
    for cy in range(height // factor):
        ys, dys = axis_footprint(cy, height)
        for cx in range(width // factor):
            xs, dxs = axis_footprint(cx, width)
            if kernel == "uniform":
                w = np.ones((len(ys), len(xs)))
            else:
                w = np.exp(-(dys[:, None] ** 2 + dxs[None, :] ** 2) / (2.0 * variance))
            pixels.append((ys[:, None] * width + xs[None, :]).ravel())
            with np.errstate(invalid="ignore"):
                weights.append((w / w.sum()).ravel())
    return SpatialResponse(width * height, indptr=np.cumsum([0] + [len(p) for p in pixels]),
                           pixels=np.concatenate(pixels), weights=np.concatenate(weights))


@pytest.mark.parametrize("width, height, kernel, kernel_size, variance, factor", [
    (2, 2, "uniform", 2, 1.0, 2),
    (16, 16, "uniform", 2, 1.0, 2),
    (64, 64, "uniform", 4, 1.0, 4),
    (64, 64, "gaussian", 6, 1.0, 4),
    (24, 40, "gaussian", 7, 2.5, 4),  # non-square, odd kernel, clipped borders
    (12, 8, "uniform", 5, 1.0, 4),
    (9, 6, "gaussian", 9, 0.7, 3),  # a kernel wider than the image clips both sides
    (10, 6, "uniform", 3, 1.0, 2),
    (128, 128, "gaussian", 11, 1.7 ** 2, 4),
])
def test_builder_is_bit_identical_to_the_per_window_reference(width, height, kernel,
                                                               kernel_size, variance, factor):
    g = build_spatial_response(width, height, kernel, kernel_size, variance, factor)
    ref = _per_window_response(width, height, kernel, kernel_size, variance, factor)
    assert g.indptr.tolist() == ref.indptr.tolist()
    assert g.pixels.tolist() == ref.pixels.tolist()
    assert g.weights.tobytes() == ref.weights.tobytes()


@pytest.mark.parametrize("width, height, kernel, factor", [
    (8, 8, "uniform", 2), (8, 12, "gaussian", 4), (9, 6, "gaussian", 3), (16, 8, "uniform", 8),
])
def test_a_kernel_wider_than_the_image_is_built_at_its_clipped_width(width, height, kernel,
                                                                     factor, monkeypatch):
    # From 2 max(width, height) + 1 on, every footprint covers the image and
    # the windows stop changing: wider kernels match the reference, and a
    # kernel of 10**9 or 10**300 is built with no range as long as itself.
    covering = 2 * max(width, height) + 1
    expected = _per_window_response(width, height, kernel, covering, 20.0, factor)
    for size in [*range(covering, covering + 4), 100]:
        ref = _per_window_response(width, height, kernel, size, 20.0, factor)
        assert ref.weights.tobytes() == expected.weights.tobytes()
    bounded_arange(monkeypatch, 10**4)
    for size in (covering, covering + 1, 100, 10**9, 10**300):
        g = build_spatial_response(width, height, kernel, size, 20.0, factor)
        assert g.indptr.tolist() == expected.indptr.tolist()
        assert g.pixels.tolist() == expected.pixels.tolist()
        assert g.weights.tobytes() == expected.weights.tobytes()


@pytest.mark.parametrize("variance", [1e-3, 1e-5])
def test_a_too_narrow_gaussian_raises_the_per_window_reference_first_violation(variance):
    ref = _per_window_response(16, 16, "gaussian", 6, variance, 4)
    expected = f"gaussian kernel gives an invalid spatial response: {ref.validate()[0]}"
    with pytest.raises(ValueError) as raised:
        build_spatial_response(16, 16, "gaussian", 6, variance=variance, factor=4)
    assert str(raised.value) == expected


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------

def test_generated_scene_has_identity_submatrix(desk_spatial):
    gen = generate_scene(desk_scene_config(seed=2), desk_spatial)
    decimated = spatial_decimate(gen.scene.abundances, desk_spatial)
    sub = decimated[:, gen.pure_windows]
    assert np.abs(sub - np.eye(6)).max() <= 1e-12


def test_generated_scene_respects_kruskal_sparsity(desk_spatial):
    gen = generate_scene(desk_scene_config(seed=4), desk_spatial)
    decimated = spatial_decimate(gen.scene.abundances, desk_spatial)
    k = kruskal_rank(gen.spectral @ gen.scene.endmembers)
    assert int((np.abs(decimated) > 1e-9).sum(axis=0).max()) <= k


def test_generated_scene_is_deterministic(desk_spatial):
    first = generate_scene(desk_scene_config(seed=9), desk_spatial)
    second = generate_scene(desk_scene_config(seed=9), desk_spatial)
    assert np.array_equal(first.scene.endmembers, second.scene.endmembers)
    assert np.array_equal(first.scene.abundances, second.scene.abundances)
    assert first.pure_windows == second.pure_windows


def test_dominance_enforced_scene_passes_all_checks():
    config = SceneConfig(sr_bands=64, ms_bands=4, materials=2, width=8, height=8,
                         factor=2, max_support=2, kernel="uniform", kernel_size=2,
                         seed=12)
    g = build_spatial_response(8, 8, kernel="uniform", kernel_size=2, factor=2)
    gen = generate_scene(config, g)
    report = certify(gen.scene.endmembers, gen.scene.abundances, gen.spectral, g).assumptions
    assert report.all_passed


def test_overlapping_kernel_scene_respects_sparsity_with_small_rank():
    # two MS bands cap the Kruskal rank at 2 while six materials are in play
    config = SceneConfig(sr_bands=50, ms_bands=2, materials=6, width=24, height=24,
                         factor=2, max_support=2, kernel="gaussian", kernel_size=3,
                         kernel_var=1.0, seed=3, require_dominance=False)
    g = build_spatial_response(24, 24, kernel="gaussian", kernel_size=3, variance=1.0, factor=2)
    gen = generate_scene(config, g)
    report = certify(gen.scene.endmembers, gen.scene.abundances, gen.spectral, g).assumptions
    assert report.full_rank and report.sparsity and report.pure_pixels
    assert report.kruskal == 2


def test_pure_windows_fit_on_small_grid_with_overlapping_kernel():
    # rings of different pure zones may interleave; only the zones need
    # isolation, so six pure windows fit on an 8x8 cell grid even with an
    # overlapping kernel
    config = SceneConfig(sr_bands=50, ms_bands=6, materials=6, width=16, height=16,
                         factor=2, max_support=3, kernel="gaussian", kernel_size=3,
                         kernel_var=1.2, seed=99, require_dominance=False)
    g = build_spatial_response(16, 16, kernel="gaussian", kernel_size=3,
                               variance=1.2, factor=2)
    gen = generate_scene(config, g)
    report = certify(gen.scene.endmembers, gen.scene.abundances,
                     gen.spectral, g).assumptions
    assert report.full_rank and report.sparsity and report.pure_pixels


def test_rejection_budget_exhaustion_reports_rates():
    # six materials at fifty bands: the dominance condition is essentially
    # never satisfied by uniform draws, so the budget runs out
    config = SceneConfig(sr_bands=50, ms_bands=6, materials=6, width=8, height=8,
                         factor=2, max_support=2, kernel="uniform", kernel_size=2,
                         seed=0, require_dominance=True, max_draws=50)
    g = build_spatial_response(8, 8, kernel="uniform", kernel_size=2, factor=2)
    with pytest.raises(RuntimeError, match="rejection budget exhausted"):
        generate_scene(config, g)


def test_unsatisfiable_support_errors():
    with pytest.raises(ValueError, match="max_support"):
        config = SceneConfig(sr_bands=8, ms_bands=1, materials=3, width=8, height=8,
                             factor=2, max_support=2, kernel="uniform", kernel_size=2,
                             seed=0, require_dominance=False)
        g = build_spatial_response(8, 8, kernel="uniform", kernel_size=2, factor=2)
        generate_scene(config, g)


def test_acceptance_rate_meets_analytic_floor():
    # the analytic dominance probability is a lower bound on the rejection
    # loop's acceptance rate, up to binomial noise
    trials = 1000
    result = dominance_monte_carlo(2, 64, trials, seed=123)
    analytic = dominance_probability(2, 64).clamped
    sigma = math.sqrt(analytic * (1 - analytic) / trials)
    assert result.rate >= analytic - 3 * sigma


# ---------------------------------------------------------------------------
# noise and error metrics
# ---------------------------------------------------------------------------

def test_add_noise_infinite_snr_is_identity():
    y = np.arange(6.0).reshape(2, 3)
    out = add_noise(y, math.inf, seed=0)
    assert np.array_equal(out, y)
    assert out is not y


def test_add_noise_hits_target_snr_exactly():
    rng = np.random.default_rng(0)
    y = rng.uniform(1.0, 2.0, size=(5, 40))
    noisy = add_noise(y, 20.0, seed=99)
    realized = 10.0 * math.log10(
        np.linalg.norm(y) ** 2 / np.linalg.norm(noisy - y) ** 2
    )
    assert realized == pytest.approx(20.0, abs=1e-9)


def test_add_noise_rejects_zero_signal():
    with pytest.raises(ValueError):
        add_noise(np.zeros((2, 2)), 20.0, seed=0)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_add_noise_rejects_an_snr_that_is_not_finite_or_plus_inf(snr_db):
    with pytest.raises(ValueError, match=f"got {snr_db}$"):
        add_noise(np.ones((2, 2)), snr_db, seed=0)


# ---------------------------------------------------------------------------
# config invariants
# ---------------------------------------------------------------------------

def test_config_rejects_nondividing_factor():
    with pytest.raises(ValueError):
        SceneConfig(sr_bands=10, ms_bands=2, materials=2, width=9, height=8,
                    factor=2, max_support=1)


def test_config_rejects_single_material():
    with pytest.raises(ValueError):
        SceneConfig(sr_bands=10, ms_bands=2, materials=1, width=8, height=8,
                    factor=2, max_support=1)
