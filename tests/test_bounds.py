import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrfusion import (
    SolverConfig,
    SpatialResponse,
    build_counterexample,
    certify,
    dominance_coefficient,
    dominance_monte_carlo,
    dominance_probability,
    extract_alignment,
    generate_scene,
    kruskal_rank,
    peak_window_weights,
    solve_coupled,
    support_balance,
    varah_lower_bound,
    verify_abundance_error_bound,
)
from hsrfusion import bounds
from hsrfusion.bounds import SUBSET_GUARD, AlignmentReport, principal_floor
from hsrfusion.model import spatial_decimate, spectral_decimate
from conftest import (
    desk_scene_config,
    identity_response,
    random_simplex_columns,
    response_from_windows,
)


# ---------------------------------------------------------------------------
# kruskal rank
# ---------------------------------------------------------------------------

def test_kruskal_identity():
    assert kruskal_rank(np.eye(3)) == 3


def test_kruskal_dependent_triple():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    # oracle: enumerate subset ranks directly
    for pair in itertools.combinations(range(3), 2):
        assert np.linalg.matrix_rank(a[:, pair]) == 2
    assert np.linalg.matrix_rank(a) == 2 < 3
    assert kruskal_rank(a) == 2


def test_kruskal_row_of_ones():
    assert kruskal_rank(np.array([[1.0, 1.0, 1.0]])) == 1


def test_kruskal_never_exceeds_min_dims():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.integers(1, 5)
        n = rng.integers(1, 6)
        a = rng.uniform(size=(m, n))
        assert kruskal_rank(a) <= min(m, n)


def test_kruskal_zero_matrix():
    assert kruskal_rank(np.zeros((3, 2))) == 0


def test_kruskal_guard(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a decomposition ran")

    monkeypatch.setattr(np.linalg, "svd", refuse)  # the guard raises before any work
    with pytest.raises(ValueError, match="exceeds enumeration guard"):
        kruskal_rank(np.ones((2, 21)))


# ---------------------------------------------------------------------------
# dominance coefficient
# ---------------------------------------------------------------------------

def test_dominance_identity_is_zero():
    for n in (2, 3, 5):
        assert dominance_coefficient(np.eye(n)) == 0.0


def test_dominance_two_material_example():
    a = np.array([[0.95, 0.05], [0.05, 0.95]])
    assert dominance_coefficient(a) == pytest.approx(0.05 / 0.9, rel=1e-12)


def test_dominance_counterexample_formula():
    inst = build_counterexample(0.1)
    assert dominance_coefficient(inst.endmembers) == pytest.approx(0.1 / 0.7, rel=1e-12)


def test_dominance_matches_definition_oracle():
    rng = np.random.default_rng(1)
    a = rng.uniform(size=(12, 4))
    n = 4
    worst = 0.0
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            vals = [
                (1.0 - a[k, j]) / (1.0 - n * a[k, i])
                for k in range(12)
                if a[k, i] < 1.0 / n
            ]
            worst = max(worst, min(vals))
    assert dominance_coefficient(a) == pytest.approx(worst, rel=1e-12)


def test_dominance_infinite_when_column_ineligible():
    a = np.array([[0.8, 0.2], [0.9, 0.3]])  # column 0 has no entry below 1/2
    assert dominance_coefficient(a) == math.inf


def test_dominance_invariant_under_column_permutation():
    rng = np.random.default_rng(2)
    a = rng.uniform(size=(10, 4))
    perm = rng.permutation(4)
    assert dominance_coefficient(a[:, perm]) == pytest.approx(
        dominance_coefficient(a), rel=1e-12
    )


# ---------------------------------------------------------------------------
# subset condition number
# ---------------------------------------------------------------------------

def _condition(a):
    """The certificate's condition number of a, from fresh subset tables."""
    return bounds._SubsetTables(a).condition()


def test_condition_identity():
    assert _condition(np.eye(2)) == pytest.approx(1.0, rel=1e-12)


def test_condition_diagonal():
    assert _condition(np.diag([2.0, 1.0])) == pytest.approx(2.0, rel=1e-12)


def test_condition_row_of_ones():
    assert _condition(np.array([[1.0, 1.0, 1.0]])) == pytest.approx(
        math.sqrt(2.0), rel=1e-12
    )


def test_condition_invariant_under_column_permutation():
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(3, 5))
    perm = rng.permutation(5)
    assert _condition(a[:, perm]) == pytest.approx(_condition(a), rel=1e-10)


# ---------------------------------------------------------------------------
# subset reductions against one-SVD-per-subset loops
# ---------------------------------------------------------------------------

def _kruskal_oracle(a, tol=1e-9):
    m, n = a.shape
    scale = np.linalg.svd(a, compute_uv=False)[0]
    if scale == 0.0:
        return 0
    k = 0
    for size in range(1, min(m, n) + 1):
        for subset in itertools.combinations(range(n), size):
            if np.linalg.svd(a[:, subset], compute_uv=False)[-1] <= tol * scale:
                return k
        k = size
    return k


def _condition_oracle(a):
    n = a.shape[1]
    worst = 0.0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            comp = [c for c in range(n) if c not in subset]
            top = float(np.linalg.svd(a[:, comp], compute_uv=False)[0]) if comp else 0.0
            if top == 0.0:
                continue
            bottom = float(np.linalg.svd(a[:, subset], compute_uv=False)[-1])
            if bottom <= 0.0:
                return math.inf
            worst = max(worst, top / bottom)
    return worst


def _floor_oracle(r, kruskal=None):
    n = r.shape[0]
    k = n - 1 if kruskal is None else kruskal
    floor = math.inf
    for size in range(max(1, n - k), n):
        for subset in itertools.combinations(range(n), size):
            block = r[np.ix_(subset, subset)]
            floor = min(floor, float(np.linalg.svd(block, compute_uv=False)[-1]))
    return floor


@st.composite
def subset_matrices(draw, square=False):
    """1..8 columns, fewer or more rows than columns; some columns zero or
    copies of earlier ones, some entries small integers (exact dependence)."""
    n = draw(st.integers(1, 8))
    m = n if square else draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.integers(-2, 3, size=(m, n)).astype(float) if draw(st.booleans())
         else rng.uniform(-1.0, 1.0, size=(m, n)))
    for j in range(n):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy"]))
        if kind == "zero":
            a[:, j] = 0.0
        elif kind == "copy" and j > 0:
            a[:, j] = a[:, draw(st.integers(0, j - 1))]
    if square:
        a = a[rng.permutation(n)]  # copied columns, rows shuffled: repeated blocks
    return a


# Small blocks put several stacked SVDs, and a partial last one, in one size.
block_sizes = st.sampled_from([1, 3, bounds.SUBSET_BLOCK])


@settings(max_examples=300, deadline=None)
@given(subset_matrices(), block_sizes)
def test_kruskal_and_condition_equal_per_subset_loops(a, block):
    with mock.patch.object(bounds, "SUBSET_BLOCK", block):
        assert kruskal_rank(a) == _kruskal_oracle(a)
        assert _condition(a) == _condition_oracle(a)


@settings(max_examples=300, deadline=None)
@given(subset_matrices(square=True), st.integers(-1, 8), block_sizes)
def test_principal_floor_equals_per_subset_loop(r, kruskal, block):
    kruskal = None if kruskal < 0 else min(kruskal, r.shape[0])
    with mock.patch.object(bounds, "SUBSET_BLOCK", block):
        assert principal_floor(r, kruskal) == _floor_oracle(r, kruskal)


def test_subset_reductions_raise_past_the_guard():
    too_many = SUBSET_GUARD + 1
    with pytest.raises(ValueError, match="guard"):
        principal_floor(np.eye(too_many))
    with pytest.raises(ValueError, match="guard"):
        _condition(np.ones((2, too_many)))


# ---------------------------------------------------------------------------
# balance factor and window weights
# ---------------------------------------------------------------------------

def test_balance_large_rank_branch():
    assert support_balance(30, 15) == 15.0


def test_balance_small_rank_branch():
    assert support_balance(4, 1) == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_balance_boundary():
    assert support_balance(2, 1) == 1.0


def test_balance_is_envelope_of_split_sizes():
    for n in range(2, 13):
        for k in range(1, n + 1):
            envelope = max(math.sqrt(j * (n - j)) for j in range(1, k + 1))
            assert envelope <= support_balance(n, k) + 1e-12


def test_peak_weights_counterexample():
    inst = build_counterexample(0.1)
    assert np.allclose(peak_window_weights(inst.spatial), 0.5, atol=0)


def test_peak_weights_identity_windows():
    g = identity_response(3)
    assert np.allclose(peak_window_weights(g), 1.0, atol=0)


def test_peak_weights_take_max_over_windows():
    g = response_from_windows(2, [([0, 1], [0.7, 0.3]), ([0, 1], [0.4, 0.6])])
    assert np.allclose(peak_window_weights(g), [0.7, 0.6], atol=0)


def test_peak_weights_uncovered_pixel_errors():
    g = response_from_windows(3, [([0, 1], [0.5, 0.5])])
    with pytest.raises(ValueError, match="pixel 2"):
        peak_window_weights(g)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_zero_dominance_zeroes_the_bound():
    endmembers = np.eye(2)
    abundances = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    spectral = np.array([[0.5, 0.5]])
    spatial = response_from_windows(3, [([0, 1], [0.5, 0.5]), ([1, 2], [0.5, 0.5])])
    cert = certify(endmembers, abundances, spectral, spatial)
    assert cert.dominance == 0.0
    assert np.allclose(cert.pixel_bounds, 0.0, atol=0)


def test_certificate_counterexample_composition():
    inst = build_counterexample(0.1)
    cert = certify(inst.endmembers, inst.abundances, inst.spectral, inst.spatial)
    assert cert.kruskal == 1
    assert cert.dominance == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert cert.endmember_norm == pytest.approx(1.0, rel=1e-12)
    assert cert.condition == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert cert.balance == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert np.allclose(cert.peak_weights, 0.5, atol=0)
    expected = (1.0 / 7.0) * 1.0 * math.sqrt(3.0) * 8.0 * math.sqrt(2.0)
    assert np.allclose(cert.pixel_bounds, expected, rtol=1e-12)
    assert expected == pytest.approx(2.7994, abs=1e-4)
    # achievable worst-case error stays below the certified bound
    assert math.sqrt(2.0) * 0.1 <= cert.pixel_bounds.min()


def test_certificate_product_matches_factors():
    inst = build_counterexample(0.05)
    cert = certify(inst.endmembers, inst.abundances, inst.spectral, inst.spatial)
    recomputed = (
        cert.dominance * cert.endmember_norm
        * math.sqrt(1.0 + cert.condition ** 2)
        * (4.0 + 2.0 / cert.peak_weights) * cert.balance
    )
    assert np.allclose(cert.pixel_bounds, recomputed, rtol=1e-12)


def test_certificate_on_generated_scene(desk_spatial):
    gen = generate_scene(desk_scene_config(seed=41), desk_spatial)
    cert = certify(gen.scene.endmembers, gen.scene.abundances, gen.spectral, desk_spatial)
    assert np.all(np.isfinite(cert.pixel_bounds))
    assert cert.assumptions.full_rank
    assert cert.assumptions.sparsity
    assert cert.assumptions.pure_pixels


def test_certify_and_assumptions_reject_an_invalid_spatial_response():
    inst = build_counterexample(0.1)
    g = inst.spatial
    weights = g.weights.copy()
    weights[:2] = [-0.5, 1.5]  # window 0: still sums to one
    bad = SpatialResponse(g.sr_pixel_count, indptr=g.indptr, pixels=g.pixels, weights=weights)
    with pytest.raises(ValueError, match="window_weight_positive"):
        certify(inst.endmembers, inst.abundances, inst.spectral, bad)


def _spy_on_subset_sizes(monkeypatch):
    """Record the size of every column-subset enumeration requested."""
    sizes = []
    enumerate_subsets = bounds._subset_spectra

    def spy(a, size, principal=False):
        sizes.append(size)
        return enumerate_subsets(a, size, principal)

    monkeypatch.setattr(bounds, "_subset_spectra", spy)
    return sizes


@pytest.mark.parametrize("m, n, duplicate", [(8, 12, False), (8, 12, True), (4, 7, False),
                                             (6, 6, False), (8, 5, False), (8, 5, True)])
def test_certify_enumerates_each_subset_size_of_f_a_once(monkeypatch, desk_spatial, m, n,
                                                         duplicate):
    rng = np.random.default_rng(m * 100 + n)
    endmembers = rng.uniform(size=(50, n))
    if duplicate:
        endmembers[:, 3] = endmembers[:, 1]  # F A has a dependent pair
    abundances = rng.exponential(size=(n, desk_spatial.sr_pixel_count))
    abundances /= abundances.sum(axis=0)
    spectral = rng.uniform(size=(m, 50))
    sizes = _spy_on_subset_sizes(monkeypatch)
    cert = certify(endmembers, abundances, spectral, desk_spatial)
    assert sorted(sizes) == sorted(set(sizes))  # each size at most once
    k = min(m, n - 1)  # the condition number enumerates these sizes in full
    assert {k, n - k, n - 1} <= set(sizes) <= set(range(1, n + 1))
    fa = spectral @ endmembers
    assert cert.kruskal == kruskal_rank(fa)
    assert cert.condition == _condition(fa)  # bit for bit, inf too
    assert cert.kruskal == (1 if duplicate else min(m, n))
    assert (cert.condition > 1e12) == duplicate  # a dependent pair's sigma_min is roundoff


def test_kruskal_rank_on_its_own_stops_after_the_first_dependent_size(monkeypatch):
    a = np.random.default_rng(3).uniform(size=(8, 12))
    a[:, 5] = a[:, 2]
    sizes = _spy_on_subset_sizes(monkeypatch)
    assert kruskal_rank(a) == 1
    assert sizes == [8, 1, 2]  # the largest size is asked first, then sizes in order


def test_kruskal_rank_stops_at_the_first_block_with_a_dependent_subset(monkeypatch):
    a = np.random.default_rng(4).uniform(size=(8, 12))
    a[:, 1] = a[:, 0]  # (0, 1) leads the first block of 2-subsets
    expected = _condition(a)
    monkeypatch.setattr(bounds, "SUBSET_BLOCK", 4)
    stacks = []
    svd = np.linalg.svd

    def count(x, *args, **kwargs):
        stacks.append(np.ndim(x) == 3)
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", count)
    tables = bounds._SubsetTables(a)
    assert tables.kruskal() == 1
    # one block of 8-subsets (the largest size, asked first), every block
    # of 1-subsets, one of 2-subsets
    assert sum(stacks) == 1 + 3 + 1
    # the condition number resumes the paused size and matches a fresh enumeration
    assert tables.condition() == expected


def _count_decompositions(monkeypatch):
    """Record the number of matrices in each stacked SVD."""
    counts = []
    svd = np.linalg.svd

    def count(x, *args, **kwargs):
        if np.ndim(x) == 3:
            counts.append(np.shape(x)[0])
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", count)
    return counts


def test_certify_decomposes_the_pruning_levels_of_a_full_kruskal_f_a_only(monkeypatch,
                                                                          desk_spatial):
    rng = np.random.default_rng(12)
    endmembers = rng.uniform(size=(50, 12))
    abundances = random_simplex_columns(rng, 12, desk_spatial.sr_pixel_count)
    spectral = rng.uniform(size=(8, 50))
    counts = _count_decompositions(monkeypatch)
    cert = certify(endmembers, abundances, spectral, desk_spatial)
    assert cert.kruskal == 8
    # the 8-subsets, their 4-column complements and the 11-column complements
    # of single columns, of 4,094 proper subsets
    assert sum(counts) <= 495 + 495 + 12
    assert cert.condition == _condition_oracle(spectral @ endmembers)


@pytest.mark.parametrize("m, n", [(1, 1), (4, 1), (1, 2), (5, 2), (1, 3), (2, 3), (6, 3)])
def test_condition_equals_the_oracle_where_nothing_is_pruned(m, n):
    a = np.random.default_rng(m * 10 + n).uniform(-1.0, 1.0, size=(m, n))
    assert _condition(a) == _condition_oracle(a)


def test_condition_equals_the_oracle_with_a_duplicated_column():
    """Subsets of at most 8 columns holding both copies have a roundoff
    sigma_min that no bound can clear, so they are all decomposed."""
    a = np.random.default_rng(6).uniform(size=(8, 12))
    a[:, 7] = a[:, 4]
    tables = bounds._SubsetTables(a)
    assert tables.condition() == _condition_oracle(a)
    both = [mask for mask in range(1 << 12)
            if mask & 0b10010000 == 0b10010000 and mask.bit_count() <= 8]
    assert not np.isnan(tables.smin[both]).any()


@pytest.mark.parametrize("m, n", [(8, 12), (4, 7), (6, 4), (8, 5)])
@pytest.mark.parametrize("duplicate", [False, True])
def test_top_down_kruskal_rank_equals_bottom_up(monkeypatch, m, n, duplicate):
    a = np.random.default_rng(m * 100 + n).uniform(-1.0, 1.0, size=(m, n))
    if duplicate:
        a[:, 3] = a[:, 1]
    sizes = _spy_on_subset_sizes(monkeypatch)
    assert kruskal_rank(a) == _kruskal_oracle(a) == (1 if duplicate else min(m, n))
    if not duplicate:
        assert sizes == [min(m, n)]  # the largest size settles it alone


@pytest.mark.parametrize("m, n", [(3, 6), (5, 8), (6, 4), (8, 5)])
@pytest.mark.parametrize("ratio", [0.99, 0.9999, 1.0001, 1.01, 10.0])
def test_top_down_kruskal_rank_equals_bottom_up_at_the_threshold(m, n, ratio):
    """The last column is columns 0 and 1 plus t times a unit vector
    orthogonal to both, with t set so that sigma_min of columns
    {0, 1, n - 1} is ratio * SINGULAR_REL * sigma_max(a)."""
    rng = np.random.default_rng(m * 100 + n)
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    w = np.linalg.qr(a[:, :2], mode="complete")[0][:, 2]
    triple = [0, 1, n - 1]

    def set_tail(t):
        a[:, n - 1] = a[:, 0] + a[:, 1] + t * w
        scale = np.linalg.svd(a, compute_uv=False)[0]
        return np.linalg.svd(a[:, triple], compute_uv=False)[-1] / (bounds.SINGULAR_REL * scale)

    t = 1e-6
    for _ in range(4):  # sigma_min is close to linear in a small t
        t *= ratio / set_tail(t)
    assert set_tail(t) == pytest.approx(ratio, rel=1e-6)
    expected = _kruskal_oracle(a)
    assert kruskal_rank(a) == expected
    if ratio < 1.0:
        assert expected == 2


# ---------------------------------------------------------------------------
# assumption report
# ---------------------------------------------------------------------------

def test_counterexample_satisfies_first_three_conditions():
    for rho in (0.0, 0.1, 0.3, 0.45):
        inst = build_counterexample(rho)
        report = certify(inst.endmembers, inst.abundances,
                         inst.spectral, inst.spatial).assumptions
        assert report.full_rank
        assert report.sparsity
        assert report.pure_pixels
        assert report.kruskal == 1


def test_dense_column_fails_sparsity():
    inst = build_counterexample(0.1)
    dense = inst.abundances.copy()
    dense[:, 0] = [0.4, 0.3, 0.3]
    report = certify(inst.endmembers, dense, inst.spectral, inst.spatial).assumptions
    assert not report.sparsity
    assert report.worst_support_pixel == 0
    assert report.worst_support_size == 3


def test_generated_dominant_scene_passes_everything():
    from hsrfusion import SceneConfig, build_spatial_response

    config = SceneConfig(sr_bands=80, ms_bands=4, materials=2, width=8, height=8,
                         factor=2, max_support=2, kernel="uniform", kernel_size=2,
                         seed=8)
    g = build_spatial_response(8, 8, kernel="uniform", kernel_size=2, factor=2)
    gen = generate_scene(config, g)
    report = certify(gen.scene.endmembers, gen.scene.abundances, gen.spectral, g).assumptions
    assert report.all_passed


# ---------------------------------------------------------------------------
# dominance probability
# ---------------------------------------------------------------------------

def test_dominance_probability_single_material():
    assert dominance_probability(1, 10).raw == 1.0


def test_dominance_probability_reference_value():
    result = dominance_probability(2, 64)
    assert result.raw == pytest.approx(1.0 - 2.0 * math.exp(-2.0), abs=1e-12)
    assert result.clamped == result.raw


def test_dominance_probability_clamps_negative():
    result = dominance_probability(6, 50)
    assert result.raw < 0.0
    assert result.clamped == 0.0


def test_monte_carlo_meets_analytic_floor_large_bands():
    trials = 10000
    result = dominance_monte_carlo(3, 500, trials, seed=3)
    analytic = dominance_probability(3, 500).clamped
    assert analytic == pytest.approx(1.0 - 6.0 * math.exp(-500.0 / 72.0), abs=1e-12)
    sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
    assert result.rate >= analytic - 3.0 * sigma


# ---------------------------------------------------------------------------
# diagonally dominant floor
# ---------------------------------------------------------------------------

def test_varah_identity():
    assert varah_lower_bound(np.eye(4)) == 1.0


def test_varah_matches_exact_smallest_singular_value():
    b = np.array([[1.0, 0.1], [0.1, 1.0]])
    assert varah_lower_bound(b) == pytest.approx(0.9, rel=1e-15)
    assert np.linalg.svd(b, compute_uv=False)[-1] == pytest.approx(0.9, rel=1e-12)


def test_varah_inapplicable_returns_none():
    assert varah_lower_bound(np.array([[0.0, 1.0], [1.0, 0.0]])) is None


def test_varah_non_square_raises():
    with pytest.raises(ValueError):
        varah_lower_bound(np.ones((2, 3)))


def _random_stochastic_small_offdiag(rng, n, cap):
    r = np.zeros((n, n))
    for j in range(n):
        off = rng.uniform(0.0, cap, size=n - 1)
        r[[i for i in range(n) if i != j], j] = off
        r[j, j] = 1.0 - off.sum()
    return r


def test_small_offdiagonal_stochastic_matrices_have_half_floor():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        r = _random_stochastic_small_offdiag(rng, n, 1.0 / (4.0 * n))
        idx = rng.permutation(n)[: rng.integers(1, n + 1)]
        sub = r[np.ix_(sorted(idx), sorted(idx))]
        assert np.linalg.svd(sub, compute_uv=False)[-1] >= 0.5
        assert varah_lower_bound(sub) >= 0.5


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

def _scene_and_solution(seed):
    from hsrfusion import build_spatial_response

    spatial = build_spatial_response(16, 16, kernel="uniform", kernel_size=2, factor=2)
    gen = generate_scene(desk_scene_config(seed=seed), spatial)
    y_ms = spectral_decimate(gen.spectral, gen.scene.image)
    y_hs = spatial_decimate(gen.scene.image, spatial)
    config = SolverConfig(materials=6, max_outer=3000, inner_steps=20,
                          rel_tol=1e-13, objective_floor=1e-24)
    solution = solve_coupled(y_ms, y_hs, gen.spectral, spatial, config)
    return gen, spatial, solution


def test_alignment_at_ground_truth_is_identity():
    inst = build_counterexample(0.2)
    decimated = spatial_decimate(inst.abundances, inst.spatial)
    report = extract_alignment(inst.endmembers, inst.endmembers, decimated, decimated)
    assert np.allclose(report.mixing, np.eye(3), atol=1e-12)
    assert report.max_offdiagonal <= 1e-12
    assert np.array_equal(report.permutation, np.arange(3))
    assert report.stochastic_pass
    assert report.consistency_residual <= 1e-12


def test_alignment_undoes_column_permutation():
    rng = np.random.default_rng(13)
    a = rng.uniform(0.1, 0.9, size=(9, 4))
    perm = np.array([2, 0, 3, 1])
    a_est = a[:, perm]
    s_dec = np.hstack([np.eye(4), rng.dirichlet(np.ones(4), size=3).T])
    s_est = np.linalg.solve(a_est.T @ a_est, a_est.T @ (a @ s_dec))
    report = extract_alignment(a, a_est, s_dec, s_est)
    permuted = report.permuted_mixing
    assert np.allclose(permuted, np.eye(4), atol=1e-9)
    assert report.max_offdiagonal <= 1e-9


def test_alignment_falls_back_to_hungarian_when_pivoting_fails():
    inst = build_counterexample(0.1)
    assert dominance_coefficient(inst.endmembers) < 0.9
    # Partial pivoting picks rows [0, 2, 1], leaving 0.9 off the diagonal;
    # the assignment [1, 0, 2] leaves at most 0.5.
    m = np.array([[0.5, 0.9, 0.0], [0.45, 0.0, 0.1], [0.05, 0.1, 0.9]])
    s_true = spatial_decimate(inst.abundances, inst.spatial)
    report = extract_alignment(inst.endmembers, inst.endmembers @ np.linalg.inv(m),
                               s_true, m @ s_true)
    assert report.method == "hungarian"
    assert report.permutation.tolist() == [1, 0, 2]
    assert report.max_offdiagonal == pytest.approx(0.5, abs=1e-12)
    assert not report.offdiagonal_pass


def test_alignment_on_noiseless_solution():
    gen, spatial, solution = _scene_and_solution(seed=55)
    s_true = spatial_decimate(gen.scene.abundances, spatial)
    s_est = spatial_decimate(solution.abundances, spatial)
    kruskal = kruskal_rank(gen.spectral @ gen.scene.endmembers)
    report = extract_alignment(gen.scene.endmembers, solution.endmembers,
                               s_true, s_est, kruskal=kruskal)
    assert report.stochastic_margin <= 1e-6
    assert report.offdiagonal_pass
    assert report.consistency_residual <= 1e-6


def test_solution_errors_stay_below_certificate_on_fully_valid_scene():
    # a scene where all four structural conditions genuinely hold
    from hsrfusion import SceneConfig, build_spatial_response

    config = SceneConfig(sr_bands=64, ms_bands=4, materials=2, width=8, height=8,
                         factor=2, max_support=2, kernel="uniform", kernel_size=2,
                         seed=77)
    spatial = build_spatial_response(8, 8, kernel="uniform", kernel_size=2, factor=2)
    gen = generate_scene(config, spatial)
    cert = certify(gen.scene.endmembers, gen.scene.abundances, gen.spectral, spatial)
    assert cert.assumptions.all_passed
    y_ms = spectral_decimate(gen.spectral, gen.scene.image)
    y_hs = spatial_decimate(gen.scene.image, spatial)
    solver_config = SolverConfig(materials=2, max_outer=2000, inner_steps=20,
                                 rel_tol=1e-13, objective_floor=1e-24)
    solution = solve_coupled(y_ms, y_hs, gen.spectral, spatial, solver_config)
    assert solution.objective_trace[-1] < 1e-8
    errors = np.linalg.norm(gen.scene.image - solution.reconstruction(), axis=0)
    assert (errors <= cert.pixel_bounds).all()


def test_alignment_rejects_singular_mixing():
    a = np.eye(3)
    degenerate = np.zeros((3, 3))
    degenerate[:, 0] = 1.0
    with pytest.raises(RuntimeError, match="singular"):
        extract_alignment(a, degenerate, np.eye(3), np.eye(3))


def test_principal_floor_full_range_and_restricted():
    r = np.diag([1.0, 0.5, 0.25])
    assert principal_floor(r) == pytest.approx(0.25, rel=1e-12)
    # sizes limited to n-1 .. n-1 when the rank budget is 1
    assert principal_floor(r, kruskal=1) == pytest.approx(0.25, rel=1e-12)


# ---------------------------------------------------------------------------
# per-pixel inequality chain
# ---------------------------------------------------------------------------

def test_bound_chain_at_ground_truth():
    inst = build_counterexample(0.05)
    decimated = spatial_decimate(inst.abundances, inst.spatial)
    alignment = extract_alignment(inst.endmembers, inst.endmembers,
                                  decimated, decimated, kruskal=1)
    cert = certify(inst.endmembers, inst.abundances, inst.spectral, inst.spatial)
    from hsrfusion.solver import Solution

    solution = Solution(
        endmembers=inst.endmembers, abundances=inst.abundances,
        objective_trace=np.zeros(1), iterations=0, termination="converged",
    )
    from hsrfusion.model import Scene

    scene = Scene.from_factors(inst.endmembers, inst.abundances)
    report = verify_abundance_error_bound(scene, solution, alignment, cert)
    assert report.applicable
    assert report.abundance_pass
    assert report.chain_pass
    assert report.abundance_error.max() <= 1e-12


def test_bound_chain_on_synthetic_mixing():
    # hand-built near-identity stochastic mixing applied to the truth
    rng = np.random.default_rng(19)
    inst = build_counterexample(0.2)
    rho = 0.03
    r = np.eye(3)
    for j in range(3):
        for i in range(3):
            if i != j:
                r[i, j] = rng.uniform(0.0, rho)
        r[j, j] = 1.0 - (r[:, j].sum() - r[j, j])
    a_est = inst.endmembers @ np.linalg.inv(r)
    s_est = r @ inst.abundances
    from hsrfusion.model import Scene
    from hsrfusion.solver import Solution

    scene = Scene.from_factors(inst.endmembers, inst.abundances)
    solution = Solution(endmembers=a_est, abundances=s_est,
                        objective_trace=np.zeros(1), iterations=0,
                        termination="converged")
    s_true_dec = spatial_decimate(inst.abundances, inst.spatial)
    s_est_dec = spatial_decimate(s_est, inst.spatial)
    alignment = extract_alignment(inst.endmembers, a_est, s_true_dec, s_est_dec, kruskal=1)
    cert = certify(inst.endmembers, inst.abundances, inst.spectral, inst.spatial)
    report = verify_abundance_error_bound(scene, solution, alignment, cert)
    assert report.applicable
    assert report.abundance_pass
    assert report.chain_pass


def test_bound_chain_reports_inapplicable_when_floor_vanishes():
    inst = build_counterexample(0.1)
    from hsrfusion.model import Scene
    from hsrfusion.solver import Solution

    scene = Scene.from_factors(inst.endmembers, inst.abundances)
    solution = Solution(endmembers=inst.endmembers, abundances=inst.abundances,
                        objective_trace=np.zeros(1), iterations=0,
                        termination="converged")
    cert = certify(inst.endmembers, inst.abundances, inst.spectral, inst.spatial)
    degenerate = AlignmentReport(
        mixing=np.eye(3), permutation=np.arange(3), permuted_mixing=np.eye(3),
        max_offdiagonal=0.0, submatrix_floor=0.0, min_singular=1.0,
        stochastic_pass=True, stochastic_margin=0.0, offdiagonal_pass=True,
        dominance=0.1, method="partial_pivoting", consistency_residual=0.0,
    )
    report = verify_abundance_error_bound(scene, solution, degenerate, cert)
    assert not report.applicable
