import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hsrfusion import (
    ExperimentConfig,
    SceneConfig,
    SolverConfig,
    add_noise,
    build_counterexample,
    build_spatial_response,
    feasible_family,
    generate_scene,
    objective,
    project_columns_to_simplex,
    solve_coupled,
    spa_initialize,
)
from hsrfusion import fileio, solver
from hsrfusion.experiment import run_trial
from hsrfusion.model import SpatialResponse, spatial_decimate, spectral_decimate, validate_spectral
from hsrfusion.solver import abundance_gradient, endmember_gradient
from conftest import (
    desk_scene_config,
    identity_response,
    random_simplex_columns,
    random_start,
    response_from_windows,
    started_at,
    to_dense,
)


def observe(gen, spatial):
    image = gen.scene.image
    return spectral_decimate(gen.spectral, image), spatial_decimate(image, spatial)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_zero_at_ground_truth(desk_spatial):
    gen = generate_scene(desk_scene_config(seed=21), desk_spatial)
    y_ms, y_hs = observe(gen, desk_spatial)
    val = objective(gen.scene.endmembers, gen.scene.abundances, y_ms, y_hs,
                    gen.spectral, desk_spatial)
    assert val <= 1e-22


def test_objective_zero_on_counterexample_family():
    inst = build_counterexample(0.2)
    y_ms, y_hs = inst.observations()
    a, s = feasible_family(inst, 0.2, 0.0)
    val = objective(a, s, y_ms, y_hs, inst.spectral, inst.spatial)
    assert val <= 1e-24


def test_objective_hand_arithmetic():
    # 1x1 toy: both residuals are 1 and 2, objective is 1 + 4
    f = np.array([[1.0]])
    a = np.array([[1.0]])
    s = np.array([[1.0]])
    g = identity_response(1)
    y_ms = np.array([[2.0]])
    y_hs = np.array([[3.0]])
    assert objective(a, s, y_ms, y_hs, f, g) == pytest.approx(5.0, abs=0)


@pytest.mark.parametrize("seed", range(5))
def test_objective_equals_the_explicit_formula(seed, desk_spatial):
    # the solver evaluates the MS term as (F A) S and the HS term as A (S G)
    rng = np.random.default_rng(seed)
    f = rng.uniform(size=(6, 50))
    a = rng.uniform(size=(50, 6))
    s = random_simplex_columns(rng, 6, desk_spatial.sr_pixel_count)
    y_ms = rng.uniform(size=(6, desk_spatial.sr_pixel_count))
    y_hs = rng.uniform(size=(50, desk_spatial.hs_pixel_count))
    explicit = (np.sum((y_ms - f @ (a @ s)) ** 2)
                + np.sum((y_hs - (a @ s) @ to_dense(desk_spatial)) ** 2))
    assert abs(objective(a, s, y_ms, y_hs, f, desk_spatial) - explicit) <= 1e-12 * explicit


def test_objective_dimension_mismatch():
    with pytest.raises(ValueError):
        objective(np.ones((2, 2)), np.ones((3, 4)) / 3, np.ones((1, 4)),
                  np.ones((2, 4)), np.ones((1, 2)), identity_response(4))


def test_an_ms_band_count_that_f_does_not_produce_is_rejected():
    inst = build_counterexample(0.2)
    y_ms, y_hs = inst.observations()
    y_ms = np.vstack([y_ms, y_ms])  # two MS bands; F has one row
    with pytest.raises(ValueError, match=r"^\[shape\] spectral/y_ms: spectral has 1 ms_bands, y_ms has 2$"):
        solve_coupled(y_ms, y_hs, inst.spectral, inst.spatial, SolverConfig(materials=3))


@pytest.mark.parametrize("spectral, message", [
    ([[1.0, -1.0, 1.0]],
     "[spectral_nonnegative] entry (0, 1): negative weight -1 (magnitude 1.000e+00)"),
    (np.full((4, 3), 1.0 / 3),
     "[spectral_size] matrix: ms_bands 4 must be < bands 3 (magnitude 2.000e+00)"),
], ids=["negative-weight", "more-ms-bands-than-bands"])
def test_a_spectral_response_failing_validation_is_rejected_before_solving(spectral, message):
    # The observations are F's own, so every axis agrees and only
    # validate_spectral can refuse F.
    inst = build_counterexample(0.2)
    image = inst.endmembers @ inst.abundances
    y_ms, y_hs = spectral_decimate(spectral, image), spatial_decimate(image, inst.spatial)
    with pytest.raises(ValueError) as error:
        solve_coupled(y_ms, y_hs, spectral, inst.spatial, SolverConfig(materials=3, max_outer=5))
    assert str(error.value) == message


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------

def _project_one(v):
    """The projection of one vector, as a one-column matrix."""
    return project_columns_to_simplex(v[:, None])[:, 0]


def test_project_simplex_fixed_point():
    v = np.array([0.5, 0.5])
    assert np.allclose(_project_one(v), v, atol=0)


def test_project_simplex_vertex():
    assert np.allclose(_project_one(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-15)


def test_project_simplex_interior_shift():
    # KKT: shift both coordinates by the same theta with none clipped
    assert np.allclose(_project_one(np.array([0.4, 0.2])), [0.6, 0.4], atol=1e-15)


def test_project_simplex_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(scale=2.0, size=rng.integers(1, 9))
        once = _project_one(v)
        twice = _project_one(once)
        assert np.allclose(once, twice, atol=1e-14)
        assert once.min() >= 0.0
        assert once.sum() == pytest.approx(1.0, abs=1e-12)


def _bisection_projection(v, iters=200):
    # independent oracle: the projection is max(v - theta, 0) at the theta
    # where the clipped sum equals one; that sum is decreasing in theta
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def test_project_simplex_matches_bisection_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        v = rng.normal(scale=3.0, size=rng.integers(2, 12))
        assert np.abs(_project_one(v) - _bisection_projection(v)).max() <= 1e-10


def test_project_simplex_rejects_empty():
    with pytest.raises(ValueError):
        _project_one(np.array([]))


def test_project_columns_matches_single_vector():
    rng = np.random.default_rng(23)
    v = rng.normal(size=(5, 7))
    cols = project_columns_to_simplex(v)
    for j in range(7):
        assert np.allclose(cols[:, j], _project_one(v[:, j]), atol=1e-14)


def _axis0_projection(v):
    # the formula as it ran along the strided axis 0 of the columns
    n = v.shape[0]
    u = np.sort(v, axis=0)[::-1]
    partial = (np.cumsum(u, axis=0) - 1.0) / np.arange(1, n + 1)[:, None]
    active = u - partial > 0.0
    k = n - 1 - np.argmax(active[::-1], axis=0)
    theta = partial[k, np.arange(v.shape[1])]
    return np.maximum(v - theta[None, :], 0.0)


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 40)),
              elements=st.floats(-1e6, 1e6)))
def test_project_columns_equals_the_axis0_formula(v):
    before = v.copy()
    assert np.array_equal(project_columns_to_simplex(v), _axis0_projection(v))
    assert np.array_equal(v, before)


def _sort_cumsum_argmax_projection(v):
    # the vectorised formula along axis 1 of v^T: cumsum over every sorted
    # entry, then argmax for the last active index
    n = v.shape[0]
    u = np.sort(v.T, axis=1)[:, ::-1]
    partial = (np.cumsum(u, axis=1) - 1.0) / np.arange(1, n + 1)
    active = u - partial > 0.0
    k = n - 1 - np.argmax(active[:, ::-1], axis=1)
    theta = partial[np.arange(v.shape[1]), k]
    return np.maximum(v - theta, 0.0)


@pytest.mark.parametrize("shape, first_kind", [((6, 1), 0), ((6, 1), 1), ((6, 1), 2),
                                               ((6, 4096), 0), ((12, 16384), 0)],
                         ids=["6x1-ties", "6x1-huge", "6x1-plain", "6x4096", "12x16384"])
def test_projection_is_the_sort_cumsum_argmax_formula_at_solver_sizes(shape, first_kind):
    # The hypothesis draws stop at 40 columns; these are the sizes a solve
    # hands over, from a single fallback column to every pixel of a scene.
    # Columns cycle through three kinds: ties (quarter steps), entries of
    # 2^53 and more (where u - 1 == u), and plain normal draws.
    rng = np.random.default_rng(shape[1])
    v = rng.normal(scale=2.0, size=shape)
    kind = (np.arange(shape[1]) + first_kind) % 3
    v[:, kind == 0] = np.round(4.0 * v[:, kind == 0]) / 4.0
    v[:, kind == 1] *= 2.0 ** 60
    for layout in (np.asfortranarray(v), np.ascontiguousarray(v)):
        assert np.array_equal(project_columns_to_simplex(layout),
                              _sort_cumsum_argmax_projection(layout))


@st.composite
def projection_inputs(draw):
    """n x m columns, n in 1..12, single columns often, in C or F order.
    Rounded entries put ties among a column's values; entries of 2^53 and
    more make u - 1 == u, so that no index is active."""
    shape = (draw(st.integers(1, 12)), draw(st.one_of(st.just(1), st.integers(1, 40))))
    elements = draw(st.sampled_from([st.integers(-8, 8).map(lambda k: k / 4),
                                     st.floats(-1e6, 1e6),
                                     st.floats(-1e300, 1e300)]))
    v = draw(arrays(float, shape, elements=elements))
    return np.asfortranarray(v) if draw(st.booleans()) else v


@settings(max_examples=300, deadline=None)
@given(projection_inputs())
def test_projection_is_the_sort_cumsum_argmax_formula_and_meets_kkt(v):
    before = v.copy()
    x = project_columns_to_simplex(v)
    assert np.array_equal(x, _sort_cumsum_argmax_projection(v))
    assert np.array_equal(v, before)
    # KKT, where the values leave room for rounding: x on the simplex,
    # v - x equal to one theta on the support and at most theta off it
    if np.abs(v).max() > 1e6:
        return
    n = v.shape[0]
    tol = 1e-13 * n * max(1.0, float(np.abs(v).max()))
    assert x.min() >= 0.0
    assert np.abs(x.sum(axis=0) - 1.0).max() <= tol
    for vj, xj in zip(v.T, x.T):
        support = xj > 0.0
        gap = vj - xj
        theta = gap[support].mean()
        assert np.abs(gap[support] - theta).max() <= tol
        assert np.all(vj[~support] <= theta + tol)


@st.composite
def projections_with_guesses(draw):
    """projection_inputs with a support guess per column: the right one, a
    drawn one (mostly wrong), none or all."""
    v = draw(projection_inputs())
    right = project_columns_to_simplex(v) > 0.0
    drawn = draw(arrays(bool, v.shape))
    kind = draw(arrays(np.int8, v.shape[1], elements=st.integers(0, 3)))
    return v, np.where(kind == 0, right, np.where(kind == 1, drawn, kind == 3))


@settings(max_examples=300, deadline=None)
@given(projections_with_guesses())
def test_support_verified_projection_is_the_sort_projection_within_4_ulp(case):
    v, guess = case
    guess = np.ascontiguousarray(guess.T)  # one row per column of v
    before, guess_before = v.copy(), guess.copy()
    count = guess.sum(axis=1)
    x, support = solver._project_on_support(v, guess, count)
    assert np.array_equal(v, before) and np.array_equal(guess, guess_before)
    assert x.T.flags.c_contiguous  # pixel-major, whatever the layout of v
    assert np.array_equal(support, x.T > 0.0) and support.flags.c_contiguous
    assert np.array_equal(count, support.sum(axis=1))
    ulp = np.spacing(np.maximum(1.0, np.abs(v).max(axis=0)))
    assert np.all(np.abs(x - project_columns_to_simplex(v)) <= 4.0 * ulp)
    # the KKT half of the exact formula's test
    if np.abs(v).max() > 1e6:
        return
    n = v.shape[0]
    tol = 1e-13 * n * max(1.0, float(np.abs(v).max()))
    assert x.min() >= 0.0
    assert np.abs(x.sum(axis=0) - 1.0).max() <= tol
    for vj, xj in zip(v.T, x.T):
        on = xj > 0.0
        gap = vj - xj
        theta = gap[on].mean()
        assert np.abs(gap[on] - theta).max() <= tol
        assert np.all(vj[~on] <= theta + tol)


# ---------------------------------------------------------------------------
# successive projection initialization
# ---------------------------------------------------------------------------

def test_spa_recovers_distinct_pure_columns():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.1, 0.9, size=(20, 5))
    picked = spa_initialize(a, 5)
    # same column set, any order
    found = {tuple(np.round(picked[:, i], 12)) for i in range(5)}
    expected = {tuple(np.round(a[:, i], 12)) for i in range(5)}
    assert found == expected


def test_spa_ignores_duplicate_columns():
    rng = np.random.default_rng(6)
    a = rng.uniform(0.1, 0.9, size=(10, 3))
    duplicated = np.concatenate([a, a[:, [0, 1]]], axis=1)
    base = spa_initialize(a, 3)
    extra = spa_initialize(duplicated, 3)
    assert {tuple(np.round(base[:, i], 12)) for i in range(3)} == \
           {tuple(np.round(extra[:, i], 12)) for i in range(3)}


def test_spa_single_pick_is_max_norm():
    y = np.array([[0.1, 0.9, 0.3], [0.0, 0.2, 0.1]])
    picked = spa_initialize(y, 1)
    assert np.allclose(picked[:, 0], y[:, 1], atol=0)


def test_spa_rank_collapse():
    y = np.outer(np.ones(4), np.ones(3))
    with pytest.raises(RuntimeError, match="rank collapse"):
        spa_initialize(y, 2)


# ---------------------------------------------------------------------------
# coupled solve
# ---------------------------------------------------------------------------

def test_warm_start_at_ground_truth_terminates_immediately(desk_spatial):
    gen = generate_scene(desk_scene_config(seed=31), desk_spatial)
    y_ms, y_hs = observe(gen, desk_spatial)
    config = SolverConfig(materials=6, max_outer=50)
    with started_at(gen.scene.endmembers, gen.scene.abundances):
        solution = solve_coupled(y_ms, y_hs, gen.spectral, desk_spatial, config)
    assert solution.objective_trace[0] <= 1e-22
    assert solution.objective_trace[-1] <= 1e-22
    assert solution.iterations == 1


def test_noiseless_solve_reaches_numerical_zero(desk_spatial):
    gen = generate_scene(desk_scene_config(seed=32), desk_spatial)
    y_ms, y_hs = observe(gen, desk_spatial)
    config = SolverConfig(materials=6, max_outer=2000, inner_steps=20,
                          rel_tol=1e-13, objective_floor=1e-24)
    solution = solve_coupled(y_ms, y_hs, gen.spectral, desk_spatial, config)
    assert solution.objective_trace[-1] < 1e-8


def test_trace_non_increasing_and_feasible(desk_spatial):
    gen = generate_scene(desk_scene_config(seed=33), desk_spatial)
    y_ms, y_hs = observe(gen, desk_spatial)
    from hsrfusion import add_noise
    y_ms = add_noise(y_ms, 20.0, seed=1)
    y_hs = add_noise(y_hs, 20.0, seed=2)
    config = SolverConfig(materials=6, max_outer=60, inner_steps=5, rel_tol=1e-12)
    solution = solve_coupled(y_ms, y_hs, gen.spectral, desk_spatial, config)
    trace = solution.objective_trace
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(trace[:-1], 1.0))
    assert solution.endmembers.min() >= 0.0
    assert solution.endmembers.max() <= 1.0
    assert solution.abundances.min() >= 0.0
    assert np.abs(solution.abundances.sum(axis=0) - 1.0).max() <= 1e-12


def test_solver_determinism(desk_spatial):
    gen = generate_scene(desk_scene_config(seed=34), desk_spatial)
    y_ms, y_hs = observe(gen, desk_spatial)
    config = SolverConfig(materials=6, max_outer=40, inner_steps=5, rel_tol=1e-12)
    first = solve_coupled(y_ms, y_hs, gen.spectral, desk_spatial, config)
    second = solve_coupled(y_ms, y_hs, gen.spectral, desk_spatial, config)
    assert np.array_equal(first.endmembers, second.endmembers)
    assert np.array_equal(first.abundances, second.abundances)
    assert np.array_equal(first.objective_trace, second.objective_trace)


def test_a_step_cap_no_pass_reaches_allocates_nothing_and_changes_nothing(desk_spatial):
    # A pass computes each FISTA factor as it goes, so its cap is only a bound:
    # 10**400, more than a list can hold, solves as a cap of 1000 does.
    gen = generate_scene(desk_scene_config(seed=0), desk_spatial)
    y_ms, y_hs = observe(gen, desk_spatial)
    problem = (add_noise(y_ms, 30.0, seed=1), add_noise(y_hs, 30.0, seed=2), gen.spectral,
               desk_spatial)
    capped, uncapped = (solve_coupled(*problem, SolverConfig(materials=6, max_outer=3,
                                                             inner_steps=steps))
                        for steps in (1000, 10**400))
    assert all(block["steps"] < 1000 for block in capped.stats.values())
    assert capped.stats == uncapped.stats
    assert np.array_equal(capped.endmembers, uncapped.endmembers)
    assert np.array_equal(capped.abundances, uncapped.abundances)
    assert np.array_equal(capped.objective_trace, uncapped.objective_trace)


# The benchmark's desk solver config.
_DESK_CONFIG = SolverConfig(materials=6, max_outer=500, inner_steps=15,
                            rel_tol=1e-11, objective_floor=1e-20)


def _criterion_8_solve(spatial, snr_db):
    gen = generate_scene(desk_scene_config(seed=0), spatial)
    y_ms, y_hs = observe(gen, spatial)
    if snr_db is not None:
        y_ms = add_noise(y_ms, snr_db, seed=1)
        y_hs = add_noise(y_hs, snr_db, seed=2)
    return solve_coupled(y_ms, y_hs, gen.spectral, spatial, _DESK_CONFIG)


def _work_ledger(solve):
    """[iterations, restarts, termination, columns sent to the sort projection,
    per-block steps and fallbacks from Solution.stats, final objective] of
    ``solve()``."""
    real = solver.project_columns_to_simplex
    columns = 0

    def counted(v):
        nonlocal columns
        columns += v.shape[1]
        return real(v)

    solver.project_columns_to_simplex = counted
    try:
        solution = solve()
    finally:
        solver.project_columns_to_simplex = real
    return [solution.iterations, solution.restarts, solution.termination, columns,
            solution.stats, float(solution.objective_trace[-1])]


def _desk_work_ledger():
    """The bench's desk solve of scene seed 0 at 35 dB."""
    return _work_ledger(lambda: _criterion_8_solve(
        build_spatial_response(16, 16, kernel="uniform", kernel_size=2, factor=2), 35.0))


def _gaussian_64_work_ledger():
    """The bench's scene-64 solver config, a 20-iteration budget, on a 64x64
    Gaussian-kernel scene at 30 dB."""
    return _work_ledger(lambda: solve_coupled(*_gaussian_64_problem(seed=0),
                                              SolverConfig(materials=6, max_outer=20)))


def _check_work_ledger(name, pinned):
    """The ledger, but for its objective, is ``pinned``, in this process and in
    subprocesses with OPENBLAS_NUM_THREADS unset and at 1, and its objective
    is the same to the last bit in all three."""
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import test_solver; "
              f"print(json.dumps(test_solver.{name}()))")
    unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    ledgers = [globals()[name]()]
    for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"}):
        proc = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                              capture_output=True, text=True, env=env, check=True)
        ledgers.append(json.loads(proc.stdout))
    for ledger in ledgers:
        assert ledger[:-1] == pinned
        assert ledger[-1] == ledgers[0][-1]


def _blocks(a_passes, a_steps, s_passes, s_steps):
    return {"endmembers": {"passes": a_passes, "steps": a_steps, "fallbacks": 0},
            "abundances": {"passes": s_passes, "steps": s_steps, "fallbacks": 0}}


# The solver's exact work on fixed problems. A change that moves these
# numbers changes the solver's work, and says by how much and why.
_DESK_WORK_LEDGER = [28, 2, "converged", 3586, _blocks(28, 89, 28, 214)]
_GAUSSIAN_64_WORK_LEDGER = [20, 2, "max_iterations", 38559, _blocks(20, 145, 20, 185)]


def test_the_desk_work_ledger_is_pinned_and_independent_of_blas_threads():
    _check_work_ledger("_desk_work_ledger", _DESK_WORK_LEDGER)


def test_the_64_work_ledger_is_pinned_and_independent_of_blas_threads():
    _check_work_ledger("_gaussian_64_work_ledger", _GAUSSIAN_64_WORK_LEDGER)


def test_noisy_desk_solve_converges_with_momentum_restarts(desk_spatial):
    solution = _criterion_8_solve(desk_spatial, 25.0)
    assert solution.termination == "converged"
    assert solution.iterations < 500
    assert solution.restarts >= 1


def test_noiseless_desk_solve_stops_after_one_iteration_without_restarts(desk_spatial):
    solution = _criterion_8_solve(desk_spatial, None)
    assert solution.termination == "objective_floor"
    assert solution.iterations == 1
    assert solution.restarts == 0


def test_the_stationarity_stop_keeps_each_mse_and_saves_a_third_of_the_iterations(
        desk_spatial, monkeypatch):
    # Desk scenes 0-3 at 25 dB with the benchmark's desk config, solved with
    # the stop and, with its threshold at 0, to rel_tol alone.
    problems = []
    for seed in range(4):
        gen = generate_scene(desk_scene_config(seed=seed), desk_spatial)
        y_ms, y_hs = observe(gen, desk_spatial)
        problems.append((gen.scene.image, (add_noise(y_ms, 25.0, seed=1),
                                           add_noise(y_hs, 25.0, seed=2),
                                           gen.spectral, desk_spatial)))

    def solves():
        out = []
        for image, problem in problems:
            solution = solve_coupled(*problem, _DESK_CONFIG)
            out.append((solution, np.mean((image - solution.reconstruction()) ** 2)))
        return out

    stopped = solves()
    monkeypatch.setattr(solver, "_STATIONARY", 0.0)
    full = solves()
    for (solution, mse), (_, full_mse) in zip(stopped, full):
        assert solution.termination == "converged"
        assert solution.stationarity <= 1e-4
        assert mse <= 1.01 * full_mse
    assert 1.5 * sum(s.iterations for s, _ in stopped) <= sum(s.iterations for s, _ in full)


def _no_counts():
    return {"passes": 0, "steps": 0, "fallbacks": 0}


@pytest.mark.parametrize("scene", ["desk", "gaussian-64"])
def test_a_pass_measures_the_gradient_mapping_at_its_start(scene, desk_spatial):
    # |X - P(X - t grad f(X))| / t per block at the pass's step t, P the
    # block's projection, from the public gradients, projection and a clip; a
    # pass whose FISTA and plain attempts are both refused keeps X and still
    # reports it.
    if scene == "desk":
        gen = generate_scene(desk_scene_config(seed=38), desk_spatial)
        problem = (*observe(gen, desk_spatial), gen.spectral, desk_spatial)
    else:
        problem = _gaussian_64_problem(seed=4)
    rng = np.random.default_rng(8)
    a = rng.uniform(size=(problem[1].shape[0], 6))
    s = np.asfortranarray(random_simplex_columns(rng, 6, problem[3].sr_pixel_count))
    inner = solver._Problem(*problem)
    blocks = [(a, inner.endmember_pass(s), endmember_gradient(a, s, *problem),
               lambda: solver._clip_to_box, lambda v: np.clip(v, 0.0, 1.0)),
              (s, inner.abundance_pass(a), abundance_gradient(a, s, *problem),
               lambda: solver._support_projection(s), project_columns_to_simplex)]
    for x, block, gradient, projection, reference in blocks:
        step_map, lipschitz, evaluate = block
        step = solver._STEP / lipschitz
        expected = np.linalg.norm(x - reference(x - step * gradient)) / step
        for f_start, fallbacks in ((evaluate(x), 0), (-math.inf, 1)):
            counts = _no_counts()
            x_new, _, mapping = solver._descend(x, block, projection(), f_start, 3, counts)
            assert abs(mapping - expected) <= 1e-12 * expected
            assert counts["fallbacks"] == fallbacks and (x_new is x) == bool(fallbacks)


def _a_pass(x, move, steps, accelerate):
    """solver._descend on a block whose step map is ``move`` at every step
    size, with L = 1: its FISTA attempt is kept if ``accelerate``, else its
    objective rises and the pass is redone with plain steps. Returns the new
    iterate, the gradient mapping, the counts and each attempt's outputs,
    one per step."""
    attempts = [[]]
    values = iter([0.5] if accelerate else [2.0, 0.5])

    def recorded(v):
        attempts[-1].append(v)
        return v

    def evaluate(v):
        attempts.append([])
        return next(values)

    counts = _no_counts()
    x_new, _, mapping = solver._descend(x, (lambda t: move, 1.0, evaluate), recorded, 1.0,
                                        steps, counts)
    return x_new, mapping, counts, attempts[:-1]


@pytest.mark.parametrize("accelerate", [True, False])
def test_a_pass_takes_its_first_step_and_never_more_than_steps(accelerate):
    x = np.zeros((2, 3))
    # A constant drift never stalls: every step is as long as the first, or longer.
    for steps in range(1, 7):
        _, _, counts, attempts = _a_pass(x, lambda y: y + 1.0, steps, accelerate)
        assert [len(outputs) for outputs in attempts] == [steps] * (2 - accelerate)
        assert counts["steps"] == steps * (2 - accelerate)
    # At a fixed point the first step, of length 0, is taken and ends the pass.
    for steps in (1, 5):
        _, mapping, _, attempts = _a_pass(x, lambda y: y.copy(), steps, accelerate)
        assert [len(outputs) for outputs in attempts] == [1] * (2 - accelerate)
        assert mapping == 0.0
    assert np.array_equal(x, np.zeros((2, 3)))


@pytest.mark.parametrize("rate", [0.5, 0.7, 0.9])
def test_a_plain_pass_ends_at_the_first_step_at_most_stall_times_the_first(rate):
    # y -> rate y moves step k by rate^(k-1) times the first step's length, so
    # the pass ends at the first k > 1 with rate^(k-1) <= _STALL.
    expected = 1 + next(k for k in range(1, 100) if rate ** k <= solver._STALL)
    x = np.ones((2, 3))
    x_new, _, _, attempts = _a_pass(x, lambda y: rate * y, 20, False)
    assert len(attempts[-1]) == expected
    assert np.allclose(x_new, rate ** expected)
    _, _, _, attempts = _a_pass(x, lambda y: rate * y, expected - 1, False)
    assert len(attempts[-1]) == expected - 1  # the cap ends it first


def test_a_plain_fallback_pass_follows_the_stall_rule():
    # The FISTA pass's output is refused, so _descend redoes the pass with
    # plain steps, which stall as a plain pass does.
    rate, x = 0.5, np.ones((2, 3))
    counts = _no_counts()
    project, outputs = _counting()
    values = iter([2.0, 0.5])
    x_new, f_new, _ = solver._descend(x, (lambda t: lambda y: rate * y, 1.0,
                                          lambda v: next(values)), project, 1.0, 10, counts)
    plain = 1 + next(k for k in range(1, 100) if rate ** k <= solver._STALL)
    assert counts == {"passes": 1, "steps": len(outputs), "fallbacks": 1}
    assert x_new is outputs[-1] and f_new == 0.5
    assert np.allclose(x_new, rate ** plain) and len(outputs) - plain >= 2


def test_a_pass_ends_at_its_first_step_of_rounding_length():
    # y -> y + 1e-16 moves each entry of 1/2 by one ulp, eps / 2, at every
    # step, so it never stalls; that length is rounding, and ends the pass at
    # its first step.
    x = np.full((3, 5), 0.5)
    _, mapping, _, attempts = _a_pass(x, lambda y: y + 1e-16, 10, True)
    assert [len(outputs) for outputs in attempts] == [1]
    assert 0.0 < mapping <= np.finfo(float).eps * math.sqrt(x.size)
    # Four ulps per entry are more than rounding: the pass runs to the cap.
    _, _, counts, _ = _a_pass(x, lambda y: y + 4e-16, 10, True)
    assert counts["steps"] == 10


def test_a_noiseless_solve_ends_its_rounding_level_passes_early(monkeypatch):
    # The noiseless 8x8 sweep trial's endmember passes step by rounding alone
    # once the fit is exact; they end at once instead of running to the cap,
    # so a cap of 10**4 costs what the default's does.
    config = fileio.config_from_dict(ExperimentConfig, {
        "scene": {"sr_bands": 30, "ms_bands": 4, "materials": 3, "width": 8, "height": 8,
                  "factor": 2, "max_support": 2},
        "snr_db": [math.inf], "trials": 1, "solver": {"materials": 3, "inner_steps": 10**4}})
    solutions = []
    real = solver.solve_coupled

    def solve(*args):
        solutions.append(real(*args))
        return solutions[-1]

    monkeypatch.setattr(solver, "solve_coupled", solve)
    run_trial(config, config.scene.spatial_response(), math.inf, 0, 0)
    (solution,) = solutions
    assert solution.termination == "converged"
    assert solution.stats["endmembers"]["steps"] < 100
    assert solution.stats["abundances"]["steps"] < 100


@pytest.mark.parametrize("seed", range(3))
def test_a_noiseless_64_solve_ends_its_rounding_level_passes_early(seed):
    # The scene-64 benchmark's scene, noiseless, with a cap of 10**4 steps per
    # pass: once the fit is exact a FISTA pass steps by rounding, which its
    # momentum carries from step to step, so a pass that waited for a fixed
    # rounding level would run to the cap.
    solution = solve_coupled(*_gaussian_64_problem(seed, snr_db=None),
                             SolverConfig(materials=6, inner_steps=10**4))
    assert solution.termination == "converged"
    assert solution.iterations <= 10
    for block in solution.stats.values():
        assert block["steps"] < 200


@pytest.mark.parametrize("step_times_curvature, bounded", [(4.0 / 3.0, True), (1.5, False)])
def test_fista_on_one_curvature_mode_is_stable_at_four_thirds_of_one_over_l(
        step_times_curvature, bounded):
    # On a mode of curvature lambda, f = lambda x^2 / 2, a FISTA step is x+ =
    # (1 - t lambda) y, y = x + beta (x - x_prev). It is stable exactly when
    # t lambda < 2 (1 + beta) / (1 + 2 beta), which falls to 4/3 as beta -> 1:
    # a step of 4/(3L), the solver's, is the longest that no mode with
    # lambda <= L can make grow.
    keep = 1.0 - step_times_curvature
    x = y = 1.0
    t = 1.0
    peak = 0.0
    for _ in range(10**4):
        x_last, x = x, keep * y
        peak = max(peak, abs(x))
        if peak > 1e6:
            break
        t, beta = solver._momentum(t)
        y = x + beta * (x - x_last)
    assert (peak <= 1.0, peak > 1e6) == (bounded, not bounded)
    assert solver._STEP == 4.0 / 3.0


def _counting(project=lambda v: v):
    """A projection that records its outputs, one per step."""
    outputs = []

    def counted(v):
        outputs.append(project(v))
        return outputs[-1]

    return counted, outputs


def _watch_attempts(monkeypatch, snapshot=lambda: None):
    """Patch solver._descend to record each attempt of every block pass, the
    FISTA one and a plain redo, as [start point, step cap, outputs of its
    steps, snapshot() at its start and after each step], and to check that
    no attempt writes into the start point."""
    real = solver._descend
    attempts = []

    def descend(x, block, project, f_start, steps, counts):
        step_map, lipschitz, evaluate = block
        start = x.copy()

        def begin():
            attempts.append((start, steps, [], [snapshot()]))

        def recorded(v):
            attempts[-1][2].append(project(v))
            attempts[-1][3].append(snapshot())
            return attempts[-1][2][-1]

        def evaluated(v):
            value = evaluate(v)
            begin()
            return value

        begin()
        result = real(x, (step_map, lipschitz, evaluated), recorded, f_start, steps, counts)
        attempts.pop()  # begun after the last evaluation, or for a flat block; never run
        assert np.array_equal(x, start)
        return result

    monkeypatch.setattr(solver, "_descend", descend)
    return attempts


def test_every_solver_pass_ends_at_its_first_stalled_step_or_at_the_cap(desk_spatial,
                                                                         monkeypatch):
    # On the benchmark's desk config, each block pass's step lengths
    # |x_k - x_k-1|: all after the first are above _STALL times the first's,
    # but the last, which is at most that or the cap's.
    passes = _watch_attempts(monkeypatch)
    solution = _criterion_8_solve(desk_spatial, 25.0)
    stalled = 0
    for x, steps, outputs, _ in passes:
        lengths = np.linalg.norm(np.diff([x, *outputs], axis=0), axis=(1, 2))
        ratios = lengths[1:] / lengths[0]
        assert 1 <= len(outputs) <= steps
        assert np.all(ratios[:-1] > solver._STALL * (1.0 - 1e-9))
        if len(outputs) < steps:
            stalled += 1
            assert ratios[-1] <= solver._STALL * (1.0 + 1e-9)
    steps_taken = sum(block["steps"] for block in solution.stats.values())
    assert steps_taken == sum(len(outputs) for _, _, outputs, _ in passes)
    assert stalled >= len(passes) // 2


def test_an_overshooting_fista_pass_falls_back_to_plain_steps(desk_spatial, monkeypatch):
    # Tenfold FISTA factors (the first step's stays 0) overshoot: block passes
    # raise the objective and are redone from their start point with plain
    # steps, and inertial steps are rejected.
    gen = generate_scene(desk_scene_config(seed=33), desk_spatial)
    y_ms, y_hs = observe(gen, desk_spatial)
    y_ms = add_noise(y_ms, 20.0, seed=1)
    y_hs = add_noise(y_hs, 20.0, seed=2)
    real_momentum = solver._momentum

    def overshoot(t):
        t_next, beta = real_momentum(t)
        return t_next, 10.0 * beta

    monkeypatch.setattr(solver, "_momentum", overshoot)
    _watch_attempts(monkeypatch)  # which checks that no attempt writes into x
    config = SolverConfig(materials=6, max_outer=40, inner_steps=5, rel_tol=1e-12)
    solution = solve_coupled(y_ms, y_hs, gen.spectral, desk_spatial, config)
    assert sum(block["fallbacks"] for block in solution.stats.values()) >= 10
    trace = solution.objective_trace
    assert np.all(trace[1:] <= trace[:-1] * (1.0 + 1e-12) ** 2 + 2e-300)
    assert solution.endmembers.min() >= 0.0
    assert solution.endmembers.max() <= 1.0
    assert solution.abundances.min() >= 0.0
    assert np.abs(solution.abundances.sum(axis=0) - 1.0).max() <= 1e-12


def test_an_accepted_inertial_step_hands_over_its_s_g(desk_spatial, monkeypatch):
    real_pass = solver._Problem.endmember_pass
    handed = []

    def check(self, s, sg=None):
        if sg is not None:
            handed.append(np.array_equal(sg, self.g.apply(s)))
        return real_pass(self, s, sg)

    monkeypatch.setattr(solver._Problem, "endmember_pass", check)
    solution = _criterion_8_solve(desk_spatial, 25.0)
    assert len(handed) > solution.iterations // 2
    assert all(handed)


def _gaussian_64_problem(seed, snr_db=30.0):
    """A 64x64 scene, factor 4, Gaussian kernel 6, observed at ``snr_db``
    (None: noiseless)."""
    spatial = build_spatial_response(64, 64, kernel="gaussian", kernel_size=6, factor=4)
    gen = generate_scene(SceneConfig(sr_bands=50, ms_bands=6, materials=6, width=64, height=64,
                                     factor=4, max_support=3, kernel="gaussian", kernel_size=6,
                                     seed=seed, require_dominance=False), spatial)
    y_ms, y_hs = observe(gen, spatial)
    if snr_db is not None:
        y_ms, y_hs = add_noise(y_ms, snr_db, seed=1), add_noise(y_hs, snr_db, seed=2)
    return y_ms, y_hs, gen.spectral, spatial


def _power_norm(hessian, shape, rng, iterations=300):
    """Power-iteration estimate of |H|_2 for a symmetric PSD map H: a
    Rayleigh quotient, so it never exceeds the norm."""
    x = rng.standard_normal(shape)
    for _ in range(iterations):
        y = hessian(x)
        estimate = np.sum(x * y) / np.sum(x * x)
        x = y / np.linalg.norm(y)
    return estimate


@pytest.mark.parametrize("scene, seed", [("desk", 40), ("desk", 41), ("desk", 42),
                                         ("gaussian-64", 0), ("gaussian-64", 1)])
def test_each_block_lipschitz_constant_bounds_its_hessian_norm(scene, seed, desk_spatial,
                                                               monkeypatch):
    # The descent lemma then lets a plain 1/L pass raise the objective only
    # by roundoff, which is why a block pass needs no smaller step. S moves
    # only along the simplex's tangent space (columns summing to zero), so its
    # Hessian is measured there, restricted by centring every column.
    if scene == "desk":
        gen = generate_scene(desk_scene_config(seed=seed), desk_spatial)
        y_ms, y_hs = observe(gen, desk_spatial)
        problem = (add_noise(y_ms, 25.0, seed=1), add_noise(y_hs, 25.0, seed=2),
                   gen.spectral, desk_spatial)
    else:
        problem = _gaussian_64_problem(seed)
    f, g = problem[2], to_dense(problem[3])
    blocks = []
    real_a, real_s = solver._Problem.endmember_pass, solver._Problem.abundance_pass

    def endmember_pass(self, s, sg=None):
        out = real_a(self, s, sg)
        sst, sg_sgt = s @ s.T, (s @ g) @ (s @ g).T
        blocks.append((lambda d: 2.0 * (f.T @ f @ d @ sst + d @ sg_sgt), (f.shape[1], len(s)),
                       out[1]))
        return out

    def abundance_pass(self, a):
        out = real_s(self, a)
        fatfa, ata = (f @ a).T @ (f @ a), a.T @ a

        def hessian(e):
            e = e - e.mean(axis=0)
            e = 2.0 * (fatfa @ e + ata @ e @ g @ g.T)
            return e - e.mean(axis=0)

        blocks.append((hessian, (a.shape[1], len(g)), out[1]))
        return out

    monkeypatch.setattr(solver._Problem, "endmember_pass", endmember_pass)
    monkeypatch.setattr(solver._Problem, "abundance_pass", abundance_pass)
    solve_coupled(*problem, SolverConfig(materials=6, max_outer=3))
    assert len(blocks) == 6
    rng = np.random.default_rng(seed)
    for hessian, shape, lipschitz in blocks:
        estimate = _power_norm(hessian, shape, rng)
        assert lipschitz >= estimate * (1.0 - 1e-9)
        assert estimate >= lipschitz / 8.0  # the estimate is no vacuous pass


_RESPONSES_8X8 = {spec: build_spatial_response(8, 8, kernel=spec[0], kernel_size=spec[1],
                                               factor=spec[2])
                  for spec in [("uniform", 2, 2), ("uniform", 4, 2), ("gaussian", 3, 2),
                               ("gaussian", 4, 2), ("uniform", 4, 4), ("gaussian", 6, 4)]}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_RESPONSES_8X8)), st.integers(1, 4), st.integers(1, 4),
       st.integers(4, 9), st.integers(0, 2 ** 32 - 1))
def test_each_block_lipschitz_constant_is_one_eigenvalue_between_hessian_and_sum_of_norms(
        spec, materials, ms_bands, hs_bands, seed):
    # L_A = 2 lambda_max(|F^T F| S S^T + SG (SG)^T) and L_S = 2 lambda_max(P
    # (FA^T FA + |G^T G| A^T A) P) bound the dense block Hessians (for S on
    # zero column sums, where S moves), so a 1/L step meets the descent
    # lemma; by Weyl they are at most the sums of norms they replace.
    spatial = _RESPONSES_8X8[spec]
    rng = np.random.default_rng(seed)
    f = rng.uniform(size=(ms_bands, hs_bands))
    a = rng.uniform(size=(hs_bands, materials))
    s = random_simplex_columns(rng, materials, spatial.sr_pixel_count)
    problem = solver._Problem(rng.uniform(size=(ms_bands, spatial.sr_pixel_count)),
                              rng.uniform(size=(hs_bands, spatial.hs_pixel_count)), f, spatial)
    lip_a = problem.endmember_pass(s)[1]
    lip_s = problem.abundance_pass(a)[1]

    def top(m):
        return np.linalg.eigvalsh(m)[-1]

    g = to_dense(spatial)
    ftf, sst, sg = f.T @ f, s @ s.T, s @ g
    hessian_a = 2.0 * (np.kron(ftf, sst) + np.kron(np.eye(hs_bands), sg @ sg.T))
    fa = f @ a
    p = np.eye(materials) - 1.0 / materials
    centre = np.kron(p, np.eye(len(g)))
    hessian_s = 2.0 * (np.kron(fa.T @ fa, np.eye(len(g))) + np.kron(a.T @ a, g @ g.T))
    sums = (2.0 * (top(ftf) * top(sst) + top(sg @ sg.T)),
            2.0 * (top(p @ fa.T @ fa @ p) + top(p @ a.T @ a @ p) * spatial.gram_norm()))
    for lipschitz, hessian, parent in zip((lip_a, lip_s), (hessian_a, centre @ hessian_s @ centre),
                                          sums):
        assert top(hessian) <= lipschitz + 1e-10 * parent
        assert lipschitz <= parent * (1.0 + 1e-10)


@pytest.mark.parametrize("scene, seed", [("desk", 43), ("desk", 44), ("desk", 45),
                                         ("gaussian-64", 2), ("gaussian-64", 3),
                                         ("gaussian-64", 4)])
def test_a_plain_s_step_at_one_over_l_meets_the_descent_lemma(scene, seed, desk_spatial):
    # On the affine hull the objective is a quadratic whose curvature along
    # S+ - S is at most L, whatever the component of the gradient the
    # projection discards; a random A in the box makes A^T A's top
    # eigenvector nearly the all-ones direction that the constraint removes.
    if scene == "desk":
        gen = generate_scene(desk_scene_config(seed=seed), desk_spatial)
        problem = (*observe(gen, desk_spatial), gen.spectral, desk_spatial)
    else:
        problem = _gaussian_64_problem(seed)
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=(problem[1].shape[0], 6))
    s = random_simplex_columns(rng, 6, problem[3].sr_pixel_count)
    step_map, lipschitz, evaluate = solver._Problem(*problem).abundance_pass(a)
    s_plus = project_columns_to_simplex(step_map(1.0 / lipschitz)(s))
    d = s_plus - s
    gradient = step_map(-1.0, 0.0)(s)
    bound = evaluate(s) + np.sum(gradient * d) + 0.5 * lipschitz * np.sum(d * d)
    assert np.sum(d * d) > 0.0
    assert evaluate(s_plus) <= bound + 1e-12 * evaluate(s)


@pytest.mark.parametrize("scene, seed", [("desk", 43), ("desk", 44), ("gaussian-64", 2)])
def test_a_plain_step_of_four_thirds_over_l_lowers_f_by_a_quarter_l_times_its_square(
        scene, seed, desk_spatial):
    # The projection makes <grad f, d> <= -|d|^2 / t and the curvature along d
    # is at most L, so a projected step of t < 2/L lowers f by at least (1/t -
    # L/2) |d|^2: L/4 |d|^2 at the solver's t = 4/(3L). That keeps the plain
    # redo of a refused FISTA pass from raising f beyond roundoff.
    if scene == "desk":
        gen = generate_scene(desk_scene_config(seed=seed), desk_spatial)
        problem = (*observe(gen, desk_spatial), gen.spectral, desk_spatial)
    else:
        problem = _gaussian_64_problem(seed)
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=(problem[1].shape[0], 6))
    s = random_simplex_columns(rng, 6, problem[3].sr_pixel_count)
    inner = solver._Problem(*problem)
    for x, (step_map, lipschitz, evaluate), project in (
            (a, inner.endmember_pass(s), lambda v: np.clip(v, 0.0, 1.0)),
            (s, inner.abundance_pass(a), project_columns_to_simplex)):
        d = project(step_map(solver._STEP / lipschitz)(x)) - x
        f = evaluate(x)
        assert np.sum(d * d) > 0.0
        assert evaluate(x + d) <= f - 0.25 * lipschitz * np.sum(d * d) + 1e-12 * f


@pytest.mark.filterwarnings("error")
def test_a_one_material_solve_keeps_s_at_ones(desk_spatial):
    # With one material the simplex is a single point and the tangent
    # space's constant is 0, so the S block is left as it is.
    gen = generate_scene(desk_scene_config(seed=46), desk_spatial)
    y_ms, y_hs = observe(gen, desk_spatial)
    problem = (add_noise(y_ms, 25.0, seed=1), add_noise(y_hs, 25.0, seed=2), gen.spectral,
               desk_spatial)
    solution = solve_coupled(*problem, SolverConfig(materials=1, max_outer=50))
    assert np.array_equal(solution.abundances, np.ones((1, desk_spatial.sr_pixel_count)))
    assert solution.iterations > 1
    # A block pass may raise the objective by its documented roundoff slack.
    trace = solution.objective_trace
    assert np.all(np.diff(trace) <= 1e-12 * trace[:-1] + 1e-300)


@pytest.mark.parametrize("seed", range(4))
def test_a_noiseless_default_solve_makes_at_most_two_passes_per_block_at_its_step(
        seed, desk_spatial, monkeypatch):
    # Once the objective is at roundoff a pass can raise it; the block is then
    # kept as it was, with no further, shorter steps: every pass forms its one
    # step map, at _STEP / L.
    gen = generate_scene(desk_scene_config(seed=seed), desk_spatial)
    real_descend = solver._descend
    passes = []

    def descend(x, block, *args):
        step_map, lipschitz, evaluate = block
        passes.append({"maps": [], "attempts": 0, "lipschitz": lipschitz})

        def watched_map(t):
            passes[-1]["maps"].append(t)
            return step_map(t)

        def watched_evaluate(v):
            passes[-1]["attempts"] += 1
            return evaluate(v)

        return real_descend(x, (watched_map, lipschitz, watched_evaluate), *args)

    monkeypatch.setattr(solver, "_descend", descend)
    solution = solve_coupled(*observe(gen, desk_spatial), gen.spectral, desk_spatial,
                             SolverConfig(materials=6))
    assert solution.termination == "converged"
    assert solution.objective_trace[-1] <= 1e-20
    assert len(passes) >= 2 * solution.iterations
    assert max(p["attempts"] for p in passes) <= 2
    assert all(p["maps"] == [solver._STEP / p["lipschitz"]] for p in passes)


def test_s_passes_hand_pixel_major_arrays_to_the_projection_and_the_operator(monkeypatch):
    # Pixel-major (transposed-C) S: the S passes' projection copies it into
    # long rows, the sort formula (fallback, initial and inertial projections)
    # sorts its contiguous rows, and the sparse products multiply S^T without
    # a ravel copy.
    problem = _gaussian_64_problem(seed=3)
    seen = {"project": [], "sort": [], "apply": [], "adjoint": []}

    def watch(name, function, position):
        def wrapper(*args):
            seen[name].append(args[position].T.flags.c_contiguous)
            return function(*args)
        return wrapper

    monkeypatch.setattr(solver, "_project_on_support",
                        watch("project", solver._project_on_support, 0))
    monkeypatch.setattr(solver, "project_columns_to_simplex",
                        watch("sort", solver.project_columns_to_simplex, 0))
    for name in ("apply", "adjoint"):
        monkeypatch.setattr(SpatialResponse, name, watch(name, getattr(SpatialResponse, name), 1))
    solution = solve_coupled(*problem, SolverConfig(materials=6, max_outer=4))
    assert solution.restarts < solution.iterations - 1  # an inertial step was kept
    for name, calls in seen.items():
        assert all(calls), name
    for name in ("project", "apply", "adjoint"):
        assert len(seen[name]) > solution.iterations, name
    assert seen["sort"]


@pytest.mark.parametrize("scene", ["desk", "gaussian-64"])
def test_an_s_step_makes_two_sparse_products_and_an_a_step_none(scene, desk_spatial, monkeypatch):
    # The S step map reaches G only through the operator: one apply and one
    # adjoint per step, a step being one projection. A third product, or a
    # product that bypasses the operator, changes these counts. A pass may
    # stall before its 4 steps; the 64x64 passes run to the cap.
    if scene == "desk":
        gen = generate_scene(desk_scene_config(seed=36), desk_spatial)
        problem = (*observe(gen, desk_spatial), gen.spectral, desk_spatial)
    else:
        problem = _gaussian_64_problem(seed=2)
    products = {"apply": 0, "adjoint": 0}
    for name in products:
        def counted(self, x, name=name, real=getattr(SpatialResponse, name)):
            products[name] += 1
            return real(self, x)
        monkeypatch.setattr(SpatialResponse, name, counted)
    attempts = _watch_attempts(monkeypatch, lambda: (products["apply"], products["adjoint"]))
    solution = solve_coupled(*problem, SolverConfig(materials=6, max_outer=3, inner_steps=4))
    passes = [(x.shape, len(outputs), after[0] - before[0], after[1] - before[1])
              for x, _, outputs, (before, *_, after) in attempts]
    s_passes = [p[1:] for p in passes if p[0] == solution.abundances.shape]
    a_passes = [p[1:] for p in passes if p[0] == solution.endmembers.shape]
    assert len(s_passes) >= solution.iterations and len(a_passes) >= solution.iterations
    assert all(apply == adjoint == steps for steps, apply, adjoint in s_passes)
    assert all(1 <= steps <= 4 for steps, _, _ in s_passes + a_passes)
    if scene == "gaussian-64":
        assert all(steps == 4 for steps, _, _ in s_passes)
    assert all(apply == adjoint == 0 for _, apply, adjoint in a_passes)


@pytest.mark.parametrize("scene", ["desk", "gaussian-64"])
def test_the_s_step_map_is_s_minus_t_times_the_gradient(scene, desk_spatial):
    if scene == "desk":
        gen = generate_scene(desk_scene_config(seed=37), desk_spatial)
        problem = (*observe(gen, desk_spatial), gen.spectral, desk_spatial)
    else:
        problem = _gaussian_64_problem(seed=0)
    rng = np.random.default_rng(7)
    a = rng.uniform(size=(problem[1].shape[0], 6))
    s = random_simplex_columns(rng, 6, problem[3].sr_pixel_count)
    step_map, lipschitz, _ = solver._Problem(*problem).abundance_pass(a)
    for layout in (np.asfortranarray(s), np.ascontiguousarray(s)):
        gradient = abundance_gradient(a, layout, *problem)
        for t in (1.0 / lipschitz, 0.5 ** 7 / lipschitz):
            moved = step_map(t)(layout)
            expected = layout - t * gradient
            # roundoff of a sum of n = 6 products, each at most the scale
            scale = np.abs(s).max() + t * np.abs(gradient).max()
            assert np.abs(moved - expected).max() <= 64 * np.finfo(float).eps * scale


def test_support_verified_s_passes_follow_the_sort_path_to_roundoff(monkeypatch):
    problem = _gaussian_64_problem(seed=1)
    configs = (SolverConfig(materials=6, max_outer=20), SolverConfig(materials=6, rel_tol=1e-11))
    verified = [solve_coupled(*problem, config) for config in configs]
    monkeypatch.setattr(solver, "_support_projection", lambda s: project_columns_to_simplex)
    sort = [solve_coupled(*problem, config) for config in configs]
    f_verified, f_sort = verified[0].objective_trace[-1], sort[0].objective_trace[-1]
    assert verified[0].iterations == sort[0].iterations == 20
    assert abs(f_verified - f_sort) <= 1e-12 * f_sort
    assert verified[1].termination == sort[1].termination == "converged"
    assert verified[1].iterations == sort[1].iterations


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["y_ms", "y_hs", "spectral"])
def test_data_whose_squares_overflow_is_rejected_naming_the_array(desk_spatial, capfd, name):
    gen = generate_scene(desk_scene_config(seed=35), desk_spatial)
    y_ms, y_hs = observe(gen, desk_spatial)
    inputs = {"y_ms": y_ms, "y_hs": y_hs, "spectral": gen.spectral}
    inputs[name] = inputs[name] * 1e200
    config = SolverConfig(materials=6, max_outer=5)
    with pytest.raises(ValueError, match=rf"^{name} is too large: the sum of its squares overflows$"):
        solve_coupled(inputs["y_ms"], inputs["y_hs"], inputs["spectral"], desk_spatial, config)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("name, bad", [("y_ms", np.inf), ("y_hs", np.nan), ("spectral", -np.inf)])
def test_non_finite_input_is_rejected_naming_the_array(desk_spatial, capfd, name, bad):
    gen = generate_scene(desk_scene_config(seed=35), desk_spatial)
    y_ms, y_hs = observe(gen, desk_spatial)
    inputs = {"y_ms": y_ms, "y_hs": y_hs, "spectral": gen.spectral.copy()}
    inputs[name][1, 2] = bad
    config = SolverConfig(materials=6, max_outer=5)
    with pytest.raises(ValueError, match=rf"^{name} has a non-finite entry$"):
        solve_coupled(inputs["y_ms"], inputs["y_hs"], inputs["spectral"], desk_spatial, config)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("pixel", [-1, 3])
def test_out_of_range_pixel_is_rejected_before_any_product(pixel):
    # scipy's CSR constructor accepts such an index, and its products then
    # read out of bounds; the operator names the window instead.
    g = response_from_windows(3, [([0, 1], [0.5, 0.5]), ([2, pixel], [0.5, 0.5])])
    x = np.ones((2, 3))
    with pytest.raises(ValueError, match=f"window 1: pixel index {pixel} is out of range"):
        spatial_decimate(x, g)
    config = SolverConfig(materials=1, max_outer=2)
    with pytest.raises(ValueError, match=f"window 1: pixel index {pixel} is out of range"):
        solve_coupled(np.ones((1, 3)), np.ones((2, 2)), np.ones((1, 2)), g, config)


# Windows over 4 SR pixels, each list breaking one check of validate(),
# which solve_coupled runs before any product, the pixel range included.
_HALVES = ([0, 1], [0.5, 0.5])
_INVALID_RESPONSES = {
    "spatial_size": [([0], [1.0]), ([1], [1.0]), ([2], [1.0]), ([3], [1.0])],
    "window_empty": [([0, 1, 2, 3], [0.25] * 4), ([], [])],
    "window_range": [_HALVES, ([2, 4], [0.5, 0.5])],
    "window_weight_finite": [_HALVES, ([2, 3], [np.nan, 0.5])],
    "window_weight_positive": [_HALVES, ([2, 3], [-0.5, 1.5])],
    "window_weight_sum": [_HALVES, ([2, 3], [0.5, 0.6])],
    "window_duplicate_pixel": [_HALVES, ([2, 3, 3], [0.5, 0.25, 0.25])],
    "coverage": [_HALVES, ([2], [1.0])],
}


@pytest.mark.parametrize("check", sorted(_INVALID_RESPONSES))
def test_an_invalid_spatial_response_is_rejected_before_any_product(check, monkeypatch, capfd):
    g = response_from_windows(4, _INVALID_RESPONSES[check])

    def refuse(self, x):
        raise AssertionError("a product with G ran")

    for name in ("apply", "adjoint"):
        monkeypatch.setattr(SpatialResponse, name, refuse)
    config = SolverConfig(materials=1, max_outer=2)
    with pytest.raises(ValueError, match=rf"^\[{check}\] ") as raised:
        solve_coupled(np.ones((1, 4)), np.ones((2, g.hs_pixel_count)), np.ones((1, 2)), g, config)
    assert "\n" not in str(raised.value)
    assert str(raised.value) == str(g.validate()[0])
    assert capfd.readouterr().err == ""


def test_a_response_forms_its_csr_pair_once(desk_spatial, monkeypatch):
    # The (G^T, G) pair is formed at the response's first product and kept:
    # a product, two solves and the objective on one response form it once.
    gen = generate_scene(desk_scene_config(seed=5), desk_spatial)
    y_ms, y_hs = observe(gen, desk_spatial)
    spatial = build_spatial_response(16, 16, kernel="uniform", kernel_size=2, factor=2)
    real = scipy.sparse.csr_matrix
    formed = []

    def counted(*args, **kwargs):
        formed.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse, "csr_matrix", counted)
    assert np.array_equal(spatial_decimate(gen.scene.image, spatial), y_hs)
    config = SolverConfig(materials=6, max_outer=3)
    first = solve_coupled(y_ms, y_hs, gen.spectral, spatial, config)
    second = solve_coupled(y_ms, y_hs, gen.spectral, spatial, config)
    assert np.array_equal(first.objective_trace, second.objective_trace)
    assert (objective(second.endmembers, second.abundances, y_ms, y_hs, gen.spectral, spatial)
            == second.objective_trace[-1])
    assert len(formed) == 1


def test_solver_never_forms_the_dense_spatial_matrix():
    # At 64x64, factor 4, the dense L x Lh float64 matrix alone is 8 L Lh =
    # 8.39 MB; a solve that works through the sparse operator stays below it.
    y_ms, y_hs, spectral, spatial = _gaussian_64_problem(0)
    dense_bytes = 8 * spatial.sr_pixel_count * spatial.hs_pixel_count
    config = SolverConfig(materials=6, max_outer=2)
    tracemalloc.start()
    try:
        solution = solve_coupled(y_ms, y_hs, spectral, spatial, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solution.iterations == 2
    assert peak < dense_bytes
    assert (objective(solution.endmembers, solution.abundances, y_ms, y_hs, spectral, spatial)
            == solution.objective_trace[-1])


@st.composite
def small_fusion_problems(draw):
    """Random small shapes, valid windows (nonempty, positive weights
    summing to one, every SR pixel covered), a valid spectral response
    (fewer MS bands than bands, a positive entry in each row), data in [0, 1]
    and a solver budget of at most 8 outer iterations; with it, a random
    feasible start from a drawn seed."""
    materials = draw(st.integers(1, 4))
    ms_bands = draw(st.integers(1, 4))
    bands = draw(st.integers(ms_bands + 1, 8))
    pixels = draw(st.integers(2, 10))
    count = draw(st.integers(1, pixels - 1))
    # Deal a shuffled pixel order round the windows, so each window gets
    # one and every pixel is covered, then let windows overlap.
    order = draw(st.permutations(range(pixels)))
    windows = []
    for i in range(count):
        extra = draw(st.lists(st.integers(0, pixels - 1), max_size=3))
        members = sorted(set(order[i::count]) | set(extra))
        raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(members),
                                     max_size=len(members))))
        windows.append((members, raw / raw.sum()))
    unit = st.floats(0.0, 1.0)
    spectral = draw(arrays(float, (ms_bands, bands), elements=unit))
    peaks = draw(arrays(int, ms_bands, elements=st.integers(0, bands - 1)))
    spectral[np.arange(ms_bands), peaks] += 0.5
    y_ms = draw(arrays(float, (ms_bands, pixels), elements=unit))
    y_hs = draw(arrays(float, (bands, len(windows)), elements=unit))
    config = SolverConfig(materials=materials, inner_steps=draw(st.integers(1, 20)),
                          max_outer=draw(st.integers(1, 8)), rel_tol=1e-12)
    start = random_start(draw(st.integers(0, 2**16)), bands, materials, pixels)
    spatial = response_from_windows(pixels, windows)
    assert spatial.validate() == [] and validate_spectral(spectral) == []
    return (y_ms, y_hs, spectral, spatial, config), start


@settings(max_examples=100, deadline=None)
@given(small_fusion_problems())
def test_solve_is_feasible_and_monotone_on_random_problems(drawn):
    problem, start = drawn
    with started_at(*start):
        solution = solve_coupled(*problem)
    assert solution.endmembers.min() >= 0.0
    assert solution.endmembers.max() <= 1.0
    assert solution.abundances.min() >= 0.0
    assert np.abs(solution.abundances.sum(axis=0) - 1.0).max() <= 1e-12
    # each of the two block passes of an outer iteration may keep a rise
    # of the acceptance slack: 1e-12 relative plus 1e-300
    trace = solution.objective_trace
    assert np.all(trace[1:] <= trace[:-1] * (1.0 + 1e-12) ** 2 + 2e-300)


# ---------------------------------------------------------------------------
# gradients against central differences
# ---------------------------------------------------------------------------

def _numeric_gradient(fun, x, h=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (fun(xp) - fun(xm)) / (2 * h)
        it.iternext()
    return grad


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_gradients_match_central_differences(seed):
    rng = np.random.default_rng(seed)
    m, mm, n, pixels = 6, 3, 3, 8
    f = rng.uniform(size=(mm, m))
    g = response_from_windows(pixels, [
        ([0, 1, 2, 3], np.full(4, 0.25)),
        ([3, 4, 5], [0.5, 0.25, 0.25]),
        ([5, 6, 7], [0.2, 0.4, 0.4]),
    ])
    a = rng.uniform(0.2, 0.8, size=(m, n))
    s = random_simplex_columns(rng, n, pixels)
    y_ms = rng.uniform(size=(mm, pixels))
    y_hs = rng.uniform(size=(m, 3))

    grad_a = endmember_gradient(a, s, y_ms, y_hs, f, g)
    num_a = _numeric_gradient(lambda z: objective(z, s, y_ms, y_hs, f, g), a)
    assert np.linalg.norm(grad_a - num_a) / np.linalg.norm(num_a) < 1e-5

    grad_s = abundance_gradient(a, s, y_ms, y_hs, f, g)
    num_s = _numeric_gradient(lambda z: objective(a, z, y_ms, y_hs, f, g), s)
    assert np.linalg.norm(grad_s - num_s) / np.linalg.norm(num_s) < 1e-5
