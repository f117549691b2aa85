"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line with the
measured quantity so the suite doubles as a report (run with -s).
"""

import contextlib
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import hsrfusion as hf
from hsrfusion.model import spatial_decimate, spectral_decimate
from conftest import desk_scene_config, random_start, response_from_windows, started_at


def _report(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared desk-scale runs (criteria 2, 3, 4, 9)
# ---------------------------------------------------------------------------

@dataclass
class DeskRun:
    generated: object
    solution: object
    certificate: object
    alignment: object


@pytest.fixture(scope="module")
def desk_runs(desk_spatial):
    solver_config = hf.SolverConfig(
        materials=6, max_outer=4000, inner_steps=20,
        rel_tol=1e-13, objective_floor=1e-24,
    )
    runs = []
    start = time.perf_counter()
    for seed in range(20):
        generated = hf.generate_scene(desk_scene_config(seed=seed), desk_spatial)
        scene = generated.scene
        y_ms = spectral_decimate(generated.spectral, scene.image)
        y_hs = spatial_decimate(scene.image, desk_spatial)
        solution = hf.solve_coupled(y_ms, y_hs, generated.spectral, desk_spatial,
                                    solver_config)
        certificate = hf.certify(scene.endmembers, scene.abundances,
                                 generated.spectral, desk_spatial)
        alignment = hf.extract_alignment(
            scene.endmembers, solution.endmembers,
            hf.spatial_decimate(scene.abundances, desk_spatial),
            hf.spatial_decimate(solution.abundances, desk_spatial),
            kruskal=certificate.kruskal,
        )
        runs.append(DeskRun(generated, solution, certificate, alignment))
    elapsed = time.perf_counter() - start
    return runs, elapsed


# ---------------------------------------------------------------------------
# criterion 1: counterexample exactness
# ---------------------------------------------------------------------------

def test_criterion_1_counterexample_exactness():
    start = time.perf_counter()
    worst_identity = 0.0
    worst_objective = 0.0
    sup_ok = True
    for rho in (0.1, 0.25, 0.4):
        instance = hf.build_counterexample(rho)
        y_ms, y_hs = instance.observations()
        alphas = np.linspace(-rho, rho, 21)
        errors = []
        for alpha in alphas:
            a, s = hf.feasible_family(instance, float(alpha), 0.0)
            obj = hf.objective(a, s, y_ms, y_hs, instance.spectral, instance.spatial)
            worst_objective = max(worst_objective, obj)
            err = float(np.linalg.norm(
                instance.endmembers @ instance.abundances[:, 0] - a @ s[:, 0]
            ))
            errors.append(err)
            worst_identity = max(worst_identity, abs(err - math.sqrt(2.0) * abs(alpha)))
        sup_ok = sup_ok and abs(max(errors) - math.sqrt(2.0) * rho) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = worst_objective < 1e-12 and worst_identity <= 1e-12 and sup_ok and elapsed < 1.0
    _report(
        "criterion 1", ok,
        f"max objective {worst_objective:.2e}, max identity gap {worst_identity:.2e}, "
        f"suprema exact: {sup_ok}, runtime {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: the recovery bound holds on solved scenes
# ---------------------------------------------------------------------------

def test_criterion_2_recovery_bound_holds(desk_runs):
    runs, elapsed = desk_runs
    worst_objective = max(float(r.solution.objective_trace[-1]) for r in runs)
    worst_margin = -math.inf
    for run in runs:
        scene = run.generated.scene
        errors = np.linalg.norm(scene.image - run.solution.reconstruction(), axis=0)
        worst_margin = max(worst_margin, float((errors - run.certificate.pixel_bounds).max()))
    ok = worst_objective < 1e-8 and worst_margin <= 0.0 and elapsed < 120.0
    _report(
        "criterion 2", ok,
        f"20 scenes, max objective {worst_objective:.2e}, worst bound margin "
        f"{worst_margin:.2e}, solve+certify time {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: mixing matrix structure on real solutions
# ---------------------------------------------------------------------------

def test_criterion_3_mixing_structure(desk_runs):
    runs, _ = desk_runs
    worst_stochastic = max(r.alignment.stochastic_margin for r in runs)
    all_aligned = all(r.alignment.offdiagonal_pass for r in runs)
    ok = worst_stochastic <= 1e-6 and all_aligned
    _report(
        "criterion 3", ok,
        f"worst stochastic margin {worst_stochastic:.2e}, "
        f"alignment search succeeded on all runs: {all_aligned}",
    )


# ---------------------------------------------------------------------------
# criterion 4: per-pixel abundance inequality chain
# ---------------------------------------------------------------------------

def test_criterion_4_abundance_chain(desk_runs):
    runs, _ = desk_runs
    worst_abundance = -math.inf
    worst_chain = -math.inf
    applicable = 0
    for run in runs:
        if run.alignment.submatrix_floor <= 0.0:
            continue
        applicable += 1
        report = hf.verify_abundance_error_bound(
            run.generated.scene, run.solution, run.alignment, run.certificate,
        )
        worst_abundance = max(worst_abundance, report.worst_abundance_margin)
        worst_chain = max(worst_chain, report.worst_chain_margin)
    ok = applicable > 0 and worst_abundance <= 1e-9 and worst_chain <= 1e-9
    _report(
        "criterion 4", ok,
        f"{applicable}/20 runs applicable, worst abundance margin "
        f"{worst_abundance:.2e}, worst chain margin {worst_chain:.2e} (slack 1e-9)",
    )


# ---------------------------------------------------------------------------
# criterion 5: diagonally dominant singular value floor
# ---------------------------------------------------------------------------

def test_criterion_5_stochastic_floor():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    sizes = [3, 4, 5, 6, 7, 8]
    min_singular = math.inf
    min_varah = math.inf
    for index in range(1000):
        n = sizes[index % len(sizes)]
        cap = 1.0 / (4.0 * n)
        r = np.zeros((n, n))
        for j in range(n):
            off = rng.uniform(0.0, cap, size=n - 1)
            rows = [i for i in range(n) if i != j]
            r[rows, j] = off
            r[j, j] = 1.0 - off.sum()
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                sub = r[np.ix_(subset, subset)]
                min_singular = min(min_singular,
                                   float(np.linalg.svd(sub, compute_uv=False)[-1]))
                floor = hf.varah_lower_bound(sub)
                min_varah = min(min_varah, floor if floor is not None else -math.inf)
    elapsed = time.perf_counter() - start
    ok = min_singular >= 0.5 and min_varah >= 0.5 and elapsed < 30.0
    _report(
        "criterion 5", ok,
        f"1000 matrices, min sigma {min_singular:.4f}, min floor {min_varah:.4f}, "
        f"runtime {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: dominance probability, analytic and empirical
# ---------------------------------------------------------------------------

def test_criterion_6_dominance_probability():
    start = time.perf_counter()
    analytic = hf.dominance_probability(2, 64)
    reference = 1.0 - 2.0 * math.exp(-2.0)
    trials = 10000
    empirical = hf.dominance_monte_carlo(2, 64, trials, seed=6)
    sigma = math.sqrt(analytic.clamped * (1.0 - analytic.clamped) / trials)
    elapsed = time.perf_counter() - start
    ok = (
        abs(analytic.raw - reference) < 1e-5
        and abs(reference - 0.72933) < 1e-5
        and empirical.rate >= analytic.clamped - 3.0 * sigma
        and elapsed < 30.0
    )
    _report(
        "criterion 6", ok,
        f"analytic {analytic.raw:.5f} (reference {reference:.5f}), empirical "
        f"{empirical.rate:.5f} >= {analytic.clamped - 3.0 * sigma:.5f}, "
        f"runtime {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: component formulas
# ---------------------------------------------------------------------------

def test_criterion_7_component_formulas():
    balance_ok = (
        hf.support_balance(30, 15) == 15.0
        and abs(hf.support_balance(4, 1) - math.sqrt(3.0)) < 1e-12
    )
    cert_ok = True
    for rho in (0.1, 0.2):
        inst = hf.build_counterexample(rho)
        cert = hf.certify(inst.endmembers, inst.abundances, inst.spectral, inst.spatial)
        cert_ok = cert_ok and (
            cert.kruskal == 1
            and np.allclose(cert.peak_weights, 0.5, atol=0)
            and abs(cert.dominance - rho / (1.0 - 3.0 * rho)) < 1e-12
            and abs(cert.condition - math.sqrt(2.0)) < 1e-12
        )
    envelope_ok = True
    for n in range(2, 13):
        for k in range(1, n + 1):
            envelope = max(math.sqrt(j * (n - j)) for j in range(1, k + 1))
            envelope_ok = envelope_ok and envelope <= hf.support_balance(n, k) + 1e-12
    ok = balance_ok and cert_ok and envelope_ok
    _report(
        "criterion 7", ok,
        f"balance values: {balance_ok}, counterexample certificate: {cert_ok}, "
        f"envelope bound up to 12 materials: {envelope_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 8: MSE trend over an SNR sweep
# ---------------------------------------------------------------------------

def test_criterion_8_snr_sweep_trend(tmp_path):
    start = time.perf_counter()
    scene = desk_scene_config(seed=0)
    solver_config = hf.SolverConfig(
        materials=6, max_outer=500, inner_steps=15,
        rel_tol=1e-11, objective_floor=1e-20,
    )
    config = hf.ExperimentConfig(
        scene=scene, snr_db=[15.0, 25.0, 35.0, math.inf], trials=20,
        solver=solver_config, output_dir=str(tmp_path / "sweep"), master_seed=2718,
    )
    records = hf.run_experiment(config)
    from hsrfusion.experiment import mean_mse_by_snr

    means = mean_mse_by_snr(records)
    ordered = [means[snr] for snr in config.snr_db]
    elapsed = time.perf_counter() - start
    strictly_decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    failures = [r for r in records if r.error is not None]
    ok = (
        strictly_decreasing and ordered[-1] < 1e-8 and not failures
        and elapsed < 600.0
    )
    _report(
        "criterion 8", ok,
        "mean mse by snr " + ", ".join(f"{m:.3e}" for m in ordered)
        + f"; noiseless {ordered[-1]:.2e} < 1e-8, strictly non-increasing: "
        f"{strictly_decreasing}, runtime {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 9: solver soundness
# ---------------------------------------------------------------------------

def test_criterion_9_solver_soundness(desk_runs, desk_spatial):
    runs, _ = desk_runs
    monotone = True
    for run in runs:
        trace = run.solution.objective_trace
        monotone = monotone and bool(
            np.all(np.diff(trace) <= 1e-12 * np.maximum(trace[:-1], 1.0))
        )
    # a few noisy and random-start runs exercise the descent guarantee off
    # the noiseless fast path
    for seed in range(3):
        generated = hf.generate_scene(desk_scene_config(seed=100 + seed), desk_spatial)
        y_ms = spectral_decimate(generated.spectral, generated.scene.image)
        y_hs = spatial_decimate(generated.scene.image, desk_spatial)
        y_ms = hf.add_noise(y_ms, 20.0, seed=seed)
        y_hs = hf.add_noise(y_hs, 20.0, seed=seed + 50)
        config = hf.SolverConfig(materials=6, max_outer=80, inner_steps=5, rel_tol=1e-12)
        start = (started_at(*random_start(seed, y_hs.shape[0], 6, y_ms.shape[1])) if seed % 2
                 else contextlib.nullcontext())
        with start:
            solution = hf.solve_coupled(y_ms, y_hs, generated.spectral, desk_spatial, config)
        trace = solution.objective_trace
        monotone = monotone and bool(
            np.all(np.diff(trace) <= 1e-12 * np.maximum(trace[:-1], 1.0))
        )

    # analytic block gradients against central differences
    from hsrfusion.solver import abundance_gradient, endmember_gradient

    worst_gradient = 0.0
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, mm, n, pixels = 5, 2, 3, 6
        f = rng.uniform(size=(mm, m))
        g = response_from_windows(pixels, [
            ([0, 1, 2], [0.3, 0.4, 0.3]),
            ([2, 3, 4], [0.25, 0.5, 0.25]),
            ([4, 5], [0.5, 0.5]),
        ])
        a = rng.uniform(0.2, 0.8, size=(m, n))
        v = rng.exponential(size=(n, pixels))
        s = v / v.sum(axis=0, keepdims=True)
        y_ms = rng.uniform(size=(mm, pixels))
        y_hs = rng.uniform(size=(m, 3))

        def numeric(fun, x, h=1e-6):
            grad = np.zeros_like(x)
            it = np.nditer(x, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                xp, xm = x.copy(), x.copy()
                xp[idx] += h
                xm[idx] -= h
                grad[idx] = (fun(xp) - fun(xm)) / (2 * h)
                it.iternext()
            return grad

        ga = endmember_gradient(a, s, y_ms, y_hs, f, g)
        na = numeric(lambda z: hf.objective(z, s, y_ms, y_hs, f, g), a)
        gs = abundance_gradient(a, s, y_ms, y_hs, f, g)
        ns = numeric(lambda z: hf.objective(a, z, y_ms, y_hs, f, g), s)
        worst_gradient = max(
            worst_gradient,
            float(np.linalg.norm(ga - na) / np.linalg.norm(na)),
            float(np.linalg.norm(gs - ns) / np.linalg.norm(ns)),
        )

    # simplex projection against the threshold-bisection oracle
    worst_projection = 0.0
    rng = np.random.default_rng(8)
    for _ in range(1000):
        v = rng.normal(scale=3.0, size=int(rng.integers(2, 10)))
        lo, hi = float(v.min()) - 1.0, float(v.max())
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.maximum(v - mid, 0.0).sum() > 1.0:
                lo = mid
            else:
                hi = mid
        oracle = np.maximum(v - 0.5 * (lo + hi), 0.0)
        projected = hf.project_columns_to_simplex(v[:, None])[:, 0]
        worst_projection = max(worst_projection, float(np.abs(projected - oracle).max()))

    ok = monotone and worst_gradient < 1e-5 and worst_projection <= 1e-10
    _report(
        "criterion 9", ok,
        f"traces monotone: {monotone}, worst gradient mismatch {worst_gradient:.2e}, "
        f"worst projection mismatch {worst_projection:.2e}",
    )
