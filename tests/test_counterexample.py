import math

import numpy as np
import pytest

from hsrfusion import (
    build_counterexample,
    feasible_family,
    objective,
    verify_counterexample,
)
from hsrfusion.counterexample import first_pixel_error
from hsrfusion.model import validate_abundances


def test_zero_rho_gives_identity_endmembers():
    inst = build_counterexample(0.0)
    assert np.array_equal(inst.endmembers, np.eye(3))


def test_quarter_rho_first_column():
    inst = build_counterexample(0.25)
    assert np.allclose(inst.endmembers[:, 0], [0.75, 0.25, 0.0], atol=0)


def test_rho_out_of_range():
    for rho in (-0.01, 0.5, 0.7):
        with pytest.raises(ValueError):
            build_counterexample(rho)


def test_family_at_zero_shift_matches_mixture():
    rho = 0.3
    inst = build_counterexample(rho)
    a, s = feasible_family(inst, 0.0, 0.0)
    assert np.array_equal(a, np.eye(3))
    expected_first_four = np.array([
        [1 - rho, 1 - rho, rho, rho],
        [rho, rho, 1 - rho, 1 - rho],
        [0, 0, 0, 0],
    ])
    assert np.allclose(s[:, :4], expected_first_four, atol=0)
    y_ms, y_hs = inst.observations()
    assert objective(a, s, y_ms, y_hs, inst.spectral, inst.spatial) <= 1e-24


def test_family_edge_shift_reaches_vertex():
    inst = build_counterexample(0.25)
    a, s = feasible_family(inst, 0.25, 0.0)
    assert np.allclose(s[:, 0], [1.0, 0.0, 0.0], atol=0)
    y_ms, y_hs = inst.observations()
    assert objective(a, s, y_ms, y_hs, inst.spectral, inst.spatial) <= 1e-24


def test_family_rejects_out_of_range_shift():
    inst = build_counterexample(0.25)
    with pytest.raises(ValueError):
        feasible_family(inst, 0.26, 0.0)
    with pytest.raises(ValueError):
        feasible_family(inst, 0.0, -0.3)


def test_error_identity_at_edge():
    inst = build_counterexample(0.25)
    report = verify_counterexample(inst, 0.25)
    assert report.error == pytest.approx(math.sqrt(2.0) * 0.25, abs=1e-12)
    assert report.identity_ok
    assert report.sup_error == pytest.approx(math.sqrt(2.0) * 0.25, abs=1e-12)


def test_error_zero_when_rho_zero():
    inst = build_counterexample(0.0)
    report = verify_counterexample(inst, 0.0)
    assert report.error == 0.0
    assert report.sup_error == 0.0
    assert report.passed


@pytest.mark.parametrize("grid_points", [0, -3])
def test_verify_rejects_an_empty_alpha_grid(grid_points):
    with pytest.raises(ValueError, match=f"alpha grid needs at least 1 point, got {grid_points}"):
        verify_counterexample(build_counterexample(0.2), 0.2, grid_points)


def test_error_below_certificate_bound():
    inst = build_counterexample(0.1)
    report = verify_counterexample(inst, 0.05)
    assert report.error == pytest.approx(math.sqrt(2.0) * 0.05, abs=1e-12)
    assert report.certificate_bound == pytest.approx(2.7994, abs=1e-4)
    assert report.within_bound


def test_family_grid_feasibility_and_identity():
    # whole (rho, alpha) grid: simplex membership, zero objective, the
    # error identity, and independence of the first-pixel error from the
    # second shift parameter
    for rho in np.arange(0.0, 0.46, 0.05):
        inst = build_counterexample(float(rho))
        y_ms, y_hs = inst.observations()
        alphas = np.linspace(-rho, rho, 21) if rho > 0 else np.zeros(1)
        for alpha1 in alphas:
            a, s = feasible_family(inst, float(alpha1), float(-alpha1))
            assert validate_abundances(s) == []
            assert objective(a, s, y_ms, y_hs, inst.spectral, inst.spatial) <= 1e-24
            err = np.linalg.norm(inst.endmembers @ inst.abundances[:, 0] - a @ s[:, 0])
            assert err == pytest.approx(math.sqrt(2.0) * abs(alpha1), abs=1e-12)


def test_first_pixel_error_ignores_alpha2():
    inst = build_counterexample(0.3)
    base = first_pixel_error(inst, 0.2, 0.0)
    for alpha2 in (-0.3, -0.1, 0.05, 0.3):
        assert first_pixel_error(inst, 0.2, alpha2) == pytest.approx(base, abs=0)
