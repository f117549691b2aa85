"""The exact-recovery counterexample instance.

A three-material, six-pixel scene observed through a single summed MS band
and three disjoint two-pixel averaging windows. The coupled fitting
problem admits a whole feasible family of solutions parametrized by two
scalars, whose first-pixel reconstruction error is sqrt(2) * |alpha1| and
reaches sqrt(2) * rho at the edge of the family. Exact recovery is
therefore impossible unless the mixing parameter rho is zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .model import SpatialResponse, reconstruct, spatial_decimate, spectral_decimate
from .solver import objective

IDENTITY_TOL = 1e-12  # absolute tolerance of the error identities and the bound check


@dataclass
class CounterexampleInstance:
    """The fixed small scene, parametrized by the off-diagonal mass rho."""

    rho: float
    endmembers: np.ndarray
    abundances: np.ndarray
    spectral: np.ndarray
    spatial: SpatialResponse

    def observations(self):
        """Noiseless MS/HS pair generated by the forward operators."""
        image = reconstruct(self.endmembers, self.abundances)
        return spectral_decimate(self.spectral, image), spatial_decimate(image, self.spatial)


def build_counterexample(rho):
    """Construct the instance for 0 <= rho < 0.5."""
    if not 0.0 <= rho < 0.5:
        raise ValueError(f"rho must be in [0, 0.5), got {rho}")
    endmembers = np.array([
        [1.0 - rho, rho, 0.0],
        [rho, 1.0 - rho, 0.0],
        [0.0, 0.0, 1.0],
    ])
    abundances = np.array([
        [1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
    ])
    spectral = np.array([[1.0, 1.0, 1.0]])
    spatial = SpatialResponse(6, indptr=[0, 2, 4, 6], pixels=np.arange(6),
                              weights=np.full(6, 0.5))
    return CounterexampleInstance(
        rho=rho, endmembers=endmembers, abundances=abundances,
        spectral=spectral, spatial=spatial,
    )


def feasible_family(instance, alpha1, alpha2):
    """The two-parameter family of alternative solutions.

    Returns (identity endmembers, parametrized abundances). Both shift
    parameters must lie in [-rho, rho]; outside that range the abundances
    leave the simplex and the pair is rejected.
    """
    rho = instance.rho
    for name, alpha in (("alpha1", alpha1), ("alpha2", alpha2)):
        if not -rho <= alpha <= rho:
            raise ValueError(f"{name} = {alpha} outside the feasible range [-{rho}, {rho}]")
    a = np.eye(3)
    s = np.array([
        [1 - rho + alpha1, 1 - rho - alpha1, rho + alpha2, rho - alpha2, 0.0, 0.0],
        [rho - alpha1, rho + alpha1, 1 - rho - alpha2, 1 - rho + alpha2, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
    ])
    return a, s


@dataclass
class CounterexampleReport:
    """Verification record for one alpha1 plus a sweep over the family."""

    rho: float
    alpha1: float
    error: float
    expected_error: float
    identity_ok: bool
    grid_alphas: np.ndarray
    grid_errors: np.ndarray
    grid_objectives: np.ndarray
    sup_error: float
    sup_expected: float
    sup_ok: bool
    certificate_bound: float
    within_bound: bool

    @property
    def passed(self):
        return self.identity_ok and self.sup_ok and self.within_bound

    def to_dict(self):
        """The fields and the verdict."""
        return {**vars(self), "passed": self.passed}


def first_pixel_error(instance, alpha1, alpha2=0.0):
    """Reconstruction error of pixel 1 for the family member (alpha1, alpha2)."""
    a, s = feasible_family(instance, alpha1, alpha2)
    truth = instance.endmembers @ instance.abundances[:, 0]
    est = a @ s[:, 0]
    return float(np.linalg.norm(truth - est))


def verify_counterexample(instance, alpha1, grid_points=21):
    """Check the achievable-error identity for the feasible family.

    Verifies that the first-pixel error equals sqrt(2) * |alpha1|, that its
    supremum over an alpha grid equals sqrt(2) * rho, and that the achieved
    error stays below the scene's certificate bound.
    """
    rho = instance.rho
    if not -rho <= alpha1 <= rho:
        raise ValueError(f"alpha1 = {alpha1} outside the feasible range [-{rho}, {rho}]")
    if grid_points < 1:
        raise ValueError(f"the alpha grid needs at least 1 point, got {grid_points}")
    y_ms, y_hs = instance.observations()

    error = first_pixel_error(instance, alpha1)
    expected = math.sqrt(2.0) * abs(alpha1)

    alphas = np.linspace(-rho, rho, grid_points) if rho > 0 else np.zeros(1)
    errors = np.empty_like(alphas)
    objectives = np.empty_like(alphas)
    for idx, alpha in enumerate(alphas):
        a, s = feasible_family(instance, float(alpha), 0.0)
        errors[idx] = first_pixel_error(instance, float(alpha))
        objectives[idx] = objective(a, s, y_ms, y_hs, instance.spectral, instance.spatial)

    certificate = bounds.certify(
        instance.endmembers, instance.abundances, instance.spectral, instance.spatial
    )
    cert_bound = float(certificate.pixel_bounds[0])
    sup_error = float(errors.max())
    sup_expected = math.sqrt(2.0) * rho
    grid_step = float(alphas[1] - alphas[0]) if len(alphas) > 1 else 0.0

    return CounterexampleReport(
        rho=rho,
        alpha1=alpha1,
        error=error,
        expected_error=expected,
        identity_ok=bool(abs(error - expected) <= IDENTITY_TOL),
        grid_alphas=alphas,
        grid_errors=errors,
        grid_objectives=objectives,
        sup_error=sup_error,
        sup_expected=sup_expected,
        sup_ok=bool(abs(sup_error - sup_expected) <= math.sqrt(2.0) * grid_step + IDENTITY_TOL),
        certificate_bound=cert_bound,
        within_bound=bool(sup_error <= cert_bound + IDENTITY_TOL),
    )
