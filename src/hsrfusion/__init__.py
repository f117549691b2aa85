"""Hyperspectral super-resolution toolkit.

Simulates the coupled MS/HS observation model, solves the coupled
structured factorization problem under box and simplex constraints, and
computes per-pixel recovery certificates for concrete scenes, including
the exact-recovery counterexample.
"""

from .bounds import (
    AlignmentReport,
    AssumptionReport,
    Certificate,
    certify,
    dominance_coefficient,
    dominance_monte_carlo,
    dominance_probability,
    extract_alignment,
    kruskal_rank,
    peak_window_weights,
    support_balance,
    varah_lower_bound,
    verify_abundance_error_bound,
)
from .counterexample import (
    CounterexampleInstance,
    build_counterexample,
    feasible_family,
    verify_counterexample,
)
from .experiment import ExperimentConfig, run_experiment
from .model import (
    Scene,
    SpatialResponse,
    reconstruct,
    spatial_decimate,
    spectral_decimate,
    validate_model,
)
from .scenegen import (
    GeneratedScene,
    SceneConfig,
    add_noise,
    build_spatial_response,
    build_spectral_response,
    generate_scene,
)
from .solver import (
    Solution,
    SolverConfig,
    objective,
    project_columns_to_simplex,
    solve_coupled,
    spa_initialize,
)

__version__ = "0.1.0"
