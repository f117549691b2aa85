import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hsrfusion import (SceneConfig, SpatialResponse, build_spatial_response,
                       project_columns_to_simplex, solver)

# The CLI tests start `python -m hsrfusion` in a subprocess; give it the
# source tree too, as pyproject's pythonpath gives it to this process, and
# make a warning an error there too, as pyproject's filterwarnings does here.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = "error"


def bounded_arange(monkeypatch, limit):
    """Make np.arange refuse a range longer than ``limit``, so that a code
    path that would allocate one fails the test instead of the machine."""
    real = np.arange

    def arange(*args, **kwargs):
        start, stop = (0, args[0]) if len(args) == 1 else args[:2]
        assert abs(stop - start) <= limit, f"np.arange{args} is longer than {limit}"
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "arange", arange)


def desk_scene_config(seed, **overrides):
    """The desk-scale scene family used across the suite: 50 SR bands,
    6 MS bands, 6 materials on a 16x16 grid decimated by 2 with a
    non-overlapping box kernel."""
    params = dict(
        sr_bands=50, ms_bands=6, materials=6, width=16, height=16,
        factor=2, max_support=3, kernel="uniform", kernel_size=2,
        seed=seed, require_dominance=False,
    )
    params.update(overrides)
    return SceneConfig(**params)


@pytest.fixture(scope="session")
def desk_spatial():
    return build_spatial_response(16, 16, kernel="uniform", kernel_size=2, factor=2)


def random_simplex_columns(rng, rows, cols):
    v = rng.exponential(size=(rows, cols))
    return v / v.sum(axis=0, keepdims=True)


def random_start(seed, bands, materials, pixels):
    """A random feasible solver start (A0, S0): uniform endmembers, and
    uniform abundances projected onto the simplex, pixel-major as the
    solver's own start."""
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(0.0, 1.0, size=(bands, materials))
    s0 = rng.uniform(0.0, 1.0, size=(materials, pixels))
    return a0, project_columns_to_simplex(np.asfortranarray(s0))


def started_at(endmembers, abundances):
    """A context in which solve_coupled starts from the given factors in
    place of its pure-pixel start."""
    return mock.patch.object(solver, "_initialize",
                             lambda problem, materials: (endmembers, abundances))


def response_from_windows(sr_pixel_count, windows):
    """A SpatialResponse from one (pixels, weights) pair per HS pixel."""
    pixels = [np.asarray(p, dtype=int) for p, _ in windows]
    weights = [np.asarray(w, dtype=float) for _, w in windows]
    return SpatialResponse(sr_pixel_count, indptr=np.cumsum([0] + [p.size for p in pixels]),
                           pixels=np.concatenate([np.zeros(0, dtype=int)] + pixels),
                           weights=np.concatenate([np.zeros(0)] + weights))


def identity_response(n):
    """n one-pixel windows of weight 1: G is the identity."""
    return response_from_windows(n, [([i], [1.0]) for i in range(n)])


def windows_of(g):
    """Every window's (pixels, weights), as views into the response's arrays."""
    return [(g.pixels[a:b], g.weights[a:b]) for a, b in zip(g.indptr[:-1], g.indptr[1:])]


def to_dense(g):
    """Dense (sr_pixel_count x hs_pixel_count) matrix: the oracle the sparse
    operator is checked against."""
    dense = np.zeros((g.sr_pixel_count, g.hs_pixel_count))
    dense[g.pixels, g.owners] = g.weights
    return dense
