"""Accelerated alternating projected descent for the coupled fitting problem.

Minimizes  |Y_ms - F A S|_F^2 + |Y_hs - A S G|_F^2  over endmembers A in
the unit box and abundance columns on the unit simplex. Each outer
iteration tries an inertial step on (A, S) with the FISTA weight (Xu & Yin
2013), kept only if the objective did not rise and else restarting the
momentum, then a pass of projected 1/L FISTA steps (Beck & Teboulle 2009)
on each block, L being the block's exact Lipschitz constant. A pass that
raised the objective is redone with plain steps, halving the step. So the
trace never increases and every iterate is feasible by projection.

G enters only through the response's sparse operator, applied to the
materials x L abundances: the HS term is evaluated as A (S G), the MS
term as (F A) S, the S gradient as (S G) G^T, and |G^T G|_2 comes from
the Lh x Lh Gram matrix. The dense L x Lh matrix is never formed.

The abundances are pixel-major inside the solver: S is the n x L
transpose of an L x n C-order buffer, one row per pixel, and so are the
S gradient, the extrapolated S and S G (Lh x n underneath). The sparse
products then receive C-order S^T and copy nothing, and the exact simplex
projection sorts each pixel's contiguous row. Solution.abundances is that
n x L view.

The S passes project through a support check instead of a sort. Each
column's support is guessed from the previous step's output (at first,
from the point the pass starts at), and on an n x L C-order copy, whose
rows are long, the threshold theta = (sum over the guess - 1) / its size
is formed per column. A column whose entries exceed theta exactly on the
guess is projected by max(v - theta, 0): the KKT conditions make that the
unique projection (Duchi et al. 2008; Condat 2016). The other columns,
usually a handful, go through the sort formula, which also projects the
initial S and the inertial step's columns.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_TINY = 1e-300


@dataclass
class SolverConfig:
    """Knobs of the alternating scheme; all plumbing, no model content."""

    materials: int
    max_outer: int = 5000
    inner_steps: int = 10
    rel_tol: float = 1e-10
    objective_floor: float = 0.0
    init: str = "pure-pixel"      # "random" | "provided"
    seed: int = 0
    init_endmembers: np.ndarray | None = field(default=None, repr=False)
    init_abundances: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.materials < 1:
            raise ValueError("materials must be >= 1")
        if self.max_outer < 1 or self.inner_steps < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.init not in ("pure-pixel", "random", "provided"):
            raise ValueError(f"unknown init mode {self.init!r}")


@dataclass
class Solution:
    """Feasible factorization estimate with its convergence record."""

    endmembers: np.ndarray
    abundances: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    termination: str
    restarts: int = 0  # inertial steps rejected, each restarting the momentum

    def reconstruction(self):
        return self.endmembers @ self.abundances


# ---------------------------------------------------------------------------
# The coupled objective
# ---------------------------------------------------------------------------

def _finite_array(name, array):
    array = np.asarray(array, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} has a non-finite entry")
    return array


def _energy(name, array):
    """|array|_F^2, rejecting finite data whose squares overflow."""
    with np.errstate(over="ignore"):
        energy = float(np.sum(array * array))
    if not math.isfinite(energy):
        raise ValueError(f"{name} is too large: the sum of its squares overflows")
    return energy


def _shaped(name, array, shape, axes):
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape} ({axes})")
    return array


def _sym_norm(m):
    """Largest eigenvalue of a small symmetric PSD matrix."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(m)[-1])


class _Problem:
    """The coupled objective on fixed data: its value and, per block pass,
    the block's gradient, Lipschitz constant and objective, reusing F^T F,
    F^T Y_ms, |F^T F|_2 and |G^T G|_2. G is applied sparsely and only to
    abundances (materials rows), never to a bands x L image."""

    def __init__(self, y_ms, y_hs, spectral, spatial):
        self.g = spatial.operator()
        self.y_ms = _finite_array("y_ms", y_ms)
        self.y_hs = _finite_array("y_hs", y_hs)
        self.f = _finite_array("spectral", spectral)
        self.pixels = spatial.sr_pixel_count
        if self.y_ms.shape[1] != self.pixels:
            raise ValueError("MS pixel count does not match the spatial response")
        if self.y_hs.shape[1] != spatial.hs_pixel_count:
            raise ValueError("HS pixel count does not match the spatial response")
        if self.y_hs.shape[0] != self.f.shape[1]:
            raise ValueError("HS band count does not match the spectral response")
        _energy("spectral", self.f)
        self.ftf = self.f.T @ self.f
        self.ft_yms = self.f.T @ self.y_ms
        self.lip_ftf = _sym_norm(self.ftf)
        # Each residual entry carries rounding error of order eps |y|, so
        # objective values below eps^2 |Y|^2 are rounding, not fit.
        self.roundoff = np.finfo(float).eps ** 2 * (
            _energy("y_ms", self.y_ms) + _energy("y_hs", self.y_hs))

    @functools.cached_property
    def lip_g(self):
        # Lh x Lh: formed on first use, which the objective value alone never needs.
        return self.g.gram_norm()

    def factors(self, endmembers, abundances):
        """The factors as float arrays, checked against the data shapes."""
        a = np.asarray(endmembers, dtype=float)
        s = np.asarray(abundances, dtype=float)
        if a.shape[1] != s.shape[0] or self.f.shape[1] != a.shape[0]:
            raise ValueError("endmember/abundance/spectral dimensions do not chain")
        if s.shape[1] != self.pixels:
            raise ValueError("abundance pixel count does not match the spatial response")
        return a, s

    def value(self, a, s, sg=None):
        """The objective at (A, S); ``sg`` is S G when the caller has it."""
        if sg is None:
            sg = self.g.apply(s)
        r_ms = self.y_ms - (self.f @ a) @ s
        r_hs = self.y_hs - a @ sg
        return float(np.sum(r_ms * r_ms) + np.sum(r_hs * r_hs))

    def endmember_pass(self, s, sg=None):
        """(gradient in A, Lipschitz constant, objective in A) at fixed S."""
        if sg is None:
            sg = self.g.apply(s)
        sst = s @ s.T
        sg_sgt = sg @ sg.T
        lipschitz = 2.0 * (self.lip_ftf * _sym_norm(sst) + _sym_norm(sg_sgt))
        ft_yms_st = self.ft_yms @ s.T
        yhs_sgt = self.y_hs @ sg.T

        def gradient(a):
            return 2.0 * (self.ftf @ a @ sst - ft_yms_st + a @ sg_sgt - yhs_sgt)

        return gradient, lipschitz, lambda a: self.value(a, s, sg)

    def abundance_pass(self, a):
        """(gradient in S, Lipschitz constant, objective in S) at fixed A.
        The gradient is formed as its L x n transpose and returned as the
        n x L view of it, pixel-major as S is in the solver."""
        fa = self.f @ a
        fatfa = fa.T @ fa
        ata = a.T @ a
        lipschitz = 2.0 * (_sym_norm(fatfa) + _sym_norm(ata) * self.lip_g)
        # 2 (FA^T Y_ms + A^T Y_hs G^T), transposed; A^T Y_hs enters the
        # adjoint as the view of a C-order Y_hs^T A.
        const_t = 2.0 * (self.y_ms.T @ fa + self.g.adjoint((self.y_hs.T @ a).T).T)

        def gradient(s):
            grad_t = s.T @ fatfa.T
            grad_t += self.g.adjoint(self.g.apply(s)).T @ ata.T
            grad_t *= 2.0
            grad_t -= const_t
            return grad_t.T

        return gradient, lipschitz, functools.partial(self.value, a)


def objective(endmembers, abundances, y_ms, y_hs, spectral, spatial):
    """Coupled data fidelity: |Y_ms - F A S|_F^2 + |Y_hs - A S G|_F^2."""
    problem = _Problem(y_ms, y_hs, spectral, spatial)
    return problem.value(*problem.factors(endmembers, abundances))


def endmember_gradient(endmembers, abundances, y_ms, y_hs, spectral, spatial):
    """Gradient of the coupled objective in the endmember block."""
    problem = _Problem(y_ms, y_hs, spectral, spatial)
    a, s = problem.factors(endmembers, abundances)
    return problem.endmember_pass(s)[0](a)


def abundance_gradient(endmembers, abundances, y_ms, y_hs, spectral, spatial):
    """Gradient of the coupled objective in the abundance block."""
    problem = _Problem(y_ms, y_hs, spectral, spatial)
    a, s = problem.factors(endmembers, abundances)
    return problem.abundance_pass(a)[0](s)


# ---------------------------------------------------------------------------
# Simplex projection
# ---------------------------------------------------------------------------

def project_columns_to_simplex(v):
    """Euclidean projection of every column onto the unit simplex.

    Sort-based threshold: with the column sorted decreasingly, the active
    size is the largest k for which u_k > (sum of the top k - 1) / k, and
    the output is max(v - theta, 0) at the matching threshold. Exact in
    O(n log n) per column. The work runs on v^T, one row per column, which
    is contiguous for the solver's pixel-major abundances; the output has
    the layout of ``v``.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError("need a nonempty 2-D array of column vectors")
    n = v.shape[0]
    rows = v.T
    u = np.array(rows, order="C")
    u.sort(axis=1)
    # A running sum over the sorted entries, largest first; the threshold
    # is the candidate at the last active k, or at the last k when none is
    # (entries of 2^53 and more, where u - 1 == u).
    total = np.zeros(len(u))
    theta = np.full(len(u), np.nan)
    for k in range(n):
        u_k = u[:, n - 1 - k]
        total += u_k
        candidate = (total - 1.0) / (k + 1)
        np.copyto(theta, candidate, where=u_k > candidate)
    np.copyto(theta, candidate, where=np.isnan(theta))
    return np.maximum(rows - theta[:, None], 0.0).T


def _project_on_support(v, support):
    """The projection of ``project_columns_to_simplex``, checked against a
    guess of each column's support instead of sorted.

    ``support`` is an n x L boolean C-order guess. On a column's guessed
    support P, theta = (sum_P v - 1) / |P|; when v - theta > 0 holds on P
    and nowhere else, max(v - theta, 0) meets the KKT conditions, so it is
    the (unique) projection. Other columns go through the sort formula.
    The work runs on an n x L C-order copy, whose rows are long. Returns the
    projection in ``v``'s layout and its support, the next guess.
    """
    u = np.array(v, order="C")
    count = support.sum(axis=0)
    theta = (u * support).sum(axis=0)
    theta -= 1.0
    theta /= np.maximum(count, 1)
    u -= theta
    found = u > 0.0
    np.maximum(u, 0.0, out=u)
    miss = np.flatnonzero((found != support).any(axis=0) | (count == 0))
    if miss.size:
        u[:, miss] = project_columns_to_simplex(v.T[miss].T)
        found[:, miss] = u[:, miss] > 0.0
    x = np.empty_like(v)
    x[...] = u
    return x, found


def _support_projection(s):
    """The S passes' projection, guessing each column's support from the
    previous output, the first time from ``s``."""
    support = np.ascontiguousarray(s > 0.0)

    def project(v):
        nonlocal support
        x, support = _project_on_support(v, support)
        return x

    return project


def project_simplex(v):
    """Euclidean projection of a single vector onto the unit simplex."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need a nonempty vector")
    return project_columns_to_simplex(v[:, None])[:, 0]


# ---------------------------------------------------------------------------
# Pure-pixel initialization
# ---------------------------------------------------------------------------

def spa_initialize(y_hs, materials):
    """Pick endmember candidates by successive projection.

    Greedy: take the column of largest residual norm, deflate the matrix by
    the orthogonal projector of the chosen column, repeat. Ties go to the
    lowest column index. On noiseless data with a pure pixel per material
    and full-column-rank endmembers the chosen columns are exactly the
    endmember columns, up to order. Output is clipped to [0, 1].
    """
    y = np.asarray(y_hs, dtype=float)
    if materials > y.shape[1]:
        raise ValueError("more materials than HS pixels")
    if materials > y.shape[0]:
        raise ValueError("more materials than spectral bands")
    residual = y.copy()
    norms0 = np.einsum("ij,ij->j", residual, residual)
    floor = float(norms0.max()) * 1e-24
    picks = []
    for _ in range(materials):
        norms = np.einsum("ij,ij->j", residual, residual)
        j = int(np.argmax(norms))
        if norms[j] <= floor:
            raise RuntimeError(
                f"rank collapse after {len(picks)} picks: residual is numerically zero"
            )
        picks.append(j)
        q = residual[:, j] / np.sqrt(norms[j])
        residual -= np.outer(q, q @ residual)
    return np.clip(y[:, picks], 0.0, 1.0)


# ---------------------------------------------------------------------------
# Block updates
# ---------------------------------------------------------------------------

def _finite(value):
    if not np.isfinite(value):
        raise RuntimeError("non-finite objective: contaminated input data")
    return value


def _momentum(t):
    """The next FISTA weight t' and the extrapolation factor (t - 1) / t'."""
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
    return t_next, (t - 1.0) / t_next


def _pass(x, gradient, step, project, steps, accelerate):
    """``steps`` projected steps from ``x``; ``accelerate`` extrapolates
    each gradient point (FISTA)."""
    x_new = y = x
    t = 1.0
    for _ in range(steps):
        x_next = project(y - step * gradient(y))
        y = x_next
        if accelerate:
            t, beta = _momentum(t)
            y = x_next + beta * (x_next - x_new)
        x_new = x_next
    return x_new


def _descend(x, gradient, lipschitz, project, evaluate, f_start, steps):
    """One block pass from ``x``; returns the new iterate and its objective.
    A FISTA pass may raise the objective, a 1/L pass through roundoff: such
    a pass is redone from ``x`` with plain steps, halving the step."""
    for attempt in range(61):
        step = 0.5 ** max(attempt - 1, 0) / lipschitz
        x_new = _pass(x, gradient, step, project, steps, accelerate=attempt == 0)
        f_new = _finite(evaluate(x_new))
        if f_new <= f_start * (1.0 + 1e-12) + 1e-300:
            return x_new, f_new
    return x, f_start


def _initialize(problem, config):
    """The starting (A, S), feasible, with S pixel-major."""
    n = config.materials
    if config.init == "provided":
        if config.init_endmembers is None or config.init_abundances is None:
            raise ValueError("init='provided' needs init_endmembers and init_abundances")
        a0 = _shaped("init_endmembers", _finite_array("init_endmembers", config.init_endmembers),
                     (problem.y_hs.shape[0], n), "HS bands x materials")
        s0 = _shaped("init_abundances", _finite_array("init_abundances", config.init_abundances),
                     (n, problem.pixels), "materials x SR pixels")
        a0 = np.clip(a0, 0.0, 1.0)
    elif config.init == "random":
        rng = np.random.default_rng(config.seed)
        a0 = rng.uniform(0.0, 1.0, size=(problem.y_hs.shape[0], n))
        s0 = rng.uniform(0.0, 1.0, size=(n, problem.pixels))
    else:
        # pure-pixel: successive projection on the HS image, then a simplex
        # projected least squares fit of the MS image against F @ A0.
        a0 = spa_initialize(problem.y_hs, n)
        s0, *_ = np.linalg.lstsq(problem.f @ a0, problem.y_ms, rcond=None)
    return a0, project_columns_to_simplex(np.asfortranarray(s0))


def solve_coupled(y_ms, y_hs, spectral, spatial, config):
    """Run the accelerated alternating projected descent scheme.

    Every iterate is feasible by construction and the objective trace is
    non-increasing. Stops on the relative objective change or an objective
    at the data's rounding level (both "converged"), an optional absolute
    objective floor, or the outer iteration cap (the cap is a termination
    reason, not an error). Non-finite inputs, data whose squares overflow
    and provided initial factors of the wrong shape raise ValueError, and
    so does a spatial response that fails validate(), with its first
    violation, before any product.
    """
    problem = _Problem(y_ms, y_hs, spectral, spatial)
    problems = spatial.validate()
    if problems:
        raise ValueError(str(problems[0]))
    a, s = _initialize(problem, config)
    f_cur = _finite(problem.value(a, s))
    trace = [f_cur]
    termination = "max_iterations"
    iterations = restarts = 0
    a_prev, s_prev, t = a, s, 1.0

    for outer in range(1, config.max_outer + 1):
        iterations = outer
        # Inertial step from the last two iterates, kept only if the
        # objective did not rise; a rejected one restarts the momentum.
        a_last, s_last, sg = a, s, None
        t_next, beta = _momentum(t)
        if beta > 0.0:
            a_try = np.clip(a + beta * (a - a_prev), 0.0, 1.0)
            # Columns of S + beta (S - S_prev) sum to one, so only those
            # with a negative entry leave the simplex.
            s_try = s + beta * (s - s_prev)
            rows = s_try.T
            cols = np.flatnonzero((rows < 0.0).any(axis=1))
            rows[cols] = project_columns_to_simplex(rows[cols].T).T
            sg_try = problem.g.apply(s_try)
            f_try = _finite(problem.value(a_try, s_try, sg_try))
            if f_try <= f_cur:
                a, s, sg, f_cur = a_try, s_try, sg_try, f_try
            else:
                t_next = 1.0
                restarts += 1
        a_prev, s_prev, t = a_last, s_last, t_next

        # A block whose Lipschitz constant is below _TINY is flat to double
        # precision, and its step 1/L could overflow: it is left as it is.
        gradient, lipschitz, evaluate = problem.endmember_pass(s, sg)
        if lipschitz > _TINY:
            a, f_cur = _descend(a, gradient, lipschitz, lambda z: np.clip(z, 0.0, 1.0),
                                evaluate, f_cur, config.inner_steps)
        gradient, lipschitz, evaluate = problem.abundance_pass(a)
        if lipschitz > _TINY:
            s, f_cur = _descend(s, gradient, lipschitz, _support_projection(s),
                                evaluate, f_cur, config.inner_steps)

        prev = trace[-1]
        trace.append(f_cur)
        if f_cur <= config.objective_floor:
            termination = "objective_floor"
            break
        if abs(prev - f_cur) / max(prev, _TINY) < config.rel_tol or f_cur <= problem.roundoff:
            termination = "converged"
            break

    return Solution(
        endmembers=a,
        abundances=s,
        objective_trace=np.asarray(trace),
        iterations=iterations,
        termination=termination,
        restarts=restarts,
    )
