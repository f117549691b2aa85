"""Accelerated alternating projected descent for the coupled fitting problem.

Minimizes  |Y_ms - F A S|_F^2 + |Y_hs - A S G|_F^2  over endmembers A in
the unit box and abundance columns on the unit simplex, from pure pixels
(successive projection on the HS image) and the MS image's min-norm fit
pinv(F A0) Y_ms, projected onto the simplex. Each outer iteration tries an
inertial step on (A, S) with the FISTA weight (Xu & Yin 2013), kept only
if the objective did not rise and else restarting the momentum, then one
block pass on each block, run start to end by _descend: projected 1/L
FISTA steps (Beck & Teboulle 2009). L bounds the block's curvature where
it moves (for S, on the simplex's tangent space, columns summing to
zero) by the top eigenvalue of one materials x materials matrix; a block
whose L is at most _TINY is flat and left as it is. A pass ends at its
first step, after the first, that moves the block at most _STALL = 0.4
times as far as its first step did (the inner stop of Gillis & Glineur
2012), at a step no longer than the block's rounding level (eps^2 per
entry squared, every entry lying in [0, 1]), or after inner_steps steps,
the cap. A FISTA pass that raised the objective beyond a roundoff slack
of 1e-12 f + 1e-300 is redone once from the same start with plain 1/L
steps, which end by the same rules and by the descent lemma raise it at
most by roundoff; if they too exceed the slack, the block is kept as it
was. So every iterate is feasible, and the trace rises, if at all, by no
more than that slack per block pass: about 2e-12 of its value per
iteration.

A solve stops when it is stationary, the measure of PALM (Bolte, Sabach &
Teboulle 2014) and of Xu & Yin (2013). A pass's first step is never
extrapolated, so from its start point X it is X_1 = P(X - grad f(X) / L),
and L |X - X_1|_F, the norm of the block's gradient mapping, costs no
extra product. r_k sums the two blocks' norms in quadrature (0 for a
block left flat), and the solve ends once r_k <= 1e-4 r_1 (_STATIONARY);
Solution.stationarity is r_k / r_1 at exit.

Each step is one affine map X -> X - t grad(X), whose small factors are
formed once per pass, and one projection. G enters only through the
response's sparse products, applied to the materials x L abundances: the
HS term is evaluated as A (S G), the MS term as (F A) S, the S step's
G G^T term as (A^T A S G) G^T, two sparse products, and |G^T G|_2 is
bounded by G^T G's largest row sum, two more. No dense G or Gram is formed.

The abundances are pixel-major inside the solver: S is the n x L
transpose of an L x n C-order buffer, one row per pixel, and so are the
S steps, the extrapolated S and S G (Lh x n underneath). The sparse
products then receive C-order S^T and copy nothing, and the projections
work on each pixel's contiguous row. Solution.abundances is that view.

The S passes project through a support check instead of a sort. Each
column's support is guessed from the previous step's output (at first,
from the point the pass starts at) and theta = (sum over the guess - 1) /
its size is formed per column. A column whose entries exceed theta
exactly on the guess is projected by max(v - theta, 0): the KKT
conditions make that the unique projection (Duchi et al. 2008; Condat
2016). The other columns, usually a handful, go through the sort
formula, which also projects the initial S and the inertial step's.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (_as_matrix, _check_counts, _is_number, check_axes, raise_first,
                    validate_spectral)

_TINY = 1e-300
# A solve is stationary, and stops, once its gradient mapping's norm is this
# fraction of the first iteration's.
_STATIONARY = 1e-4
# A block pass ends at the first later step that moves the block at most this
# fraction of its first step's distance.
_STALL = 0.4


@dataclass
class SolverConfig:
    """Knobs of the alternating scheme; all plumbing, no model content."""

    materials: int
    max_outer: int = 5000
    inner_steps: int = 10         # the most steps a block pass takes
    rel_tol: float = 1e-10
    objective_floor: float = 0.0

    def __post_init__(self):
        _check_counts(self, ("materials", "max_outer", "inner_steps"))
        if not _is_number(self.rel_tol) or not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be a positive number, got {self.rel_tol!r}")
        if not _is_number(self.objective_floor):
            raise ValueError(f"objective_floor must be a number, got {self.objective_floor!r}")


@dataclass
class Solution:
    """Feasible factorization estimate with its convergence record."""

    endmembers: np.ndarray
    abundances: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    termination: str
    restarts: int = 0  # inertial steps rejected, each restarting the momentum
    # The gradient mapping's norm at exit over the first iteration's; nan if not measured
    stationarity: float = math.nan
    # Per block, "endmembers" and "abundances": its passes, the projected steps
    # they took (a redone pass's included) and the passes redone with plain steps
    stats: dict = field(default_factory=dict)

    def reconstruction(self):
        return self.endmembers @ self.abundances


# ---------------------------------------------------------------------------
# The coupled objective
# ---------------------------------------------------------------------------

def _finite_array(name, array):
    array = _as_matrix(array, name)
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


def _sym_norm(m):
    """Largest eigenvalue of a small symmetric PSD matrix."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(m)[-1])


class _Problem:
    """The coupled objective on fixed data: its value and, per block pass,
    the block's step map, Lipschitz constant and objective, reusing F^T F,
    |F^T F|_2 and |G^T G|_2. ``step_map(t, keep=1.0)`` is the map X -> keep
    X - t grad(X): step_map(t) steps and step_map(-1.0, 0.0) is the
    gradient. G is applied sparsely and only to abundances (materials
    rows), never to a bands x L image."""

    def __init__(self, y_ms, y_hs, spectral, spatial):
        self.g = spatial
        self.y_ms = _finite_array("y_ms", y_ms)
        self.y_hs = _finite_array("y_hs", y_hs)
        self.f = _finite_array("spectral", spectral)
        # The data as check_axes inputs, named as the public functions name them.
        self.inputs = (("spectral", "spectral", self.f), ("spatial", "spatial", spatial),
                       ("y_ms", "ms", self.y_ms), ("y_hs", "hs", self.y_hs))
        raise_first(check_axes(*self.inputs))
        _energy("spectral", self.f)
        self.ftf = self.f.T @ self.f
        self.lip_ftf = _sym_norm(self.ftf)
        # Each residual entry carries rounding error of order eps |y|, so
        # objective values below eps^2 |Y|^2 are rounding, not fit.
        self.roundoff = np.finfo(float).eps ** 2 * (
            _energy("y_ms", self.y_ms) + _energy("y_hs", self.y_hs))

    @functools.cached_property
    def lip_g(self):
        # Two sparse products on first use: the objective value alone never needs them.
        return self.g.gram_norm()

    def factors(self, endmembers, abundances):
        """The factors as float arrays, checked against the data's axes."""
        a = _as_matrix(endmembers, "endmembers")
        s = _as_matrix(abundances, "abundances")
        raise_first(check_axes(*self.inputs, ("endmembers", "endmembers", a),
                               ("abundances", "abundances", s)))
        return a, s

    def value(self, a, s, sg=None):
        """The objective at (A, S); ``sg`` is S G when the caller has it.
        Each residual's square sum is one einsum, which, unlike a BLAS dot,
        sums in an order that does not depend on the thread count."""
        if sg is None:
            sg = self.g.apply(s)
        r_ms = (self.f @ a) @ s - self.y_ms
        r_hs = a @ sg - self.y_hs
        return float(np.einsum("ij,ij->", r_ms, r_ms) + np.einsum("ij,ij->", r_hs, r_hs))

    def endmember_pass(self, s, sg=None):
        """(step map in A, Lipschitz constant, objective in A) at fixed S. The
        Hessian 2 (F^T F x S S^T + I x SG (SG)^T) is at most L = 2 lambda_max(
        |F^T F| S S^T + SG (SG)^T): diagonalise F^T F; S S^T is PSD. The map is
        A (keep I - 2t SG (SG)^T) - (2t F^T F A) S S^T + 2t (F^T Y_ms S^T + Y_hs
        (SG)^T), its three factors formed once per map."""
        if sg is None:
            sg = self.g.apply(s)
        sst = s @ s.T
        sg_sgt = sg @ sg.T
        lipschitz = 2.0 * _sym_norm(self.lip_ftf * sst + sg_sgt)
        const = self.f.T @ (self.y_ms @ s.T) + self.y_hs @ sg.T

        def step_map(t, keep=1.0):
            m = keep * np.eye(len(sst)) - 2.0 * t * sg_sgt
            k = 2.0 * t * self.ftf
            c = 2.0 * t * const
            def move(a):
                out = a @ m
                out -= (k @ a) @ sst
                out += c
                return out
            return move

        return step_map, lipschitz, lambda a: self.value(a, s, sg)

    def abundance_pass(self, a):
        """(step map in S, Lipschitz constant, objective in S) at fixed A.
        S moves only along 1^T D = 0, where the Hessian 2 (FA^T FA x I + A^T A
        x G G^T) is at most L = 2 lambda_max(P (FA^T FA + |G^T G| A^T A) P),
        P = I - 1 1^T / n: diagonalise G G^T, and A^T A is PSD. One material
        leaves no such direction, and L = 0. With S pixel-major, the map's
        L x n transpose is S^T (keep I - 2t FA^T FA) - G (G^T S^T 2t A^T A) +
        t C^T: the n x n factors and t C^T are formed once per map, and a
        call makes two sparse products."""
        fa = self.f @ a
        fatfa = fa.T @ fa
        ata = a.T @ a
        p = np.eye(len(ata)) - 1.0 / len(ata)
        lipschitz = 2.0 * _sym_norm(p @ (fatfa + self.lip_g * ata) @ p)
        # C^T = 2 (Y_ms^T FA + G Y_hs^T A), Y_hs^T A C-order for the adjoint.
        const_t = 2.0 * (self.y_ms.T @ fa + self.g.adjoint((self.y_hs.T @ a).T).T)

        def step_map(t, keep=1.0):
            m = keep * np.eye(len(ata)) - 2.0 * t * fatfa
            k = -2.0 * t * ata
            c = t * const_t
            def move(s):
                out = s.T @ m
                out += self.g.adjoint((self.g.apply(s).T @ k).T).T
                out += c
                return out.T
            return move

        return step_map, lipschitz, functools.partial(self.value, a)


def objective(endmembers, abundances, y_ms, y_hs, spectral, spatial):
    """Coupled data fidelity: |Y_ms - F A S|_F^2 + |Y_hs - A S G|_F^2."""
    problem = _Problem(y_ms, y_hs, spectral, spatial)
    return problem.value(*problem.factors(endmembers, abundances))


def endmember_gradient(endmembers, abundances, y_ms, y_hs, spectral, spatial):
    """Gradient of the coupled objective in the endmember block."""
    problem = _Problem(y_ms, y_hs, spectral, spatial)
    a, s = problem.factors(endmembers, abundances)
    return problem.endmember_pass(s)[0](-1.0, 0.0)(a)


def abundance_gradient(endmembers, abundances, y_ms, y_hs, spectral, spatial):
    """Gradient of the coupled objective in the abundance block."""
    problem = _Problem(y_ms, y_hs, spectral, spatial)
    a, s = problem.factors(endmembers, abundances)
    return problem.abundance_pass(a)[0](-1.0, 0.0)(s)


# ---------------------------------------------------------------------------
# Simplex projection
# ---------------------------------------------------------------------------

def project_columns_to_simplex(v):
    """Euclidean projection of every column onto the unit simplex.

    Sort-based threshold: with the column sorted decreasingly, the active
    size is the largest k for which u_k > (sum of the top k - 1) / k, and
    the output is max(v - theta, 0) at the matching threshold, or at the
    last k when none is active (entries of 2^53 and more, where u - 1 ==
    u). Exact in O(n log n) per column, in a fixed count of whole-array
    operations. The work runs on v^T, one row per column, contiguous for
    the solver's pixel-major abundances; the output has ``v``'s layout.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError("need a nonempty 2-D array of column vectors")
    n = v.shape[0]
    rows = v.T
    u = np.sort(rows, axis=1)[:, ::-1]
    partial = np.cumsum(u, axis=1)
    partial -= 1.0
    partial /= np.arange(1.0, n + 1.0)
    last = np.argmax((u > partial)[:, ::-1], axis=1)
    theta = partial[np.arange(len(u)), n - 1 - last]
    return np.maximum(rows - theta[:, None], 0.0).T


def _project_on_support(v, support, count):
    """The projection of ``project_columns_to_simplex``, checked against a
    guess of each column's support instead of sorted.

    ``support`` is an L x n boolean C-order guess, one row per column of
    ``v``, and ``count`` its row sizes. On a column's guessed support P,
    theta = (sum_P v - 1) / |P|; when v - theta > 0 holds on P and nowhere
    else, max(v - theta, 0) meets the KKT conditions, so it is the (unique)
    projection. Other columns go through the sort formula. The work runs on
    v^T, with no transposing copy. Returns the projection, pixel-major, and
    its support, the next guess, whose sizes ``count`` takes in place.
    """
    rows = v.T
    n = rows.shape[1]
    # A running sum, as the sort formula's: past 2^53 the check's verdict
    # turns on the sum's last bit, where a blocked (BLAS) sum can differ.
    theta = functools.reduce(np.add, (rows * support).T)
    theta -= 1.0
    with np.errstate(divide="ignore"):
        theta /= count  # an empty guess gives -inf, which every entry fails
    x = theta.repeat(n).reshape(rows.shape)
    np.subtract(rows, x, out=x)
    found = x > 0.0
    np.maximum(x, 0.0, out=x)
    wrong = (found != support).ravel().nonzero()[0]
    if wrong.size:
        missed = np.zeros(len(rows), dtype=bool)
        missed[wrong // n] = True
        miss = missed.nonzero()[0]
        fixed = project_columns_to_simplex(rows[miss].T).T
        x[miss] = fixed
        found[miss] = on = fixed > 0.0
        count[miss] = on.sum(axis=1)
    return x.T, found


def _support_projection(s):
    """The S passes' projection, guessing each column's support from the
    previous output, the first time from ``s``."""
    support = np.ascontiguousarray(s.T > 0.0)
    count = support.astype(float) @ np.ones(support.shape[1])  # sum(axis=1) is slow

    def project(v):
        nonlocal support
        x, support = _project_on_support(v, support, count)
        return x

    return project


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


def _clip_to_box(z):
    """The endmember passes' projection, clipping the map's new array in place."""
    return np.minimum(np.maximum(z, 0.0, out=z), 1.0, out=z)


def _descend(x, block, project, f_start, steps, counts):
    """One block pass from ``x`` by ``block``, (step_map, L, evaluate), with
    the ends, plain redo and flat-block rule of the module docstring and
    ``steps`` as the cap. Returns the new iterate, its objective and the
    gradient mapping's norm at ``x``, |x - x_1| L (0 if flat). Nothing is
    written into ``x``, which the redo starts from. ``counts``, the block's
    Solution.stats entry, gains the pass (unless flat), its steps and a redo."""
    step_map, lipschitz, evaluate = block
    if lipschitz <= _TINY:
        return x, f_start, 0.0
    counts["passes"] += 1
    step = 1.0 / lipschitz
    move = step_map(step)
    # Every entry of A and S lies in [0, 1], so a step whose squared length is
    # at most eps^2 per entry moves the block no farther than its rounding.
    rounding = np.finfo(float).eps ** 2 * x.size
    for accelerate in (True, False):
        x_new = y = x
        t = 1.0
        for i in range(steps):
            x_last, x_new = x_new, project(move(y))
            if 0 < i == steps - 1:  # the cap ends the pass; no length is needed
                break
            d = x_new - x_last
            # einsum, not a BLAS dot, whose order of summation follows the thread count
            length = np.einsum("ij,ij->", d, d)
            if i == 0:
                first = length
            if length <= rounding or (i and length <= _STALL * _STALL * first):
                break
            y = x_new
            if accelerate:
                t, beta = _momentum(t)
                if beta:
                    d *= beta
                    d += x_new
                    y = d
        counts["steps"] += i + 1
        if accelerate:
            mapping = math.sqrt(first) / step
        f_new = _finite(evaluate(x_new))
        if f_new <= f_start * (1.0 + 1e-12) + 1e-300:
            return x_new, f_new, mapping
        if accelerate:
            counts["fallbacks"] += 1
    return x, f_start, mapping


def _initialize(problem, materials):
    """The pure-pixel start (A0, S0), feasible, with S0 pixel-major:
    successive projection on the HS image, then the min-norm least squares
    fit of the MS image against F A0, projected onto the simplex."""
    a0 = spa_initialize(problem.y_hs, materials)
    s0 = np.linalg.pinv(problem.f @ a0) @ problem.y_ms  # the min-norm fit, as lstsq's
    return a0, project_columns_to_simplex(np.asfortranarray(s0))


def solve_coupled(y_ms, y_hs, spectral, spatial, config):
    """Run the accelerated alternating projected descent scheme from the
    pure-pixel start: spa_initialize on the HS image, then the MS image's
    min-norm least squares fit, projected onto the simplex.

    Every iterate is feasible by construction. The objective trace can
    rise only within a block pass's roundoff slack, 1e-12 f + 1e-300, so
    by about 2e-12 relative per iteration at most. Stops on an optional
    absolute objective floor ("objective_floor"), then on the relative
    objective change, an objective at the data's rounding level or a
    stationary iterate (all "converged"), or at the outer iteration cap
    (the cap is a termination reason, not an error). Stationary means
    r_k <= 1e-4 r_1, r_k being iteration k's gradient mapping norm (see the
    module docstring) and r_1 at least 1e-300; Solution.stationarity holds
    r_k / r_1 at exit. A block pass takes at most config.inner_steps steps;
    Solution.stats counts each block's passes, steps and plain fallbacks.
    Non-finite inputs, data whose squares overflow and inputs that disagree
    on an axis raise ValueError, and so do a spectral response that fails
    validate_spectral and a spatial response that fails validate(), with
    the first violation, before any product.
    """
    problem = _Problem(y_ms, y_hs, spectral, spatial)
    raise_first(validate_spectral(problem.f) + spatial.validate())
    a, s = _initialize(problem, config.materials)
    f_cur = _finite(problem.value(a, s))
    trace = [f_cur]
    termination = "max_iterations"
    iterations = restarts = 0
    stats = {block: {"passes": 0, "steps": 0, "fallbacks": 0}
             for block in ("endmembers", "abundances")}
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
            cols = (functools.reduce(np.minimum, s_try) < 0.0).nonzero()[0]
            if cols.size:
                rows[cols] = project_columns_to_simplex(rows[cols].T).T
            sg_try = problem.g.apply(s_try)
            f_try = _finite(problem.value(a_try, s_try, sg_try))
            if f_try <= f_cur:
                a, s, sg, f_cur = a_try, s_try, sg_try, f_try
            else:
                t_next = 1.0
                restarts += 1
        a_prev, s_prev, t = a_last, s_last, t_next

        a, f_cur, r_a = _descend(a, problem.endmember_pass(s, sg), _clip_to_box, f_cur,
                                 config.inner_steps, stats["endmembers"])
        s, f_cur, r_s = _descend(s, problem.abundance_pass(a), _support_projection(s), f_cur,
                                 config.inner_steps, stats["abundances"])
        mapping = math.hypot(r_a, r_s)
        if outer == 1:
            r_first = max(mapping, _TINY)
        stationarity = mapping / r_first

        prev = trace[-1]
        trace.append(f_cur)
        if f_cur <= config.objective_floor:
            termination = "objective_floor"
            break
        if (abs(prev - f_cur) / max(prev, _TINY) < config.rel_tol or f_cur <= problem.roundoff
                or stationarity <= _STATIONARY):
            termination = "converged"
            break

    return Solution(
        endmembers=a,
        abundances=s,
        objective_trace=np.asarray(trace),
        iterations=iterations,
        termination=termination,
        restarts=restarts,
        stationarity=stationarity,
        stats=stats,
    )
