"""Recovery certificates for the coupled factorization problem.

Computes every quantity in the per-pixel recovery bound
    error_j <= dominance * |A|_2 * sqrt(1 + condition^2)
               * (4 + 2 / peak_weight_j) * balance
and validates the structural conditions it rests on: full rank,
rank-limited sparsity of the decimated abundances, pure HS windows, and
spectral dominance of the endmembers. Also provides the proof-level
operations: alignment of an estimated factorization to the ground truth,
the per-pixel abundance inequality chain, the diagonally-dominant singular
value floor, and a Monte Carlo check of the dominance probability bound.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import decimate_abundances

SUBSET_GUARD = 20  # subset enumeration cap for every subset reduction below
SUBSET_BLOCK = 2048  # subsets per stacked SVD: bounds the gathered copy at any n <= guard
SINGULAR_REL = 1e-9  # rank decisions: singular value ratio to the largest
SUPPORT_TOL = 1e-9  # decimated abundance entries above this count as support
PURE_TOL = 1e-6  # max deviation of a pure window from a unit vector


def _guarded(n):
    """n, after raising if n columns exceed the enumeration guard."""
    if n > SUBSET_GUARD:
        raise ValueError(f"column count {n} exceeds enumeration guard {SUBSET_GUARD}")
    return n


def _subset_spectra(a, size, principal=False):
    """(rows, sv) blocks over every size-`size` column subset of a.

    rows: column indices in itertools.combinations order; sv: singular
    values (descending) of the blocks a[:, rows], or of the principal
    blocks a[rows, rows], from one stacked SVD per SUBSET_BLOCK subsets.
    Raises at once past SUBSET_GUARD columns; blocks are drawn lazily.
    """
    n = _guarded(a.shape[1])
    combos = itertools.combinations(range(n), size)
    blocks = map(np.array, iter(lambda: list(itertools.islice(combos, SUBSET_BLOCK)), []))
    every_row = np.arange(a.shape[0])[:, None]
    return ((sub, np.linalg.svd(a[sub[:, :, None] if principal else every_row, sub[:, None, :]],
                                compute_uv=False)) for sub in blocks)


# ---------------------------------------------------------------------------
# Certificate ingredients
# ---------------------------------------------------------------------------

class _SubsetTables:
    """sigma_min and sigma_max of a's column subsets, indexed by bitmask.

    Each subset size is enumerated at most once, through one
    _subset_spectra generator drawn on demand, so each subset is
    decomposed at most once; Kruskal rank and the subset condition number are
    reductions over the same tables, so a certificate that needs both
    decomposes every subset once. Raises past SUBSET_GUARD columns before
    any work.
    """

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        n = _guarded(self.a.shape[1])
        self.smin, self.smax = np.zeros(1 << n), np.zeros(1 << n)
        self.floors = {}

    def floor(self, k, stop=-math.inf):
        """Smallest sigma_min over the k-subsets, filling their entries of
        both tables block by block. The enumeration pauses at the first
        block whose sigma_min is at or below `stop`, returning that
        block's floor; a later request resumes it where it paused."""
        if k not in self.floors:
            self.floors[k] = [_subset_spectra(self.a, k), math.inf]
        entry = self.floors[k]
        blocks, floor = entry
        while floor > stop:
            block = next(blocks, None)
            if block is None:
                break
            rows, sv = block
            mask = (1 << rows).sum(axis=1)
            self.smin[mask], self.smax[mask] = sv[:, -1], sv[:, 0]
            floor = min(floor, float(sv[:, -1].min()))
        entry[1] = floor
        return floor

    def kruskal(self, tol=SINGULAR_REL):
        """Largest k <= min(m, n) with every k-subset's sigma_k above
        tol * sigma_max(a); sizes are visited in order up to the first
        with a dependent subset, and that size's enumeration stops at the
        first block holding one."""
        m, n = self.a.shape
        scale = max(np.linalg.svd(self.a, compute_uv=False), default=0.0)
        k = 0
        for size in range(1, min(m, n) + 1):
            if self.floor(size, stop=tol * scale) <= tol * scale:
                return k
            k = size
        return k

    def condition(self):
        """max sigma_max(complement) / sigma_min(subset) over proper subsets."""
        n = self.a.shape[1]
        if self.a.size == 0:
            return 0.0
        for size in range(1, n):
            self.floor(size)
        full = (1 << n) - 1
        # mask j in 1 .. full-1 has complement full - j
        top, bottom = self.smax[full - 1:0:-1], self.smin[1:full]
        live = top != 0.0
        if (bottom[live] <= 0.0).any():
            return math.inf
        return float((top[live] / bottom[live]).max(initial=0.0))


def kruskal_rank(a, tol=SINGULAR_REL):
    """Largest k such that every k-column subset is linearly independent.

    Independence is decided by the k-th singular value of the subset
    exceeding tol times the largest singular value of the full matrix.
    Exhaustive over subsets by increasing size, with early exit at the
    first block of SUBSET_BLOCK subsets that holds a dependent one;
    guarded at 20 columns.
    """
    a = np.asarray(a, dtype=float)
    _, n = a.shape
    if n < 1:
        raise ValueError("need at least one column")
    return _SubsetTables(a).kruskal(tol)


def dominance_coefficient(endmembers):
    """Worst-case spectral dominance coefficient of an endmember matrix.

    For each ordered material pair (j, i) take the minimum over bands k
    with a[k, i] < 1/n of (1 - a[k, j]) / (1 - n * a[k, i]); return the
    maximum over pairs. Returns +inf when some column has no band below
    1/n (the coefficient is then undefined and no guarantee applies).
    """
    a = np.asarray(endmembers, dtype=float)
    n = a.shape[1]
    if n < 2:
        raise ValueError("need at least two materials")
    eps = 0.0
    for i in range(n):
        eligible = a[:, i] < 1.0 / n
        if not eligible.any():
            return math.inf
        denom = 1.0 - n * a[eligible, i]
        others = [j for j in range(n) if j != i]
        ratios = (1.0 - a[np.ix_(eligible, others)]) / denom[:, None]
        eps = max(eps, float(ratios.min(axis=0).max()))
    return eps


def subset_condition_number(a_ms):
    """Worst ratio sigma_max(complement block) / sigma_min(subset block).

    Enumerates every nonempty column subset of the MS-decimated endmember
    matrix. For rectangular blocks sigma_min means the min(m, k)-th
    singular value and the empty complement contributes sigma_max = 0.
    Returns +inf when some subset block is rank deficient. Each proper
    subset is decomposed once; its sigma_min and sigma_max go into tables
    indexed by column bitmask, so a complement's sigma_max is a lookup.
    """
    return _SubsetTables(a_ms).condition()


def support_balance(materials, kruskal):
    """Upper envelope of sqrt(|J| (n - |J|)) over support sizes |J| <= kruskal."""
    n, k = materials, kruskal
    if n < 2:
        raise ValueError("need at least two materials")
    if not 1 <= k <= n:
        raise ValueError(f"kruskal rank {k} outside [1, {n}]")
    if 2 * k >= n:
        return n / 2.0
    return math.sqrt(k * (n - k))


def peak_window_weights(spatial):
    """Per SR pixel, the largest decimation weight over covering windows."""
    gamma = np.zeros(spatial.sr_pixel_count)
    np.maximum.at(gamma, spatial.pixels, spatial.weights)
    missing = np.flatnonzero(gamma <= 0.0)
    if missing.size:
        raise ValueError(f"SR pixel {int(missing[0])} is not covered by any window")
    return gamma


# ---------------------------------------------------------------------------
# Assumption report and certificate
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport:
    """Pass/fail per structural condition, with witnesses."""

    full_rank: bool
    full_rank_detail: str
    sparsity: bool
    sparsity_detail: str
    pure_pixels: bool
    pure_pixels_detail: str
    dominance: bool
    dominance_detail: str
    kruskal: int
    dominance_value: float
    pure_indices: list[int] | None
    worst_support_pixel: int
    worst_support_size: int

    @property
    def all_passed(self):
        return self.full_rank and self.sparsity and self.pure_pixels and self.dominance

    def to_dict(self):
        return {
            "full_rank": {"passed": self.full_rank, "detail": self.full_rank_detail},
            "sparsity": {"passed": self.sparsity, "detail": self.sparsity_detail},
            "pure_pixels": {"passed": self.pure_pixels, "detail": self.pure_pixels_detail},
            "dominance": {"passed": self.dominance, "detail": self.dominance_detail},
            "kruskal": self.kruskal,
            "dominance_value": self.dominance_value,
            "pure_indices": self.pure_indices,
            "worst_support": [self.worst_support_pixel, self.worst_support_size],
            "all_passed": self.all_passed,
        }


@dataclass
class Certificate:
    """All factors of the per-pixel recovery bound for a concrete scene."""

    kruskal: int
    dominance: float
    condition: float
    balance: float
    peak_weights: np.ndarray
    endmember_norm: float
    pixel_bounds: np.ndarray
    assumptions: AssumptionReport

    def to_dict(self):
        return {
            "kruskal": self.kruskal,
            "dominance": self.dominance,
            "condition": self.condition,
            "balance": self.balance,
            "endmember_norm": self.endmember_norm,
            "peak_weights": self.peak_weights.tolist(),
            "pixel_bounds": self.pixel_bounds.tolist(),
            "assumptions": self.assumptions.to_dict(),
        }


def check_assumptions(endmembers, abundances, spectral, spatial):
    """Validate the four structural conditions on a concrete scene.

    Report-only: every condition gets a pass/fail flag and a witness
    (pure window indices, worst support size, dominance value). An
    invalid spatial response raises its first violation as ValueError.
    """
    return _assess(endmembers, abundances, spectral, spatial)[0]


def _assess(endmembers, abundances, spectral, spatial):
    """check_assumptions' report, and the subset tables of F A behind its
    Kruskal rank for the certificate to reduce further."""
    problems = spatial.validate()
    if problems:
        raise ValueError(str(problems[0]))
    a = np.asarray(endmembers, dtype=float)
    s = np.asarray(abundances, dtype=float)
    f = np.asarray(spectral, dtype=float)
    n = a.shape[1]
    decimated = decimate_abundances(s, spatial)

    sv_a = np.linalg.svd(a, compute_uv=False)
    sv_s = np.linalg.svd(decimated, compute_uv=False)
    rank_a = a.shape[0] >= n and sv_a[-1] > SINGULAR_REL * sv_a[0]
    rank_s = decimated.shape[1] >= n and len(sv_s) == n and sv_s[-1] > SINGULAR_REL * sv_s[0]
    full_rank = bool(rank_a and rank_s)
    rank_detail = (
        f"endmember sv ratio {sv_a[-1] / sv_a[0]:.3e}, "
        f"decimated-abundance sv ratio {(sv_s[-1] / sv_s[0]) if len(sv_s) else 0.0:.3e}"
    )

    tables = _SubsetTables(f @ a)
    kruskal = tables.kruskal()
    support_sizes = (np.abs(decimated) > SUPPORT_TOL).sum(axis=0)
    worst_pixel = int(np.argmax(support_sizes))
    worst_size = int(support_sizes[worst_pixel])
    sparsity = worst_size <= kruskal
    sparsity_detail = (
        f"max support {worst_size} at HS pixel {worst_pixel}, kruskal rank {kruskal}"
    )

    pure_indices = []
    for material in range(n):
        target = np.zeros(n)
        target[material] = 1.0
        gaps = np.abs(decimated - target[:, None]).max(axis=0)
        best = int(np.argmin(gaps))
        if gaps[best] <= PURE_TOL:
            pure_indices.append(best)
    pure = len(pure_indices) == n and len(set(pure_indices)) == n
    pure_detail = (
        f"pure windows {pure_indices}" if pure
        else f"found {len(set(pure_indices))} of {n} pure windows"
    )

    # inf exactly when some column has no band below 1/n
    dominance_value = dominance_coefficient(a)
    dominance = dominance_value < 1.0 / (4.0 * n)
    dominance_detail = (
        f"dominance {dominance_value:.6g} vs threshold {1.0 / (4.0 * n):.6g}"
        + (" (some column has no band below 1/n)" if math.isinf(dominance_value) else "")
    )

    report = AssumptionReport(
        full_rank=full_rank,
        full_rank_detail=rank_detail,
        sparsity=bool(sparsity),
        sparsity_detail=sparsity_detail,
        pure_pixels=bool(pure),
        pure_pixels_detail=pure_detail,
        dominance=bool(dominance),
        dominance_detail=dominance_detail,
        kruskal=kruskal,
        dominance_value=float(dominance_value),
        pure_indices=pure_indices if pure else None,
        worst_support_pixel=worst_pixel,
        worst_support_size=worst_size,
    )
    return report, tables


def certify(endmembers, abundances, spectral, spatial):
    """Instantiate the per-pixel recovery bound for a concrete scene.

    Degenerate inputs (undefined dominance, zero Kruskal rank) yield
    infinite bounds rather than errors: the certificate degrades to "no
    guarantee". An invalid spatial response raises its first violation
    as ValueError. Kruskal rank and the condition number come from one
    decomposition of each column subset of F A.
    """
    report, tables = _assess(endmembers, abundances, spectral, spatial)
    a = np.asarray(endmembers, dtype=float)
    n = a.shape[1]
    kruskal, dominance = report.kruskal, report.dominance_value
    condition = tables.condition()
    gamma = peak_window_weights(spatial)
    norm_a = float(np.linalg.svd(a, compute_uv=False)[0])
    balance = support_balance(n, kruskal) if kruskal >= 1 else math.nan
    if math.isfinite(dominance) and math.isfinite(condition) and kruskal >= 1:
        pixel_bounds = (
            dominance * norm_a * math.sqrt(1.0 + condition ** 2)
            * (4.0 + 2.0 / gamma) * balance
        )
    else:
        pixel_bounds = np.full(spatial.sr_pixel_count, math.inf)
    return Certificate(
        kruskal=kruskal,
        dominance=dominance,
        condition=float(condition),
        balance=float(balance),
        peak_weights=gamma,
        endmember_norm=norm_a,
        pixel_bounds=np.asarray(pixel_bounds, dtype=float),
        assumptions=report,
    )


# ---------------------------------------------------------------------------
# Dominance probability (random reflectance endmembers)
# ---------------------------------------------------------------------------

class DominanceProbability(NamedTuple):
    raw: float
    clamped: float


def dominance_probability(materials, bands):
    """Analytic lower bound on the dominance success rate of uniform draws.

    1 - n(n-1) exp(-m / (8 n^2)); the raw value can be negative, the
    clamped one is cut to [0, 1] for reporting.
    """
    n, m = materials, bands
    if n < 1 or m < 1:
        raise ValueError("materials and bands must be >= 1")
    raw = 1.0 - n * (n - 1) * math.exp(-m / (8.0 * n * n))
    return DominanceProbability(raw=raw, clamped=min(1.0, max(0.0, raw)))


class DominanceMonteCarlo(NamedTuple):
    rate: float
    successes: int
    trials: int


def dominance_monte_carlo(materials, bands, trials, seed=0):
    """Empirical dominance success rate over uniform endmember draws."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = materials
    rng = np.random.default_rng(seed)
    threshold = 1.0 / (4.0 * n)
    successes = 0
    for _ in range(trials):
        a = rng.uniform(0.0, 1.0, size=(bands, n))
        if dominance_coefficient(a) < threshold:
            successes += 1
    return DominanceMonteCarlo(rate=successes / trials, successes=successes, trials=trials)


# ---------------------------------------------------------------------------
# Diagonally dominant singular value floor
# ---------------------------------------------------------------------------

def varah_lower_bound(b):
    """Varah's floor on the smallest singular value.

    With c_i = |b_ii| - sum_{k != i} |b_ki| and d_i the row analogue, if
    all c_i > 0 and d_i > 0 the smallest singular value is at least
    min_i min(c_i, d_i). Returns None when the matrix is not strictly
    diagonally dominant both ways.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("need a square matrix")
    absb = np.abs(b)
    diag = np.diag(absb)
    c = diag - (absb.sum(axis=0) - diag)
    d = diag - (absb.sum(axis=1) - diag)
    if (c <= 0.0).any() or (d <= 0.0).any():
        return None
    return float(min(c.min(), d.min()))


# ---------------------------------------------------------------------------
# Alignment of an estimated factorization against the ground truth
# ---------------------------------------------------------------------------

@dataclass
class AlignmentReport:
    """Mixing matrix linking an estimate to the truth, and its diagnostics.

    mixing is the nonsingular R with estimate = truth @ inverse(R) on the
    endmember side and estimated decimated abundances = R @ true ones;
    permuted_mixing is the row permutation of R that concentrates its mass
    on the diagonal.
    """

    mixing: np.ndarray
    permutation: np.ndarray
    permuted_mixing: np.ndarray
    max_offdiagonal: float
    submatrix_floor: float
    min_singular: float
    stochastic_pass: bool
    stochastic_margin: float
    offdiagonal_pass: bool
    dominance: float
    method: str
    consistency_residual: float

    def to_dict(self):
        return {
            "mixing": self.mixing.tolist(),
            "permutation": self.permutation.tolist(),
            "max_offdiagonal": self.max_offdiagonal,
            "submatrix_floor": self.submatrix_floor,
            "min_singular": self.min_singular,
            "stochastic_pass": self.stochastic_pass,
            "stochastic_margin": self.stochastic_margin,
            "offdiagonal_pass": self.offdiagonal_pass,
            "dominance": self.dominance,
            "method": self.method,
            "consistency_residual": self.consistency_residual,
        }


def _pivot_permutation(r):
    """Row order by partial pivoting: position i takes the unused row with
    the largest column-i entry (ties to the lowest row index)."""
    n = r.shape[0]
    unused = list(range(n))
    perm = []
    for i in range(n):
        best = max(unused, key=lambda row: (r[row, i], -row))
        perm.append(best)
        unused.remove(best)
    return np.array(perm, dtype=int)


def _assignment_permutation(r):
    """Row order maximizing the diagonal sum (Hungarian assignment)."""
    rows, cols = linear_sum_assignment(-r)
    perm = np.empty(r.shape[0], dtype=int)
    perm[cols] = rows
    return perm


def principal_floor(r_tilde, kruskal=None):
    """Smallest sigma_min over principal submatrices of the permuted mixing.

    Sizes range from n - kruskal to n - 1 (all of 1 .. n-1 when kruskal is
    not given); guarded at SUBSET_GUARD rows.
    """
    n = r_tilde.shape[0]
    k = n - 1 if kruskal is None else kruskal
    floor = math.inf
    for size in range(max(1, n - k), n):
        for _, sv in _subset_spectra(r_tilde, size, principal=True):
            floor = min(floor, float(sv[:, -1].min()))
    return floor


def extract_alignment(true_endmembers, endmembers, true_decimated, decimated,
                      kruskal=None, tol=1e-9, stochastic_tol=1e-6):
    """Recover the mixing matrix between an estimate and the ground truth.

    The inverse mixing is pinv(true endmembers) @ estimated endmembers.
    The row permutation is searched by partial pivoting first, then by
    Hungarian assignment if the pivoted matrix fails the off-diagonal
    test against the dominance coefficient.
    """
    a_true = np.asarray(true_endmembers, dtype=float)
    a_est = np.asarray(endmembers, dtype=float)
    s_true = np.asarray(true_decimated, dtype=float)
    s_est = np.asarray(decimated, dtype=float)
    n = a_true.shape[1]

    r_inv = np.linalg.pinv(a_true) @ a_est
    sv = np.linalg.svd(r_inv, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise RuntimeError("mixing matrix is numerically singular")
    mixing = np.linalg.inv(r_inv)

    dominance = dominance_coefficient(a_true)
    perm = _pivot_permutation(mixing)
    permuted = mixing[perm]
    method = "partial_pivoting"
    off = permuted - np.diag(np.diag(permuted))
    if off.max() > dominance + tol:
        alt_perm = _assignment_permutation(mixing)
        alt = mixing[alt_perm]
        alt_off = alt - np.diag(np.diag(alt))
        if alt_off.max() < off.max():
            perm, permuted, off = alt_perm, alt, alt_off
            method = "hungarian"
    offdiagonal_pass = bool(off.max() <= dominance + tol)

    colsums = mixing.sum(axis=0)
    stochastic_margin = float(max(
        max(0.0, float(-mixing.min())),
        max(0.0, float(mixing.max() - 1.0)),
        float(np.abs(colsums - 1.0).max()),
    ))
    rho = float(np.abs(off).max()) if n > 1 else 0.0
    residual = float(
        np.linalg.norm(s_est - mixing @ s_true) / max(1.0, np.linalg.norm(s_true))
    )
    return AlignmentReport(
        mixing=mixing,
        permutation=perm,
        permuted_mixing=permuted,
        max_offdiagonal=rho,
        submatrix_floor=principal_floor(permuted, kruskal),
        min_singular=float(np.linalg.svd(permuted, compute_uv=False)[-1]),
        stochastic_pass=bool(stochastic_margin <= stochastic_tol),
        stochastic_margin=stochastic_margin,
        offdiagonal_pass=offdiagonal_pass,
        dominance=float(dominance),
        method=method,
        consistency_residual=residual,
    )


# ---------------------------------------------------------------------------
# Per-pixel abundance inequality chain
# ---------------------------------------------------------------------------

@dataclass
class PixelBoundReport:
    """Per-pixel check of the abundance error inequality and its image
    counterpart."""

    applicable: bool
    abundance_error: np.ndarray
    abundance_bound: np.ndarray
    pixel_error: np.ndarray
    abundance_pass: bool
    chain_pass: bool
    worst_abundance_margin: float
    worst_chain_margin: float

    def to_dict(self):
        return {
            "applicable": self.applicable,
            "abundance_pass": self.abundance_pass,
            "chain_pass": self.chain_pass,
            "worst_abundance_margin": self.worst_abundance_margin,
            "worst_chain_margin": self.worst_chain_margin,
            "max_abundance_error": float(self.abundance_error.max()) if self.abundance_error.size else 0.0,
            "max_pixel_error": float(self.pixel_error.max()) if self.pixel_error.size else 0.0,
        }


def verify_abundance_error_bound(scene, solution, alignment, certificate, slack=1e-9):
    """Check, pixel by pixel, the abundance error inequality

        |s_true_j - inv(R) s_est_j| <=
            sqrt(1 + condition^2) * (rho * balance / floor)
            * (1 / sigma_min(permuted R) + 1 / peak_weight_j)

    and the image-domain consequence
        |A_true s_true_j - A_est s_est_j| <= |A_true|_2 * lhs_j.

    Inapplicable (reported, not raised) when the principal submatrix floor
    is not positive.
    """
    s_true = scene.abundances
    s_est = solution.abundances
    a_true = scene.endmembers
    a_est = solution.endmembers

    beta = alignment.submatrix_floor
    if not (beta > 0.0) or not math.isfinite(beta):
        empty = np.zeros(0)
        return PixelBoundReport(
            applicable=False,
            abundance_error=empty, abundance_bound=empty, pixel_error=empty,
            abundance_pass=False, chain_pass=False,
            worst_abundance_margin=math.inf, worst_chain_margin=math.inf,
        )

    r_inv = np.linalg.inv(alignment.mixing)
    diff = s_true - r_inv @ s_est
    lhs = np.linalg.norm(diff, axis=0)
    coeff = (
        math.sqrt(1.0 + certificate.condition ** 2)
        * alignment.max_offdiagonal * certificate.balance / beta
    )
    rhs = coeff * (1.0 / alignment.min_singular + 1.0 / certificate.peak_weights)

    pixel_err = np.linalg.norm(a_true @ s_true - a_est @ s_est, axis=0)
    chain_rhs = certificate.endmember_norm * lhs

    abundance_margin = float((lhs - rhs).max())
    chain_margin = float((pixel_err - chain_rhs).max())
    return PixelBoundReport(
        applicable=True,
        abundance_error=lhs,
        abundance_bound=rhs,
        pixel_error=pixel_err,
        abundance_pass=bool(abundance_margin <= slack),
        chain_pass=bool(chain_margin <= slack),
        worst_abundance_margin=abundance_margin,
        worst_chain_margin=chain_margin,
    )
