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

from .model import _as_matrix, check_axes, raise_first, spatial_decimate, validate_model

SUBSET_GUARD = 20  # subset enumeration cap for every subset reduction below
SUBSET_BLOCK = 2048  # subsets per stacked SVD: bounds the gathered copy at any n <= guard
SINGULAR_REL = 1e-9  # rank decisions: singular value ratio to the largest
ROUNDING_REL = 1e-12  # margin on an SVD's rounding (about 100 eps), relative to sigma_max(a)
SUPPORT_TOL = 1e-9  # decimated abundance entries above this count as support
PURE_TOL = 1e-6  # max deviation of a pure window from a unit vector
OFFDIAGONAL_TOL = 1e-9  # alignment: off-diagonal mixing entries above dominance by this fail
STOCHASTIC_TOL = 1e-6  # alignment: largest departure of the mixing from column stochastic
BOUND_SLACK = 1e-9  # per-pixel abundance and chain inequalities hold up to this margin


def _guarded(n):
    """n, after raising if n columns exceed the enumeration guard."""
    if n > SUBSET_GUARD:
        raise ValueError(f"column count {n} exceeds enumeration guard {SUBSET_GUARD}")
    return n


def _block_spectra(a, blocks, principal=False):
    """(rows, sv) per block of equal-size column subsets.

    rows: one subset's column indices per row; sv: singular values
    (descending) of the blocks a[:, rows], or of the principal blocks
    a[rows, rows], from one stacked SVD per block. Blocks are drawn lazily.
    """
    every_row = np.arange(a.shape[0])[:, None]
    return ((sub, np.linalg.svd(a[sub[:, :, None] if principal else every_row, sub[:, None, :]],
                                compute_uv=False)) for sub in blocks)


def _subset_spectra(a, size, principal=False):
    """_block_spectra over every size-`size` column subset of a, in
    itertools.combinations order and SUBSET_BLOCK subsets per block.
    Raises at once past SUBSET_GUARD columns."""
    n = _guarded(a.shape[1])
    combos = itertools.combinations(range(n), size)
    return _block_spectra(
        a, map(np.array, iter(lambda: list(itertools.islice(combos, SUBSET_BLOCK)), [])),
        principal)


def _bit_passes(table, n, combine, down):
    """Fold `table`, indexed by n-bit masks, over masks differing in one
    bit, in place: with down, each mask takes combine of itself and every
    superset; otherwise of itself and every subset."""
    for bit in range(n):
        pairs = table.reshape(-1, 2, 1 << bit)  # axis 1: whether the mask holds `bit`
        low, high = (pairs[:, 0], pairs[:, 1]) if down else (pairs[:, 1], pairs[:, 0])
        combine(low, high, out=low)
    return table


def _worst_ratio(top, bottom):
    """max top / bottom over the entries with top != 0; inf when one of
    them has bottom <= 0."""
    live = top != 0.0
    if (bottom[live] <= 0.0).any():
        return math.inf
    return float((top[live] / bottom[live]).max(initial=0.0))


# ---------------------------------------------------------------------------
# Certificate ingredients
# ---------------------------------------------------------------------------

class _SubsetTables:
    """sigma_min and sigma_max of a's column subsets, indexed by bitmask.

    Entries not decomposed yet are NaN. Each subset size is enumerated at
    most once, through one _subset_spectra generator drawn on demand, so
    each subset is decomposed at most once; Kruskal rank and the subset
    condition number are reductions over the same tables, so a
    certificate that needs both shares the subsets they decompose. Raises
    past SUBSET_GUARD columns before any work.
    """

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        n = _guarded(self.a.shape[1])
        self.smin, self.smax = np.full(1 << n, math.nan), np.full(1 << n, math.nan)
        self.floors = {}
        self.scale = max(np.linalg.svd(self.a, compute_uv=False), default=0.0)

    def _fill(self, rows, sv):
        mask = (1 << rows).sum(axis=1)
        self.smin[mask], self.smax[mask] = sv[:, -1], sv[:, 0]
        return sv[:, -1]

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
            floor = min(floor, float(self._fill(*block).min()))
        entry[1] = floor
        return floor

    def kruskal(self):
        """Largest k <= min(m, n) with every k-subset's sigma_k above
        SINGULAR_REL * sigma_max(a).

        The largest size kmax = min(m, n) is asked first: by Cauchy
        interlacing each smaller subset's sigma_min is at least that of a
        kmax-subset holding it, so a kmax floor above the threshold by a
        margin that covers the SVDs' rounding twice over gives kmax.
        Otherwise sizes are visited in order up to the first with a
        dependent subset, and that size's enumeration stops at the first
        block holding one."""
        m, n = self.a.shape
        kmax = min(m, n)
        threshold = SINGULAR_REL * self.scale
        clear = threshold + ROUNDING_REL * self.scale
        if kmax and self.floor(kmax, stop=clear) > clear:
            return kmax
        k = 0
        for size in range(1, kmax + 1):
            if self.floor(size, stop=threshold) <= threshold:
                return k
            k = size
        return k

    def condition(self):
        """max sigma_max(complement) / sigma_min(subset) over proper subsets:
        the certificate's condition number of F A. sigma_min of a block is
        its min(m, k)-th singular value; inf when some block is rank deficient.

        Exact branch and bound around k = min(m, n - 1). The k-subsets,
        their complements and the complements of single columns are
        decomposed. By Cauchy interlacing every other subset J has
            sigma_max(J^c) <= min over j in J of sigma_max({j}^c),
            sigma_min(J) >= max sigma_min over the k-supersets of J when
                            |J| <= k, over the k-subsets of J when |J| >= k.
        J is decomposed only when these bounds, each widened by twice the
        SVDs' rounding margin, leave its ratio at or above the largest
        exact one, so the result is bit for bit that of every subset, inf
        included.
        """
        m, n = self.a.shape
        if self.a.size == 0 or n < 2:
            return 0.0
        k = min(m, n - 1)
        full = (1 << n) - 1
        for size in (k, n - k, n - 1):
            self.floor(size)
        # subset J is mask 1 .. full-1; its complement is full - J
        bottom, top = self.smin[1:full], self.smax[full - 1:0:-1]
        exact = ~(np.isnan(bottom) | np.isnan(top))
        best = _worst_ratio(top[exact], bottom[exact])
        if math.isinf(best):
            return best
        margin = 2.0 * ROUNDING_REL * self.scale
        sizes = np.zeros(1, np.int64)  # popcount of each mask
        for _ in range(n):
            sizes = np.concatenate([sizes, sizes + 1])
        level = np.where(sizes == k, self.smin, -math.inf)
        lower = _bit_passes(level.copy(), n, np.maximum, down=True)
        np.copyto(lower, _bit_passes(level, n, np.maximum, down=False), where=sizes > k)
        low = lower[1:full] - margin
        singles = 1 << np.arange(n)
        caps = np.full(full + 1, math.inf)
        caps[singles] = self.smax[full - singles]
        high = _bit_passes(caps, n, np.minimum, down=False)[1:full] + margin
        masks = 1 + np.flatnonzero(~exact & ~((low > 0.0) & (high < best * low)))
        self._decompose(np.union1d(masks[np.isnan(self.smin[masks])],
                                   (full - masks)[np.isnan(self.smax[full - masks])]))
        return max(best, _worst_ratio(self.smax[full - masks], self.smin[masks]))

    def _decompose(self, masks):
        """Fill both tables at `masks`: stacked SVDs of SUBSET_BLOCK subsets
        of one size each."""
        n = self.a.shape[1]
        bits = (masks[:, None] >> np.arange(n)) & 1 == 1
        sizes = bits.sum(axis=1)
        for size in np.unique(sizes):
            rows = np.nonzero(bits[sizes == size])[1].reshape(-1, size)
            blocks = (rows[i:i + SUBSET_BLOCK] for i in range(0, len(rows), SUBSET_BLOCK))
            for block in _block_spectra(self.a, blocks):
                self._fill(*block)


def kruskal_rank(a):
    """Largest k such that every k-column subset is linearly independent.

    Independence is decided by the k-th singular value of the subset
    exceeding SINGULAR_REL times the largest singular value of the full matrix.
    The largest size min(m, n) is tried first and settles a full Kruskal
    rank alone; otherwise exhaustive over subsets by increasing size, with
    early exit at the first block of SUBSET_BLOCK subsets that holds a
    dependent one. Guarded at 20 columns.
    """
    a = np.asarray(a, dtype=float)
    _, n = a.shape
    if n < 1:
        raise ValueError("need at least one column")
    return _SubsetTables(a).kruskal()


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
    endmember_norm: float
    peak_weights: np.ndarray
    pixel_bounds: np.ndarray
    assumptions: AssumptionReport

    def to_dict(self):
        """The fields, in their JSON order, with the assumptions nested."""
        return {**vars(self), "assumptions": self.assumptions.to_dict()}


def certify(endmembers, abundances, spectral, spatial):
    """Instantiate the per-pixel recovery bound for a concrete scene.

    Validates the four structural conditions, each with a pass/fail flag
    and a witness (pure window indices, worst support size, dominance
    value), and computes every factor of the bound. Degenerate inputs
    (undefined dominance, zero Kruskal rank) yield infinite bounds rather
    than errors: the certificate degrades to "no guarantee". Inputs that
    fail validate_model raise its first violation as ValueError. Kruskal
    rank and the condition number come from one decomposition of each
    column subset of F A.
    """
    raise_first(validate_model(endmembers, abundances, spectral, spatial))
    a = np.asarray(endmembers, dtype=float)
    s = np.asarray(abundances, dtype=float)
    f = np.asarray(spectral, dtype=float)
    n = a.shape[1]
    decimated = spatial_decimate(s, spatial)

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
    dominance = dominance_coefficient(a)
    threshold = 1.0 / (4.0 * n)
    dominance_detail = (
        f"dominance {dominance:.6g} vs threshold {threshold:.6g}"
        + (" (some column has no band below 1/n)" if math.isinf(dominance) else "")
    )

    condition = tables.condition()
    gamma = peak_window_weights(spatial)
    norm_a = float(sv_a[0])
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
        assumptions=AssumptionReport(
            full_rank=full_rank,
            full_rank_detail=rank_detail,
            sparsity=bool(sparsity),
            sparsity_detail=sparsity_detail,
            pure_pixels=bool(pure),
            pure_pixels_detail=pure_detail,
            dominance=bool(dominance < threshold),
            dominance_detail=dominance_detail,
            kruskal=kruskal,
            dominance_value=dominance,
            pure_indices=pure_indices if pure else None,
            worst_support_pixel=worst_pixel,
            worst_support_size=worst_size,
        ),
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
        """The fields but permuted_mixing, which mixing and permutation give."""
        return {k: v for k, v in vars(self).items() if k != "permuted_mixing"}


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
    # Imported here: scipy.optimize costs every process ~0.3 s and 27 MB at start-up.
    from scipy.optimize import linear_sum_assignment

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


def extract_alignment(true_endmembers, endmembers, true_decimated, decimated, kruskal=None):
    """Recover the mixing matrix between an estimate and the ground truth.

    The inverse mixing is pinv(true endmembers) @ estimated endmembers.
    The row permutation is searched by partial pivoting first, then by
    Hungarian assignment if the pivoted matrix fails the off-diagonal
    test against the dominance coefficient. The four matrices must agree
    on every axis they share (model.check_axes), else ValueError.
    """
    a_true = _as_matrix(true_endmembers, "true_endmembers")
    a_est = _as_matrix(endmembers, "endmembers")
    s_true = _as_matrix(true_decimated, "true_decimated")
    s_est = _as_matrix(decimated, "decimated")
    raise_first(check_axes(
        ("true_endmembers", "endmembers", a_true), ("endmembers", "endmembers", a_est),
        ("true_decimated", "decimated", s_true), ("decimated", "decimated", s_est)))
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
    if off.max() > dominance + OFFDIAGONAL_TOL:
        alt_perm = _assignment_permutation(mixing)
        alt = mixing[alt_perm]
        alt_off = alt - np.diag(np.diag(alt))
        if alt_off.max() < off.max():
            perm, permuted, off = alt_perm, alt, alt_off
            method = "hungarian"
    offdiagonal_pass = bool(off.max() <= dominance + OFFDIAGONAL_TOL)

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
        stochastic_pass=bool(stochastic_margin <= STOCHASTIC_TOL),
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


def verify_abundance_error_bound(scene, solution, alignment, certificate):
    """Check, pixel by pixel, the abundance error inequality

        |s_true_j - inv(R) s_est_j| <=
            sqrt(1 + condition^2) * (rho * balance / floor)
            * (1 / sigma_min(permuted R) + 1 / peak_weight_j)

    and the image-domain consequence
        |A_true s_true_j - A_est s_est_j| <= |A_true|_2 * lhs_j.

    Inapplicable (reported, not raised) when the principal submatrix floor
    is not positive. The factors, the mixing and the peak weights must
    agree on every axis they share (model.check_axes), else ValueError.
    """
    s_true = scene.abundances
    s_est = solution.abundances
    a_true = scene.endmembers
    a_est = solution.endmembers
    raise_first(check_axes(
        ("scene.endmembers", "endmembers", a_true), ("scene.abundances", "abundances", s_true),
        ("solution.endmembers", "endmembers", a_est),
        ("solution.abundances", "abundances", s_est),
        ("alignment.mixing", "mixing", alignment.mixing),
        ("certificate.peak_weights", "peak_weights", certificate.peak_weights)))

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
        abundance_pass=bool(abundance_margin <= BOUND_SLACK),
        chain_pass=bool(chain_margin <= BOUND_SLACK),
        worst_abundance_margin=abundance_margin,
        worst_chain_margin=chain_margin,
    )
