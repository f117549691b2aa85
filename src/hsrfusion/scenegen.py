"""Synthetic scene generation for the coupled MS/HS observation model.

Generated scenes are built to verifiably satisfy the structural conditions
the recovery certificate checks: distinct full-rank endmembers, sparse
decimated abundances, designated pure HS windows, and (optionally, by
rejection sampling) the spectral-dominance condition on the endmembers.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import bounds
from .model import Scene, SpatialResponse, _check_counts, _is_number, spatial_decimate


@dataclass
class SceneConfig:
    """Parameters of a synthetic scene.

    sr_bands / ms_bands are the SR and MS spectral band counts, width x
    height is the SR pixel grid, factor is the spatial downsampling, and
    max_support caps the number of materials mixed in any region.
    """

    sr_bands: int
    ms_bands: int
    materials: int
    width: int
    height: int
    factor: int
    max_support: int
    kernel: str = "uniform"
    kernel_size: int | None = None
    kernel_var: float = 1.0
    seed: int = 0
    # Reject endmember draws until the spectral-dominance condition holds.
    # Infeasible for large material counts at small band counts; the
    # eligibility part (some band below 1/materials per column) is always
    # enforced so the dominance coefficient stays finite.
    require_dominance: bool = True
    max_draws: int = 10000

    def __post_init__(self):
        _check_counts(self, ["sr_bands", "ms_bands", "materials", "width", "height", "factor",
                             "max_support", "max_draws"]
                      + ["kernel_size"] * (self.kernel_size is not None), ["seed"])
        var = self.kernel_var
        if not _is_number(var) or not 0 < var < math.inf:
            raise ValueError(f"kernel_var must be a positive number, got {var!r}")
        if self.ms_bands >= self.sr_bands:
            raise ValueError("ms_bands must be smaller than sr_bands")
        if self.materials < 2:
            raise ValueError("need at least two materials")
        if self.width % self.factor or self.height % self.factor:
            raise ValueError("factor must divide width and height")
        if self.kernel not in ("uniform", "gaussian"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not isinstance(self.require_dominance, bool):
            raise ValueError("require_dominance must be a boolean, "
                             f"got {self.require_dominance!r}")

    @property
    def pixel_count(self):
        return self.width * self.height

    @property
    def hs_pixel_count(self):
        return (self.width // self.factor) * (self.height // self.factor)

    def spatial_response(self):
        """The blur-and-downsample response of this scene's grid and kernel."""
        return build_spatial_response(self.width, self.height, kernel=self.kernel,
                                      kernel_size=self.kernel_size, variance=self.kernel_var,
                                      factor=self.factor)


@dataclass
class GeneratedScene:
    """A scene plus the bookkeeping the generator used to build it."""

    scene: Scene
    spectral: np.ndarray
    spatial: SpatialResponse
    pure_windows: list[int]
    cell_supports: dict[int, tuple[int, ...]]
    seed: int
    draws: int
    acceptance_rate: float


def build_spectral_response(sr_bands, ms_bands):
    """Box-average spectral response: contiguous band blocks, rows sum to 1.

    The blocks partition the SR bands as evenly as possible, the leading
    blocks taking the remainder.
    """
    if ms_bands >= sr_bands:
        raise ValueError("ms_bands must be smaller than sr_bands")
    if ms_bands < 1:
        raise ValueError("ms_bands must be >= 1")
    f = np.zeros((ms_bands, sr_bands))
    base, extra = divmod(sr_bands, ms_bands)
    start = 0
    for r in range(ms_bands):
        size = base + (1 if r < extra else 0)
        f[r, start:start + size] = 1.0 / size
        start += size
    return f


def build_spatial_response(width, height, kernel="uniform", kernel_size=None,
                           variance=1.0, factor=1):
    """Blur-and-downsample response on a width x height pixel grid.

    Each HS pixel is centered on a factor x factor cell; its window is the
    kernel footprint clipped to the image with weights renormalized to sum
    to one. Pixels are indexed row-major (p = row * width + col) and the
    windows come out in row-major cell order. A response that fails
    validate(), as a too narrow Gaussian's does, raises its first violation.
    """
    if width % factor or height % factor:
        raise ValueError("factor must divide width and height")
    if kernel_size is None:
        kernel_size = factor
    if kernel_size < factor:
        raise ValueError(
            f"kernel size {kernel_size} smaller than factor {factor}: "
            "windows cannot cover the image"
        )
    if kernel not in ("uniform", "gaussian"):
        raise ValueError(f"unknown kernel {kernel!r}")
    # Any footprint 2 max(width, height) + 1 or more wide covers the image
    # from every cell, giving the same windows: build no longer one.
    kernel_size = min(kernel_size, 2 * max(width, height) + 1)

    # A cell's unclipped footprint along an axis starts `shift` pixels from
    # the cell's first pixel; its pixels' offsets from the cell's center are
    # the same for every cell, and clipping keeps a kernel slice [lo, hi).
    center = (factor - 1) / 2.0
    shift = math.ceil(center - kernel_size / 2.0)
    offsets = np.arange(shift, shift + kernel_size) - center

    def axis_footprints(dim):
        """Per cell along one axis: its first kept pixel and the index of its
        kernel slice among the distinct ones, and those slices' lo and hi."""
        starts = np.arange(0, dim, factor) + shift
        lo = np.clip(-starts, 0, kernel_size)
        keys = lo * (kernel_size + 1) + np.clip(dim - starts, 0, kernel_size)
        slices, kind = np.unique(keys, return_inverse=True)
        return starts + lo, kind, np.divmod(slices, kernel_size + 1)

    y_first, y_kind, (y_lo, y_hi) = axis_footprints(height)
    x_first, x_kind, (x_lo, x_hi) = axis_footprints(width)
    # One weight block per distinct pair of clipped footprints, row-major
    # over its (y, x) pixels.
    blocks = []
    for ya, yb in zip(y_lo.tolist(), y_hi.tolist()):
        dys = offsets[ya:yb]
        for xa, xb in zip(x_lo.tolist(), x_hi.tolist()):
            dxs = offsets[xa:xb]
            # A subnormal variance overflows the exponent, and all weights 0 give NaN
            with np.errstate(over="ignore", invalid="ignore"):  # which validate() names
                if kernel == "uniform":
                    w = np.ones((len(dys), len(dxs)))
                else:
                    w = np.exp(-(dys[:, None] ** 2 + dxs[None, :] ** 2) / (2.0 * variance))
                blocks.append((w / w.sum()).ravel())
    block_starts = np.cumsum([0] + [b.size for b in blocks])
    # Per window, in row-major cell order: its block, its first pixel's row
    # and column, and its footprint's width and size.
    block = np.add.outer(y_kind * x_lo.size, x_kind).ravel()
    first_row = np.repeat(y_first, x_first.size)
    first_column = np.tile(x_first, y_first.size)
    widths = np.tile((x_hi - x_lo)[x_kind], y_kind.size)
    sizes = np.repeat((y_hi - y_lo)[y_kind], x_kind.size) * widths
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    # Per entry, row-major within its window.
    owner = np.repeat(np.arange(sizes.size), sizes)
    entry = np.arange(indptr[-1]) - indptr[owner]
    row, column = np.divmod(entry, widths[owner])
    pixels = (first_row[owner] + row) * width + first_column[owner] + column
    weights = np.concatenate(blocks)[block_starts[block][owner] + entry]
    g = SpatialResponse(width * height, indptr=indptr, pixels=pixels, weights=weights)
    problems = g.validate()
    if problems:
        raise ValueError(f"{kernel} kernel gives an invalid spatial response: {problems[0]}")
    return g


def sample_endmembers(config, spectral, rng):
    """Draw a uniform [0,1] endmember matrix by rejection.

    Accepts a draw once it has full column rank, every column has a band
    below 1/materials, the Kruskal rank of its MS decimation is at least
    max_support, and (when required) the dominance coefficient is below
    1/(4 * materials), bounds.dominance_threshold. Returns (matrix, draws,
    its MS Kruskal rank).
    """
    n = config.materials
    best_kruskal = min(n, config.ms_bands)
    if config.max_support > best_kruskal:
        raise ValueError(
            f"max_support {config.max_support} cannot be satisfied: the "
            f"Kruskal rank of the decimated endmembers is at most {best_kruskal}"
        )
    threshold = bounds.dominance_threshold(n)
    for draw in range(1, config.max_draws + 1):
        a = rng.uniform(0.0, 1.0, size=(config.sr_bands, n))
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] <= bounds.SINGULAR_REL * sv[0]:
            continue
        if not (a < 1.0 / n).any(axis=0).all():
            continue
        if config.require_dominance and bounds.dominance_coefficient(a) >= threshold:
            continue
        kruskal = bounds.kruskal_rank(spectral @ a)
        if kruskal < config.max_support:
            continue
        return a, draw, kruskal
    predicted = bounds.dominance_probability(n, config.sr_bands).clamped
    raise RuntimeError(
        f"rejection budget exhausted after {config.max_draws} draws "
        f"(acceptance rate 0.0, predicted dominance rate {predicted:.4g}); "
        "increase max_draws or bands, or disable require_dominance"
    )


def _choose_pure_windows(touched, n, rng):
    """Pick windows whose zones no other chosen zone's windows can reach.

    zone(i) is the cell set window i touches; reach(i) adds every cell any
    overlapping window touches. A valid placement keeps every zone out of
    every other zone's reach (so no window sees two zones); rings are
    allowed to overlap each other. Greedy over a few seeded orderings.
    """
    # t t^T links the windows that share a cell; times t, the cells they touch.
    t = sparse.csr_matrix(touched, dtype=float)
    reach = (t @ t.T @ t).astype(bool).toarray()
    for _ in range(8):
        order = rng.permutation(len(touched))
        chosen = []
        blocked_reach = np.zeros(touched.shape[1], dtype=bool)  # cells chosen zones reach
        blocked_zones = np.zeros(touched.shape[1], dtype=bool)  # cells inside a chosen zone
        for i in order:
            if (touched[i] & blocked_reach).any() or (reach[i] & blocked_zones).any():
                continue
            chosen.append(int(i))
            blocked_reach |= reach[i]
            blocked_zones |= touched[i]
            if len(chosen) == n:
                return chosen, reach
    raise RuntimeError(
        f"could not place {n} isolated pure windows on a "
        f"{len(touched)}-window grid; image too small for this kernel"
    )


def generate_scene(config, spatial):
    """Generate a ground-truth scene observed through the given response.

    The construction guarantees, verifiably:
      * the endmember matrix has full column rank and i.i.d. uniform
        entries accepted by rejection sampling (see sample_endmembers);
      * one HS window per material is pure, so the decimated abundances
        contain an exact identity submatrix;
      * supports are assigned per factor x factor cell from a shared pool
        sized by the Kruskal rank of the decimated endmembers, with a
        reduced pool on cells within window reach of a pure zone, so no
        window ever mixes more materials than that rank;
      * mixed-pixel abundances are flat-Dirichlet on their support.
    """
    n = config.materials
    if spatial.sr_pixel_count != config.pixel_count:
        raise ValueError("spatial response does not match the configured pixel grid")
    if n > spatial.hs_pixel_count - n:
        raise ValueError(
            f"need materials <= hs_pixels - materials "
            f"({n} > {spatial.hs_pixel_count - n})"
        )

    rng = np.random.default_rng(config.seed)
    spectral = build_spectral_response(config.sr_bands, config.ms_bands)
    endmembers, draws, kruskal = sample_endmembers(config, spectral, rng)

    # Pixels are row-major, cells are factor x factor blocks in row-major
    # order; touched[i, c] says whether window i has a pixel in cell c.
    factor = config.factor
    rows, cols = np.divmod(np.arange(config.pixel_count), config.width)
    cell_of = (rows // factor) * (config.width // factor) + cols // factor
    touched = np.zeros((spatial.hs_pixel_count, config.hs_pixel_count), dtype=bool)
    touched[spatial.owners, cell_of[spatial.pixels]] = True
    pure_windows, reach = _choose_pure_windows(touched, n, rng)

    # Support pools. With kruskal >= materials any union of supports is
    # admissible; otherwise cap the pool at kruskal materials and drop one
    # pool element on ring cells so a window straddling a pure zone stays
    # within the rank budget.
    if kruskal >= n:
        pool = list(range(n))
        ring_pool = pool
    else:
        pool = sorted(rng.choice(n, size=kruskal, replace=False).tolist())
        ring_pool = pool[:-1]

    # Chosen zones are disjoint: zone_of[c] is the material pure on cell c,
    # or -1; ring cells are reachable from a zone but outside every zone.
    zone_of = np.full(config.hs_pixel_count, -1)
    materials, cells = np.nonzero(touched[pure_windows])
    zone_of[cells] = materials
    ring = reach[pure_windows].any(axis=0) & (zone_of < 0)
    if ring.any() and not ring_pool:
        raise RuntimeError(
            "overlapping windows with Kruskal rank 1 cannot isolate pure "
            "zones; use a non-overlapping kernel or more MS bands"
        )

    # Supports and Dirichlet draws are drawn cell by cell, in cell order,
    # and written into the abundances once per support size.
    cell_supports, draws_of = {}, {}
    pixels_per_cell = config.factor ** 2
    pool, ring_pool = np.array(pool), np.array(ring_pool)
    for cell, (zone, on_ring) in enumerate(zip(zone_of.tolist(), ring.tolist())):
        if zone >= 0:
            cell_supports[cell] = (zone,)
            continue
        src = ring_pool if on_ring else pool
        size = min(config.max_support, len(src))
        support = tuple(sorted(rng.choice(src, size=size, replace=False).tolist()))
        cell_supports[cell] = support
        if size > 1:
            draws_of[cell] = rng.dirichlet(np.ones(size), size=pixels_per_cell)
    abundances = np.zeros((n, config.pixel_count))
    # Row c: the pixels of cell c in row-major order.
    cell_pixels = np.argsort(cell_of, kind="stable").reshape(config.hs_pixel_count, -1)
    sizes = np.array([len(s) for s in cell_supports.values()])
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        cells = np.flatnonzero(sizes == size).tolist()
        rows = np.array([cell_supports[c] for c in cells])
        values = np.array([draws_of[c] for c in cells]) if size > 1 else 1.0
        abundances[rows[:, None, :], cell_pixels[cells][:, :, None]] = values

    scene = Scene.from_factors(endmembers, abundances)
    generated = GeneratedScene(
        scene=scene,
        spectral=spectral,
        spatial=spatial,
        pure_windows=pure_windows,
        cell_supports=cell_supports,
        seed=config.seed,
        draws=draws,
        acceptance_rate=1.0 / draws,
    )
    _verify_generated(generated, config, kruskal)
    return generated


def _verify_generated(generated, config, kruskal):
    """Internal consistency checks; a failure here is a generator bug."""
    decimated = spatial_decimate(generated.scene.abundances, generated.spatial)
    for material, win_idx in enumerate(generated.pure_windows):
        col = decimated[:, win_idx]
        target = np.zeros(config.materials)
        target[material] = 1.0
        if np.abs(col - target).max() > 1e-9:
            raise AssertionError(f"pure window {win_idx} is not pure for {material}")
    support_sizes = (np.abs(decimated) > bounds.SUPPORT_TOL).sum(axis=0)
    if int(support_sizes.max()) > kruskal:
        raise AssertionError(
            f"decimated support {int(support_sizes.max())} exceeds Kruskal rank {kruskal}"
        )


def _norm(x):
    """|x|_F as one einsum: np.linalg.norm's BLAS dot sums in an order that
    follows the thread count."""
    x = x.ravel()
    return math.sqrt(np.einsum("i,i->", x, x))


def add_noise(y, snr_db, seed=0):
    """Add i.i.d. Gaussian noise rescaled to hit the target SNR exactly.

    The drawn noise is deterministically rescaled so that
    10*log10(|Y|_F^2 / |E|_F^2) equals snr_db. An SNR of +inf returns a
    copy of the input; NaN and -inf raise ValueError, and so does an SNR
    whose noise scale or noisy result is not finite.
    """
    y = np.asarray(y, dtype=float)
    if not -math.inf < snr_db <= math.inf:
        raise ValueError(f"SNR must be a finite number of dB or inf, got {snr_db}")
    if snr_db == math.inf:
        return y.copy()
    signal = _norm(y)
    if signal == 0.0:
        raise ValueError("cannot set a finite SNR on an all-zero signal")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(y.shape)
    try:
        scale = signal / (_norm(noise) * 10.0 ** (snr_db / 20.0))
    except (OverflowError, ZeroDivisionError):  # 10^(snr/20) leaves the float range
        scale = math.inf
    if math.isfinite(scale):
        with np.errstate(over="ignore", invalid="ignore"):
            noisy = y + scale * noise
        if np.isfinite(noisy).all():
            return noisy
    raise ValueError(f"SNR {snr_db} dB is out of range: the noise scale or the noisy data "
                     "is not finite")
