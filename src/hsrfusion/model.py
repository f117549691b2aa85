"""Linear spectral mixture types and the coupled MS/HS observation operators.

Matrices are dense float64 arrays and columns are the natural unit: an
endmember matrix stacks material signatures as columns (bands x materials),
an abundance matrix stacks per-pixel mixing fractions as columns (materials
x pixels), and images stack spectral pixels as columns (bands x pixels).

The two sensors are modeled by a spectral response F (ms_bands x bands,
applied on the left) and a spatial response G (a collection of pixel
windows with positive weights summing to one, applied on the right).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

# Absolute tolerance on simplex membership (column sums, nonnegativity).
# Double precision accumulation over <= 1e4-length columns stays well below.
TAU_SIMPLEX = 1e-9


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    """A single invariant violation with its location and magnitude."""

    check: str
    location: str
    magnitude: float
    message: str

    def __str__(self):
        return f"[{self.check}] {self.location}: {self.message} (magnitude {self.magnitude:.3e})"


def _as_matrix(x, name):
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={a.ndim}")
    return a


# ---------------------------------------------------------------------------
# Spatial response
# ---------------------------------------------------------------------------

@dataclass
class Window:
    """One output pixel of the spatial decimation: index set plus weights."""

    pixels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=int)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.pixels.shape != self.weights.shape:
            raise ValueError("window pixels and weights must have equal length")


class SpatialResponse:
    """Blur-and-downsample response G in compressed-column form: window i
    (HS pixel i) holds pixels[indptr[i]:indptr[i+1]] with the matching
    weights. Hand-made responses may pass a list of Window objects instead."""

    def __init__(self, sr_pixel_count, windows=(), *, indptr=None, pixels=None, weights=None):
        if indptr is None:
            indptr = np.cumsum([0] + [len(w.pixels) for w in windows])
            pixels = np.concatenate([np.zeros(0, dtype=int)] + [w.pixels for w in windows])
            weights = np.concatenate([np.zeros(0)] + [w.weights for w in windows])
        self.sr_pixel_count = int(sr_pixel_count)
        self.indptr = np.asarray(indptr, dtype=int)
        self.pixels = np.asarray(pixels, dtype=int)
        self.weights = np.asarray(weights, dtype=float)
        if (self.pixels.shape != self.weights.shape or self.pixels.shape != (self.indptr[-1],)
                or self.indptr[0] != 0 or (np.diff(self.indptr) < 0).any()):
            raise ValueError("indptr, pixels and weights do not describe a list of windows")

    @property
    def hs_pixel_count(self):
        return self.indptr.size - 1

    @property
    def owners(self):
        """Window index of every (pixel, weight) entry."""
        return np.repeat(np.arange(self.hs_pixel_count), np.diff(self.indptr))

    @property
    def windows(self):
        """The windows as Window objects whose arrays are views into this response."""
        bounds = zip(self.indptr[:-1], self.indptr[1:])
        return [Window(pixels=self.pixels[a:b], weights=self.weights[a:b]) for a, b in bounds]

    def _reduce(self, ufunc, values, empty):
        """Per window, ufunc over its entries (last axis); ``empty`` if none."""
        starts = self.indptr[:-1]
        nonempty = starts < self.indptr[1:]
        out = np.full(values.shape[:-1] + starts.shape, empty, dtype=values.dtype)
        out[..., nonempty] = ufunc.reduceat(values, starts[nonempty], axis=-1)
        return out

    def operator(self):
        """G as a linear map on images, built from the arrays on every call."""
        return SpatialOperator(self)

    def to_dense(self):
        """Dense (sr_pixel_count x hs_pixel_count) matrix; a test oracle."""
        g = np.zeros((self.sr_pixel_count, self.hs_pixel_count))
        g[self.pixels, self.owners] = self.weights
        return g

    def validate(self, tol=TAU_SIMPLEX):
        """List every violated window invariant; empty means valid."""
        out = []
        count, lh = self.sr_pixel_count, self.hs_pixel_count
        if lh >= count:
            out.append(Violation("spatial_size", "windows", float(lh - count + 1),
                                 f"hs_pixel_count {lh} must be < sr_pixel_count {count}"))
        owners = self.owners
        high = self._reduce(np.maximum, self.pixels, 0)
        in_range = ((self.indptr[:-1] < self.indptr[1:]) & (high < count)
                    & (self._reduce(np.minimum, self.pixels, 0) >= 0))
        finite = self._reduce(np.logical_and, np.isfinite(self.weights), True)
        wmin = self._reduce(np.minimum, self.weights, 1.0)
        total = self._reduce(np.add, self.weights, 1.0)
        # (window, pixel) pairs of the in-range windows: a repeat sorts next to itself
        kept = in_range[owners]
        pixels = self.pixels[kept]
        windows = owners[kept]
        order = np.lexsort((pixels, windows))
        pixels, windows = pixels[order], windows[order]
        repeat = (windows[1:] == windows[:-1]) & (pixels[1:] == pixels[:-1])
        duplicate = np.zeros(lh, dtype=bool)
        duplicate[windows[1:][repeat]] = True
        flagged = ~in_range | ~finite | ~(wmin > 0.0) | (np.abs(total - 1.0) > tol) | duplicate
        for i in np.flatnonzero(flagged).tolist():
            where = f"window {i}"
            if self.indptr[i] == self.indptr[i + 1]:
                out.append(Violation("window_empty", where, 1.0, "empty window"))
                continue
            if not in_range[i]:
                out.append(Violation("window_range", where, float(high[i]),
                                     "pixel index out of range"))
                continue
            if not finite[i]:
                weights = self.weights[self.indptr[i]:self.indptr[i + 1]]
                value = float(weights[~np.isfinite(weights)][0])
                out.append(Violation("window_weight_finite", where, abs(value),
                                     f"weight {value} is not finite"))
                continue
            if wmin[i] <= 0.0:
                out.append(Violation("window_weight_positive", where, float(wmin[i]),
                                     f"weight {float(wmin[i])} is not strictly positive"))
            gap = abs(float(total[i]) - 1.0)
            if gap > tol:
                out.append(Violation("window_weight_sum", where, gap,
                                     f"weights sum to {total[i]:.12g}, expected 1"))
            if duplicate[i]:
                out.append(Violation("window_duplicate_pixel", where, 1.0, "pixel listed twice"))
        # Coverage from the entries alone: each uncovered pixel is named only
        # while they are no more than the entries, which bounds the mask.
        covered = np.unique(pixels)
        missing = count - covered.size
        if missing > self.pixels.size:
            out.append(Violation("coverage", "pixels", float(missing),
                                 f"{missing} of {count} SR pixels are not covered by any window"))
        elif missing:
            uncovered = np.ones(count, dtype=bool)
            uncovered[covered] = False
            out += [Violation("coverage", f"pixel {j}", 1.0,
                              f"SR pixel {j} is not covered by any window")
                    for j in np.flatnonzero(uncovered).tolist()]
        return out


class SpatialOperator:
    """X -> X G and its adjoint Y -> Y G^T through scipy CSR matrices.

    ``gt`` is G^T over the response's arrays (its weights are shared, not
    copied) and ``g`` is its transpose, so both products walk rows of a
    sparse matrix against a dense block with one column per image row."""

    def __init__(self, response):
        count, pixels = response.sr_pixel_count, response.pixels
        bad = np.flatnonzero((pixels < 0) | (pixels >= count))
        if bad.size:
            window = int(np.searchsorted(response.indptr, bad[0], "right")) - 1
            raise ValueError(f"window {window}: pixel index {int(pixels[bad[0]])} is out "
                             f"of range for {count} SR pixels")
        self.gt = scipy.sparse.csr_matrix(
            (response.weights, pixels, response.indptr),
            shape=(response.hs_pixel_count, count))
        self.g = self.gt.T.tocsr()

    def apply(self, x):
        """X G: column i combines X's columns in window i by its weights."""
        return (self.gt @ x.T).T

    def adjoint(self, y):
        """Y G^T."""
        return (self.g @ y.T).T

    def gram_norm(self):
        """|G^T G|_2, exact: largest eigenvalue of the Lh x Lh product."""
        gram = (self.gt @ self.g).toarray()
        return float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0


# ---------------------------------------------------------------------------
# Matrix validators
# ---------------------------------------------------------------------------

def validate_endmembers(a, tol=TAU_SIMPLEX):
    """Endmember entries must be reflectances in [0, 1]."""
    a = _as_matrix(a, "endmembers")
    out = []
    low = float(a.min()) if a.size else 0.0
    high = float(a.max()) if a.size else 0.0
    if a.shape[0] < 1 or a.shape[1] < 1:
        out.append(Violation("endmember_shape", "matrix", 0.0, f"degenerate shape {a.shape}"))
    if low < -tol:
        idx = np.unravel_index(int(np.argmin(a)), a.shape)
        out.append(Violation(
            "endmember_range", f"entry {idx}", -low, f"entry {low:.6g} below 0",
        ))
    if high > 1.0 + tol:
        idx = np.unravel_index(int(np.argmax(a)), a.shape)
        out.append(Violation(
            "endmember_range", f"entry {idx}", high - 1.0, f"entry {high:.6g} above 1",
        ))
    return out


def validate_abundances(s, tol=TAU_SIMPLEX):
    """Every abundance column must lie on the unit simplex."""
    s = _as_matrix(s, "abundances")
    out = []
    mins = s.min(axis=0)
    bad = np.flatnonzero(mins < -tol)
    for j in bad:
        out.append(Violation(
            "abundance_nonnegative", f"column {int(j)}", float(-mins[j]),
            f"entry {mins[j]:.6g} below 0",
        ))
    sums = s.sum(axis=0)
    bad = np.flatnonzero(np.abs(sums - 1.0) > tol)
    for j in bad:
        out.append(Violation(
            "abundance_sum", f"column {int(j)}", float(abs(sums[j] - 1.0)),
            f"column sums to {sums[j]:.12g}, expected 1",
        ))
    return out


def validate_spectral(f, tol=0.0):
    """Spectral response rows must be nonnegative with a positive entry each."""
    f = _as_matrix(f, "spectral response")
    out = []
    if f.shape[0] >= f.shape[1]:
        out.append(Violation(
            "spectral_size", "matrix", float(f.shape[0] - f.shape[1] + 1),
            f"ms_bands {f.shape[0]} must be < bands {f.shape[1]}",
        ))
    if f.size and float(f.min()) < -tol:
        idx = np.unravel_index(int(np.argmin(f)), f.shape)
        out.append(Violation(
            "spectral_nonnegative", f"entry {idx}", float(-f.min()),
            f"negative weight {f.min():.6g}",
        ))
    out += [Violation("spectral_row_empty", f"row {r}", 1.0, "row has no positive entry")
            for r in np.flatnonzero(~(f > tol).any(axis=1)).tolist()]
    return out


# ---------------------------------------------------------------------------
# Scene containers
# ---------------------------------------------------------------------------

@dataclass
class Scene:
    """Ground truth: endmembers, abundances and the product image."""

    endmembers: np.ndarray
    abundances: np.ndarray
    image: np.ndarray

    @classmethod
    def from_factors(cls, endmembers, abundances):
        endmembers = _as_matrix(endmembers, "endmembers")
        abundances = _as_matrix(abundances, "abundances")
        return cls(endmembers, abundances, reconstruct(endmembers, abundances))

    def validate(self, tol=TAU_SIMPLEX):
        out = validate_endmembers(self.endmembers, tol)
        out += validate_abundances(self.abundances, tol)
        resid = self.image - self.endmembers @ self.abundances
        scale = max(1.0, float(np.abs(self.image).max())) if self.image.size else 1.0
        gap = float(np.abs(resid).max()) if resid.size else 0.0
        if gap > 1e-12 * scale:
            out.append(Violation(
                "scene_product", "image", gap,
                "image differs from endmembers @ abundances",
            ))
        return out


@dataclass
class ObservedPair:
    """The co-registered observation pair: MS image and HS image."""

    ms: np.ndarray
    hs: np.ndarray

    def validate(self, spectral, spatial):
        """Check dimensional consistency against the two responses."""
        out = []
        f = _as_matrix(spectral, "spectral response")
        if self.ms.shape[0] != f.shape[0]:
            out.append(Violation(
                "observed_ms_bands", "ms", 0.0,
                f"MS image has {self.ms.shape[0]} bands, response produces {f.shape[0]}",
            ))
        if self.hs.shape[0] != f.shape[1]:
            out.append(Violation(
                "observed_hs_bands", "hs", 0.0,
                f"HS image has {self.hs.shape[0]} bands, response expects {f.shape[1]}",
            ))
        if self.ms.shape[1] != spatial.sr_pixel_count:
            out.append(Violation(
                "observed_ms_pixels", "ms", 0.0,
                f"MS image has {self.ms.shape[1]} pixels, expected {spatial.sr_pixel_count}",
            ))
        if self.hs.shape[1] != spatial.hs_pixel_count:
            out.append(Violation(
                "observed_hs_pixels", "hs", 0.0,
                f"HS image has {self.hs.shape[1]} pixels, expected {spatial.hs_pixel_count}",
            ))
        return out


# ---------------------------------------------------------------------------
# Forward operators
# ---------------------------------------------------------------------------

def reconstruct(endmembers, abundances):
    """Mix endmembers by abundances: returns endmembers @ abundances.

    The product of a [0,1] matrix with simplex columns stays in [0,1] up to
    rounding; no clipping is applied.
    """
    a = _as_matrix(endmembers, "endmembers")
    s = _as_matrix(abundances, "abundances")
    if a.shape[1] != s.shape[0]:
        raise ValueError(
            f"dimension mismatch: endmembers has {a.shape[1]} columns, "
            f"abundances has {s.shape[0]} rows"
        )
    return a @ s


def spectral_decimate(f, x):
    """Apply the spectral response on the left: returns f @ x.

    Used both to form the MS observation of an image and to decimate an
    endmember matrix to MS resolution.
    """
    f = _as_matrix(f, "spectral response")
    x = _as_matrix(x, "image")
    if f.shape[1] != x.shape[0]:
        raise ValueError(
            f"dimension mismatch: spectral response expects {f.shape[1]} bands, "
            f"image has {x.shape[0]}"
        )
    return f @ x


def spatial_decimate(x, g):
    """Apply the spatial response on the right: column i is X[:, L_i] @ g_i."""
    x = _as_matrix(x, "image")
    if x.shape[1] != g.sr_pixel_count:
        raise ValueError(
            f"dimension mismatch: image has {x.shape[1]} pixels, "
            f"spatial response expects {g.sr_pixel_count}"
        )
    return g.operator().apply(x)


def decimate_abundances(s, g):
    """Spatially decimate an abundance matrix.

    Convex combinations of simplex columns stay on the simplex, so the
    result is the abundance matrix of the HS image. The support of every
    contributing column is contained in the support of the output column.
    """
    s = _as_matrix(s, "abundances")
    return spatial_decimate(s, g)


def validate_model(endmembers, abundances, spectral, spatial, tol=TAU_SIMPLEX):
    """Aggregate every model invariant into a single report.

    Returns a list of Violation records; an empty list means the model is
    valid. Never raises on invalid data.
    """
    out = []
    out += validate_endmembers(endmembers, tol)
    out += validate_abundances(abundances, tol)
    out += validate_spectral(spectral)
    out += spatial.validate(tol)
    a = np.asarray(endmembers, dtype=float)
    s = np.asarray(abundances, dtype=float)
    f = np.asarray(spectral, dtype=float)
    if a.ndim == 2 and s.ndim == 2 and a.shape[1] != s.shape[0]:
        out.append(Violation(
            "shape", "endmembers/abundances", 0.0,
            f"endmembers {a.shape} does not chain with abundances {s.shape}",
        ))
    if a.ndim == 2 and f.ndim == 2 and f.shape[1] != a.shape[0]:
        out.append(Violation(
            "shape", "spectral/endmembers", 0.0,
            f"spectral response {f.shape} does not chain with endmembers {a.shape}",
        ))
    if s.ndim == 2 and s.shape[1] != spatial.sr_pixel_count:
        out.append(Violation(
            "shape", "abundances/spatial", 0.0,
            f"abundances have {s.shape[1]} pixels, spatial response expects "
            f"{spatial.sr_pixel_count}",
        ))
    return out
