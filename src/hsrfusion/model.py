"""Linear spectral mixture types and the coupled MS/HS observation operators.

Matrices are dense float64 arrays and columns are the natural unit: an
endmember matrix stacks material signatures as columns (bands x materials),
an abundance matrix stacks per-pixel mixing fractions as columns (materials
x pixels), and images stack spectral pixels as columns (bands x pixels).

The two sensors are modeled by a spectral response F (ms_bands x bands,
applied on the left) and a spatial response G (a collection of pixel
windows with positive weights summing to one, applied on the right).
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse

# Absolute tolerance on simplex membership (column sums, nonnegativity).
# Double precision accumulation over <= 1e4-length columns stays well below.
TAU_SIMPLEX = 1e-9


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_counts(config, positive, non_negative=()):
    """Raise ValueError on the first of config's named fields that is not a
    positive integer, then on the first of non_negative that is not >= 0."""
    for names, low, kind in ((positive, 1, "positive"), (non_negative, 0, "non-negative")):
        for name in names:
            value = getattr(config, name)
            if not _is_integer(value) or value < low:
                raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    """A single invariant violation with its location and magnitude (None
    where it has no size: a shape disagreement)."""

    check: str
    location: str
    magnitude: float | None
    message: str

    def __str__(self):
        size = "" if self.magnitude is None else f" (magnitude {self.magnitude:.3e})"
        return f"[{self.check}] {self.location}: {self.message}{size}"


def raise_first(problems):
    """Raise the first of a report's violations, if any, as ValueError."""
    if problems:
        raise ValueError(str(problems[0]))


def _as_matrix(x, name):
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={a.ndim}")
    return a


# ---------------------------------------------------------------------------
# Spatial response
# ---------------------------------------------------------------------------

def _int64_copy(values, label):
    """``values`` as a new int array. An entry the cast would truncate or wrap
    (1.5, NaN, 1e300) is refused, ``label(i)`` naming flat entry i."""
    values = np.asarray(values)
    if values.dtype.kind != "i":
        real = values.astype(float).ravel()
        bad = np.flatnonzero(~((real == np.round(real)) & (abs(real) < 2.0**63)))
        if bad.size:
            raise ValueError(f"{label(bad[0])} {real[bad[0]]} is not an integer "
                             "within the int64 range")
    return np.array(values, dtype=int)


class SpatialResponse:
    """Blur-and-downsample response G in compressed-column form: window i
    (HS pixel i) holds pixels[indptr[i]:indptr[i+1]] with the matching
    weights, kept as read-only copies behind read-only attributes, so the
    validation report and the scipy CSR matrix the products run through are
    each formed once, at first use."""

    def __init__(self, sr_pixel_count, *, indptr, pixels, weights):
        if not _is_integer(sr_pixel_count):
            raise ValueError(f"sr_pixel_count must be an integer, got {sr_pixel_count!r}")
        self._sr_pixel_count = int(sr_pixel_count)
        self._indptr = _int64_copy(indptr, lambda i: f"indptr entry {i}:")
        pixels = np.asarray(pixels)
        self._weights = np.array(weights, dtype=float)
        if (self.indptr.ndim != 1 or self.indptr.size == 0 or pixels.shape != self.weights.shape
                or pixels.shape != (self.indptr[-1],) or self.indptr[0] != 0
                or (np.diff(self.indptr) < 0).any()):
            raise ValueError("indptr, pixels and weights do not describe a list of windows")
        # An out-of-range integer pixel is left for validate() to report.
        self._pixels = _int64_copy(pixels, lambda i: "window "
                                   f"{int(np.searchsorted(self.indptr, i, 'right')) - 1}: pixel index")
        for array in (self._indptr, self._pixels, self._weights):
            array.setflags(write=False)

    sr_pixel_count = property(lambda self: self._sr_pixel_count)
    indptr = property(lambda self: self._indptr)
    pixels = property(lambda self: self._pixels)
    weights = property(lambda self: self._weights)

    @property
    def hs_pixel_count(self):
        return self.indptr.size - 1

    @property
    def shape(self):
        """G's shape, (sr_pixel_count, hs_pixel_count)."""
        return self.sr_pixel_count, self.hs_pixel_count

    @property
    def owners(self):
        """Window index of every (pixel, weight) entry."""
        return np.repeat(np.arange(self.hs_pixel_count), np.diff(self.indptr))

    def _reduce(self, ufunc, values, empty):
        """Per window, ufunc over its entries (last axis); ``empty`` if none."""
        starts = self.indptr[:-1]
        nonempty = starts < self.indptr[1:]
        out = np.full(values.shape[:-1] + starts.shape, empty, dtype=values.dtype)
        out[..., nonempty] = ufunc.reduceat(values, starts[nonempty], axis=-1)
        return out

    @functools.cached_property
    def _csr(self):
        """(G^T, G): G^T as CSR over the three arrays, and G as its transpose,
        a CSC view of the same arrays that adds each SR pixel's windows in
        ascending order, as a CSR copy of G would. scipy accepts an
        out-of-range pixel and then reads out of bounds, so the report's first
        one is raised."""
        bad = [v for v in self._report if v.check == "window_range"]
        if bad:
            raise ValueError(f"{bad[0].location}: {bad[0].message}")
        gt = scipy.sparse.csr_matrix((self.weights, self.pixels, self.indptr),
                                     shape=(self.hs_pixel_count, self.sr_pixel_count))
        return gt, gt.T

    def apply(self, x):
        """X G: column i combines X's columns in window i by its weights."""
        return (self._csr[0] @ x.T).T

    def adjoint(self, y):
        """Y G^T."""
        return (self._csr[1] @ y.T).T

    def gram_norm(self):
        """An upper bound on |G^T G|_2: the matrix is symmetric and entrywise
        nonnegative, so its largest row sum bounds it (Collatz-Wielandt)."""
        row_sums = self.apply(self.adjoint(np.ones((1, self.hs_pixel_count))))
        return float(row_sums.max(initial=0.0))

    def validate(self):
        """List every violated window invariant (formed once, then kept); empty means valid."""
        return list(self._report)

    @functools.cached_property
    def _report(self):
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
        # (window, pixel) pairs of the in-range windows whose pixels do not
        # strictly ascend (a built response has none): a repeat sorts next to itself
        kept = in_range[owners]
        pixels = self.pixels[kept]
        windows = owners[kept]
        unsorted = np.zeros(lh, dtype=bool)
        unsorted[windows[1:][(windows[1:] == windows[:-1]) & (pixels[1:] <= pixels[:-1])]] = True
        in_unsorted = unsorted[windows]
        suspects, owner = pixels[in_unsorted], windows[in_unsorted]
        order = np.lexsort((suspects, owner))
        suspects, owner = suspects[order], owner[order]
        repeat = (owner[1:] == owner[:-1]) & (suspects[1:] == suspects[:-1])
        duplicate = np.zeros(lh, dtype=bool)
        duplicate[owner[1:][repeat]] = True
        flagged = ~in_range | ~finite | ~(wmin > 0.0) | (abs(total - 1) > TAU_SIMPLEX) | duplicate
        for i in np.flatnonzero(flagged).tolist():
            where = f"window {i}"
            if self.indptr[i] == self.indptr[i + 1]:
                out.append(Violation("window_empty", where, 1.0, "empty window"))
                continue
            if not in_range[i]:
                window = self.pixels[self.indptr[i]:self.indptr[i + 1]]
                pixel = int(window[(window < 0) | (window >= count)][0])
                out.append(Violation(
                    "window_range", where, float(high[i]),
                    f"pixel index {pixel} is out of range for {count} SR pixels"))
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
            if gap > TAU_SIMPLEX:
                out.append(Violation("window_weight_sum", where, gap,
                                     f"weights sum to {total[i]:.12g}, expected 1"))
            if duplicate[i]:
                out.append(Violation("window_duplicate_pixel", where, 1.0, "pixel listed twice"))
        # Coverage from the entries alone: each uncovered pixel is named only
        # while they are no more than the entries, which bounds the mask. The
        # distinct pixels are counted on a sort (np.unique takes a slower
        # hash path on integers).
        covered = np.sort(pixels)
        missing = count - int(np.count_nonzero(np.diff(covered, prepend=-1)))
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


# ---------------------------------------------------------------------------
# Matrix validators
# ---------------------------------------------------------------------------

def _entry(m, flat):
    """The location of matrix m's flat index as plain ints: "entry (row, column)"."""
    return f"entry {divmod(int(flat), m.shape[1])}"


def validate_endmembers(a):
    """Endmember entries must be reflectances in [0, 1]."""
    a = _as_matrix(a, "endmembers")
    out = []
    low = float(a.min()) if a.size else 0.0
    high = float(a.max()) if a.size else 0.0
    if a.shape[0] < 1 or a.shape[1] < 1:
        out.append(Violation("endmember_shape", "matrix", 0.0, f"degenerate shape {a.shape}"))
    if low < -TAU_SIMPLEX:
        out.append(Violation(
            "endmember_range", _entry(a, np.argmin(a)), -low, f"entry {low:.6g} below 0",
        ))
    if high > 1.0 + TAU_SIMPLEX:
        out.append(Violation(
            "endmember_range", _entry(a, np.argmax(a)), high - 1.0, f"entry {high:.6g} above 1",
        ))
    return out


def validate_abundances(s):
    """Every abundance column must lie on the unit simplex."""
    s = _as_matrix(s, "abundances")
    out = []
    mins = s.min(axis=0)
    bad = np.flatnonzero(mins < -TAU_SIMPLEX)
    for j in bad:
        out.append(Violation(
            "abundance_nonnegative", f"column {int(j)}", float(-mins[j]),
            f"entry {mins[j]:.6g} below 0",
        ))
    sums = s.sum(axis=0)
    bad = np.flatnonzero(np.abs(sums - 1.0) > TAU_SIMPLEX)
    for j in bad:
        out.append(Violation(
            "abundance_sum", f"column {int(j)}", float(abs(sums[j] - 1.0)),
            f"column sums to {sums[j]:.12g}, expected 1",
        ))
    return out


def validate_spectral(f):
    """Spectral response rows must be nonnegative with a positive entry each."""
    f = _as_matrix(f, "spectral response")
    out = []
    if f.shape[0] >= f.shape[1]:
        out.append(Violation(
            "spectral_size", "matrix", float(f.shape[0] - f.shape[1] + 1),
            f"ms_bands {f.shape[0]} must be < bands {f.shape[1]}",
        ))
    if f.size and float(f.min()) < 0.0:
        out.append(Violation(
            "spectral_nonnegative", _entry(f, np.argmin(f)), float(-f.min()),
            f"negative weight {f.min():.6g}",
        ))
    out += [Violation("spectral_row_empty", f"row {r}", 1.0, "row has no positive entry")
            for r in np.flatnonzero(~(f > 0.0).any(axis=1)).tolist()]
    return out


# Each model array's axes, by role; G's are its SR and HS pixel counts,
# "decimated" is abundances times G, "mixing" the square alignment R and
# "peak_weights" a certificate's vector, one weight per SR pixel.
AXES = {"spectral": ("ms_bands", "bands"), "spatial": ("pixels", "hs_pixels"),
        "image": ("bands", "pixels"), "ms": ("ms_bands", "pixels"),
        "hs": ("bands", "hs_pixels"), "endmembers": ("bands", "materials"),
        "abundances": ("materials", "pixels"), "decimated": ("materials", "hs_pixels"),
        "mixing": ("materials", "materials"), "peak_weights": ("pixels",)}


def check_axes(*inputs):
    """The first disagreement on a shared axis among the arrays ``inputs``,
    each (name, role, array) or (name, role, array, label) and taken in
    order, as a list of at most one "shape" Violation: "[shape] spatial/y_ms:
    spatial has 6 pixels, y_ms has 4". The message calls an array by its
    label (the CLI gives file paths), else by its name."""
    seen = {}
    for name, role, array, *label in inputs:
        label = label[0] if label else name
        for axis, size in zip(AXES[role], array.shape):
            first, first_label, first_size = seen.setdefault(axis, (name, label, size))
            if size != first_size:
                return [Violation("shape", f"{first}/{name}", None,
                                  f"{first_label} has {first_size} {axis}, {label} has {size}")]
    return []


# ---------------------------------------------------------------------------
# Scene container
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
    raise_first(check_axes(("endmembers", "endmembers", a), ("abundances", "abundances", s)))
    return a @ s


def spectral_decimate(f, x):
    """Apply the spectral response on the left: returns f @ x.

    Used both to form the MS observation of an image and to decimate an
    endmember matrix to MS resolution.
    """
    f = _as_matrix(f, "spectral response")
    x = _as_matrix(x, "image")
    raise_first(check_axes(("f", "spectral", f), ("x", "image", x)))
    return f @ x


def spatial_decimate(x, g):
    """Apply the spatial response on the right: column i is X[:, L_i] @ g_i.

    Convex combinations of simplex columns stay on the simplex, so the
    decimation of an abundance matrix is the abundance matrix of the HS
    image, and the support of every contributing column is contained in
    the support of the output column.
    """
    x = _as_matrix(x, "image")
    raise_first(check_axes(("x", "image", x), ("g", "spatial", g)))
    return g.apply(x)


def validate_model(endmembers, abundances, spectral, spatial):
    """Aggregate every model invariant into a single report.

    Returns a list of Violation records; an empty list means the model is
    valid. Never raises on invalid data.
    """
    a = _as_matrix(endmembers, "endmembers")
    s = _as_matrix(abundances, "abundances")
    f = _as_matrix(spectral, "spectral response")
    out = validate_endmembers(a) + validate_abundances(s) + validate_spectral(f)
    return out + spatial.validate() + check_axes(
        ("endmembers", "endmembers", a), ("abundances", "abundances", s),
        ("spectral", "spectral", f), ("spatial", "spatial", spatial))
