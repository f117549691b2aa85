"""File formats: CSV matrices and tables, JSON sidecars and configs.

The module imports no package module but ``model``: it knows file
formats, not config classes. ``config_from_dict`` builds any config
dataclass from its decoded JSON, and ``write_table`` writes every CSV
with a header (a sweep's ``results.csv``, the counterexample's error
surface).

Matrices are plain CSV, one row per line, '.' decimal separator, no
header; dimensions are inferred. Values are written with 17 significant
digits so a write/read round trip is bit exact for float64. A non-finite
cell is refused by the writer, naming its line and column as the reader
would.

The writer formats whole rows of about _CHUNK_CELLS formatted cells at a
time in numpy, byte for byte the comma join of the row's ``f"{v:.17g}"``
values:

- A cell with 1e-4 <= |v| < 1e16 prints in fixed notation. Its decimal
  exponent X comes from log10 and is corrected where that misses by one
  at a power of ten. |v| * 10**(16 - X) is formed exactly as a
  double-double (Dekker's product; 10**k is exact for k <= 22), whose
  high part is an integer >= 2**53, so the 17-digit significand is
  rounded half to even in int64 with no error. Its digits are peeled
  from two uint32 halves.
- Each cell then fills one row of a fixed byte template (sign, "0.000",
  the 17 digits with a '.' after each of the first 16, separator), and
  a mask per exponent and count of significant digits keeps the bytes
  of its fixed form. The bytes it does not keep are set to NUL, and one
  ``bytes.translate`` of the chunk deletes them, giving the text.
- Zeros, three quarters of an abundance file, skip all of this: the
  kernel formats only the nonzero cells, and "0" or "-0" is written
  around its text. Exponent forms go through ``b"%.17g"`` one cell at a
  time; they are rare in scene files.

The reader parses with numpy's C reader. A file it refuses, or one with
a non-finite cell, is read again line by line with ``float``, which
names the offending line and column, and accepts what ``float`` does
(such as "1_0").

Every JSON file, and the text of every report, has one encoding,
``json_text``: compact, on one line. ``write_json`` writes it and
``read_json`` reads any JSON input, naming the path of one that does not
decode.
"""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .model import SpatialResponse


# Whole rows of about this many cells go through the CSV kernel at a time.
_CHUNK_CELLS = 1 << 12
# 10**k for 0 <= k <= 22 is an exact double, and so is its split into
# two 26-bit halves.
_POW10 = np.array([float(10 ** k) for k in range(23)])
_SPLITTER = float(2 ** 27 + 1)


def _split(a):
    """Dekker's split of a into a high and a low half of 26 bits each."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _two_product(a, k):
    """a * 10**k exactly, as the rounded product and its error (Dekker)."""
    product = a * _POW10[k]
    ah, al = _split(a)
    bh, bl = _POW10_HIGH[k], _POW10_LOW[k]
    return product, ((ah * bh - product) + ah * bl + al * bh) + al * bl


def _decimal_digits(a):
    """Decimal exponent X of each a, 1e-4 <= a < 1e16, after rounding to
    17 significant digits half to even, and those digits as numbers, one
    row per position."""
    x = np.floor(np.log10(a)).astype(np.int64)
    while True:
        high, low = _two_product(a, 16 - x)
        under = (high < 1e16) | ((high == 1e16) & (low < 0))
        over = (high > 1e17) | ((high == 1e17) & (low >= 0))
        if not (under.any() or over.any()):
            break
        x += over.astype(np.int64) - under  # log10 missed by one at a power of ten
    # high is an integer >= 2**53 and low - floor(low) is exact, so the
    # significand is rounded half to even in int64 with no error.
    whole = np.floor(low)
    frac = low - whole
    d = high.astype(np.int64) + whole.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & ((d & 1) == 1))
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    x += carry
    # Two uint32 halves: numpy divides them by a scalar through libdivide.
    top = (d // 10 ** 9).astype(np.uint32)
    bottom = d.astype(np.uint32) - top * np.uint32(10 ** 9)  # d % 10**9, mod 2**32
    digits = np.empty((17, a.size), np.uint8)
    for q, first, last in ((bottom, 16, 8), (top, 7, 0)):
        for j in range(first, last - 1, -1):
            rest = q // 10
            digits[j] = q - rest * 10
            q = rest
    return x, digits


# One cell's block: a sign, the "0.000" that leads a fixed form below 1,
# the 17 digits with a '.' after each of the first 16, and the separator.
# A cell's bytes are the columns its mask keeps.
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 16 + b"0,", np.uint8)
_DIGITS = slice(6, 39, 2)


def _fixed_masks():
    """Masks of the fixed form, row 18 * (X + 4) + s for decimal exponent
    X in [-4, 16] and s significant digits, 0 <= s <= 17."""
    masks = np.zeros((21, 18, _TEMPLATE.size), bool)
    masks[..., -1] = True
    for x in range(-4, 17):
        for s in range(18):
            keep = masks[x + 4, s]
            if x < 0:
                keep[1:2 - x] = True  # "0." and -x - 1 zeros
                keep[6:6 + 2 * s:2] = True
            else:
                keep[6:8 + 2 * max(s - 1, x):2] = True
                keep[7 + 2 * x] = s > x + 1
    return masks.reshape(-1, _TEMPLATE.size)


_MASKS = _fixed_masks()
_WIDTHS = _MASKS.sum(axis=1)
_POSITIONS = np.arange(1, 18, dtype=np.uint8)[:, None]


def _nonzero_text(v, row_ends):
    """Bytes of the %.17g texts of the nonzero cells v, each followed by a
    comma, or by a newline at the cells `row_ends` indexes, and each
    cell's length in bytes."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    x, digits = _decimal_digits(np.where(fast, a, 1.0))
    significant = ((digits != 0) * _POSITIONS).max(axis=0)
    digits += ord("0")
    block = np.tile(_TEMPLATE, (v.size, 1))
    block[:, _DIGITS] = digits.T
    block[row_ends, -1] = ord("\n")
    form = (x + 4) * 18 + significant
    mask = _MASKS.take(form, axis=0)
    negative = np.signbit(v)
    mask[:, 0] = negative
    widths = _WIDTHS[form] + negative
    other = np.flatnonzero(~fast)  # exponent form
    if other.size:
        texts = [b"%.17g" % value for value in v[other].tolist()]
        lengths = np.array([len(t) for t in texts])
        separators = block[other, -1]
        block[other] = np.frombuffer(b"".join(t.ljust(_TEMPLATE.size) for t in texts),
                                     np.uint8).reshape(-1, _TEMPLATE.size)
        block[other, lengths] = separators
        mask[other] = np.arange(_TEMPLATE.size) <= lengths[:, None]
        widths[other] = lengths + 1
    # No text byte is NUL, so the bytes a cell does not keep become NUL and
    # one C pass deletes them.
    block *= mask
    return block.tobytes().translate(None, b"\0"), widths


def _format_cells(v, columns):
    """Bytes of the %.17g CSV lines of the flat cells v, `columns` a row."""
    zero = v == 0.0
    if not zero.any():
        return _nonzero_text(v, slice(columns - 1, None, columns))[0]
    # Zeros print as "0" or "-0" and skip the digit kernel: their bytes
    # are set in place around the kernel's text.
    nonzero = np.flatnonzero(~zero)
    text, widths = _nonzero_text(v[nonzero], nonzero % columns == columns - 1)
    negative = np.signbit(v)
    lengths = 2 + negative.astype(np.int64)
    lengths[nonzero] = widths
    stops = np.cumsum(lengths)
    out = np.empty(stops[-1], np.uint8)
    last = stops[zero] - 1
    first = last + 1 - lengths[zero]
    in_zero = np.zeros(out.size, bool)
    in_zero[first] = in_zero[first + 1] = in_zero[last] = True
    out[~in_zero] = np.frombuffer(text, np.uint8)
    out[first] = np.where(negative[zero], ord("-"), ord("0"))
    out[first + 1] = ord("0")
    # after "0", or over the "0" of a "0,"
    out[last] = np.where(np.flatnonzero(zero) % columns == columns - 1, ord("\n"), ord(","))
    return out.tobytes()


def write_matrix(path, matrix):
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.isfinite(m).all():
        row, col = np.argwhere(~np.isfinite(m))[0].tolist()
        raise ValueError(
            f"{path}: line {row + 1}, column {col + 1}: non-finite value {m[row, col]}")
    rows, columns = m.shape
    with open(path, "wb") as handle:
        if columns == 0:
            handle.write(b"\n" * rows)
            return
        # Chunks of whole rows with about _CHUNK_CELLS cells' work: a zero
        # costs about an eighth of a formatted cell.
        work = columns - 7 / 8 * np.count_nonzero(m == 0.0, axis=1)
        chunk = (np.cumsum(work) - work) // _CHUNK_CELLS
        edges = np.flatnonzero(np.diff(chunk, append=math.inf)) + 1
        for first, stop in zip([0, *edges[:-1]], edges):
            handle.write(_format_cells(m[first:stop].ravel(), columns))


def read_matrix(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty file only warns
                matrix = np.loadtxt(handle, delimiter=",", ndmin=2, comments=None)
        except (ValueError, UserWarning):  # UnicodeDecodeError is a ValueError
            matrix = None
    if matrix is not None and matrix.size and np.isfinite(matrix).all():
        return matrix
    return _read_matrix_lines(path)


def _read_matrix_lines(path):
    rows, linenos = [], []
    width = None
    # A byte that is not UTF-8 reads as a lone surrogate, so it is named by
    # its line and column.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ValueError(
                    f"{path}: line {lineno}, column {line.count(',', 0, exc.start) + 1}: "
                    f"byte 0x{ord(line[exc.start]) - 0xDC00:02x} is not UTF-8") from None
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(cells)}"
                )
            parsed = []
            for col, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}, column {col}: cannot parse {cell!r}"
                    ) from None
            rows.append(parsed)
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: zero rows")
    matrix = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        row, col = bad[0].tolist()
        raise ValueError(
            f"{path}: line {linenos[row]}, column {col + 1}: non-finite value {matrix[row, col]}"
        )
    return matrix


def write_table(path, columns, rows):
    """Write a CSV table: a header line of ``columns``, then one line per
    row. A string cell is written as it is and a number as its %.17g text."""
    lines = [",".join(columns)]
    lines += [",".join(cell if isinstance(cell, str) else f"{cell:.17g}" for cell in row)
              for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_spatial_response(path, spatial):
    pixels, weights = spatial.pixels.tolist(), spatial.weights.tolist()
    bounds = zip(spatial.indptr[:-1].tolist(), spatial.indptr[1:].tolist())
    write_json(path, {
        "L": spatial.sr_pixel_count,
        "Lh": spatial.hs_pixel_count,
        "windows": [{"pixels": pixels[a:b], "weights": weights[a:b]} for a, b in bounds],
    })


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def _window_values(path, windows, key):
    """Every window's `key` list, concatenated, as floats; the first entry
    that is not a JSON number is named with its window."""
    values = [v for w in windows for v in w[key]]
    if not set(map(type, values)) <= {int, float}:
        window, value = next((i, v) for i, w in enumerate(windows) for v in w[key]
                             if type(v) not in (int, float))
        raise ValueError(
            f"{path}: window {window}: {key} entry {json.dumps(value)} is not a number")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{path}: {key} entry out of the float range") from None


def read_spatial_response(path):
    """Read a spatial response; raise ValueError, naming the path, on the
    first badly shaped part or invalid window."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {_JSON_TYPES[type(payload)]}")
    windows = payload.get("windows", [])
    if not isinstance(windows, list):
        raise ValueError(f"{path}: windows must be an array, got {_JSON_TYPES[type(windows)]}")
    shapes = [f"window {i}: expected a JSON object, got {_JSON_TYPES[type(w)]}"
              for i, w in enumerate(windows) if not isinstance(w, dict)]
    if shapes:
        raise ValueError(f"{path}: {shapes[0]}")
    missing = [f"missing key {key!r}" for key in ("L", "windows") if key not in payload]
    missing += [f"window {i}: missing key {key!r}" for i, w in enumerate(windows)
                for key in ("pixels", "weights") if key not in w]
    missing += [f"window {i}: {key} must be an array, got {_JSON_TYPES[type(w[key])]}"
                for i, w in enumerate(windows) for key in ("pixels", "weights")
                if key in w and not isinstance(w[key], list)]
    if missing:
        raise ValueError(f"{path}: {missing[0]}")
    sizes = [len(w["pixels"]) for w in windows]
    counts = {key: payload[key] for key in ("L", "Lh") if key in payload}
    for key, value in counts.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"{path}: {key} {value!r} is not an integer")
        if value < 0:
            raise ValueError(f"{path}: {key} {value!r} is negative")
    if "Lh" in counts and counts["Lh"] != len(sizes):
        raise ValueError(
            f"{path}: declared Lh {payload['Lh']} does not match {len(sizes)} windows")
    if sizes != [len(w["weights"]) for w in windows]:
        raise ValueError(f"{path}: window pixels and weights must have equal length")
    indptr = np.cumsum([0] + sizes)
    pixels = _window_values(path, windows, "pixels")
    if counts["L"] > pixels.size:  # checked before any array of L entries is made
        raise ValueError(f"{path}: L {counts['L']} exceeds the {pixels.size} window pixel "
                         "entries, so some SR pixel is not covered")
    bad = np.flatnonzero(~(np.isfinite(pixels) & (pixels == np.round(pixels))))
    if bad.size:
        raise ValueError(f"{path}: window {np.searchsorted(indptr, bad[0], 'right') - 1}: "
                         f"pixel index {float(pixels[bad[0]])} is not an integer")
    # Checked while still floats: an index at or past 2^63 would wrap as an int.
    bad = np.flatnonzero((pixels < 0) | (pixels >= counts["L"]))
    if bad.size:
        window = int(np.searchsorted(indptr, bad[0], "right")) - 1
        raise ValueError(f"{path}: [window_range] window {window}: pixel index "
                         f"{windows[window]['pixels'][bad[0] - indptr[window]]} is out of "
                         f"range for {int(counts['L'])} SR pixels")
    spatial = SpatialResponse(int(counts["L"]), indptr=indptr, pixels=pixels,
                              weights=_window_values(path, windows, "weights"))
    problems = spatial.validate()
    if problems:
        raise ValueError(f"{path}: {problems[0]}")
    return spatial


def json_text(payload):
    """The package's one JSON encoding: compact, on one line. Without
    indent, json.dumps runs CPython's C encoder."""
    return json.dumps(payload, separators=(",", ":"), default=json_default)


def make_directory(path):
    """Create directory ``path`` and its parents and return it as a Path; a
    file in the way raises NotADirectoryError naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        blocker = next(p for p in (path, *path.parents) if p.exists())
        raise NotADirectoryError(f"cannot create directory {path}: {blocker} is a file") from None
    return path


def write_json(path, payload):
    """Write json_text(payload) and a newline to path; return the text."""
    text = json_text(payload)
    Path(path).write_text(text + "\n", encoding="utf-8")
    return text


def read_json(path):
    """Decode the JSON file at path. Text that is not UTF-8 or not JSON
    raises ValueError naming the path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        # UnicodeDecodeError is a ValueError; the C decoder raises
        # RecursionError on deep nesting.
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def json_default(obj):
    """JSON fallback for numpy arrays and scalars."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

def _check_keys(cls, payload):
    """Raise ValueError naming every unknown and missing key of a config."""
    if not isinstance(payload, dict):
        kind = _JSON_TYPES.get(type(payload), type(payload).__name__)
        raise ValueError(f"{cls.__name__}: expected a JSON object, got {kind}")
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    required = [f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    problems = [f"unknown key {key!r}" for key in payload if key not in names]
    problems += [f"missing key {key!r}" for key in required if key not in payload]
    if problems:
        raise ValueError(f"{cls.__name__}: {', '.join(problems)} (allowed: {', '.join(names)})")


def config_from_dict(cls, payload):
    """Build config dataclass ``cls`` from a decoded JSON object. Keys are
    checked first, then each field whose type is a dataclass is built from
    its own object the same way, in field order; ``cls`` validates the rest."""
    _check_keys(cls, payload)
    payload = dict(payload)
    for field in dataclasses.fields(cls):
        if dataclasses.is_dataclass(field.type) and field.name in payload:
            payload[field.name] = config_from_dict(field.type, payload[field.name])
    return cls(**payload)


# ---------------------------------------------------------------------------
# Scene and solution bundles
# ---------------------------------------------------------------------------

def save_generated_scene(out_dir, generated):
    """Write a generated scene as CSV matrices plus a JSON sidecar."""
    out = make_directory(out_dir)
    write_matrix(out / "endmembers.csv", generated.scene.endmembers)
    write_matrix(out / "abundances.csv", generated.scene.abundances)
    write_matrix(out / "image.csv", generated.scene.image)
    write_matrix(out / "spectral.csv", generated.spectral)
    write_spatial_response(out / "spatial.json", generated.spatial)
    write_json(out / "scene.json", {
        "seed": generated.seed,
        "pure_windows": list(generated.pure_windows),
        "cell_supports": {str(k): list(v) for k, v in generated.cell_supports.items()},
        "draws": generated.draws,
        "acceptance_rate": generated.acceptance_rate,
    })
    return out


def save_solution(out_dir, solution):
    out = make_directory(out_dir)
    write_matrix(out / "endmembers_est.csv", solution.endmembers)
    write_matrix(out / "abundances_est.csv", solution.abundances)
    write_json(out / "solution.json", {
        "iterations": solution.iterations,
        "termination": solution.termination,
        "restarts": solution.restarts,
        "stationarity": solution.stationarity,
        "stats": solution.stats,
        "objective_trace": solution.objective_trace.tolist(),
        "objective": float(solution.objective_trace[-1]),
    })
    return out
