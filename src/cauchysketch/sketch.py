"""Dense Cauchy projections of point sets, regime tags for distance estimates,
and the dataset and sketch file formats.

The pipeline: draw a k x d matrix F of iid standard Cauchy entries, sketch
the (N, d) point array X as the (N, k) array X F^T, and read distances off
pairs of sketch rows through the nonlinear mean map. By 1-stability each
sketch coordinate difference is Cauchy with scale ||x - y||_1, so the
sketch-space mean of xi, rho(u, v), concentrates at mu(||x - y||_1) and
mu_inverse(rho(u, v)) turns it back into a distance estimate.

Everything is deterministic in (points, k, seed): matrix entries come
from a single seeded stream in row-major order, so entry (i, j) is draw
number i*d + j regardless of how the matrix is later traversed. Each
sketch coordinate needs one row of F, so sketch_dataset draws F a block
of rows at a time and never holds it whole; build_projection draws the
same entries at once.

File formats owned here: CSV (one point per row, optional header, parsed
by numpy's loadtxt) and a raw binary layout (two little-endian uint64
giving the row and column counts, then row-major little-endian float64
payload) used both for input datasets and sketch output.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import glob
import os
import threading
from dataclasses import dataclass

import numpy as np

from .cauchy import (
    RngSeed,
    _check_count,
    _fill_cauchy,
    _split_stream,
    make_generator,
    sample_standard_cauchy,
)
from .concentration import _scale_cutoffs
from .moments import _check_lambda

__all__ = [
    "DatasetFormatError",
    "ProjectionMatrix",
    "build_projection",
    "sketch_dataset",
    "regime_tag",
    "read_points",
    "read_csv_matrix",
    "read_binary_matrix",
    "write_binary_matrix",
]

# Cap on k*d; a dense float64 matrix at the cap is ~17 GB, well past
# anything this sketch is meant for.
MAX_ENTRIES = 2**31
# Projection entries a sketch draws per block of rows of F (8 MB of
# float64), so F is never held whole. The block edges and the cut of each
# block in two (_cut) decide which rows one BLAS product covers, and with
# them the sketch bytes, so both stay fixed.
_BLOCK_DRAWS = 2**20


class DatasetFormatError(ValueError):
    """Malformed dataset or sketch file (bad header, ragged rows, ...)."""


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """k x d iid standard Cauchy matrix, pinned to its seed."""

    k: int
    d: int
    entries: np.ndarray
    seed: RngSeed

    def __post_init__(self) -> None:
        if self.k < 1 or self.d < 1:
            raise ValueError(f"k and d must be >= 1, got k={self.k!r}, d={self.d!r}")
        if self.entries.shape != (self.k, self.d):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match ({self.k}, {self.d})"
            )
        if not np.isfinite(self.entries).all():
            raise ValueError("projection entries must be finite")


def _check_shape(k, d) -> tuple[int, int]:
    k = _check_count("k", k, 1)
    d = _check_count("d", d, 1)
    if k * d > MAX_ENTRIES:
        raise ValueError(f"k*d = {k * d} exceeds the entry budget {MAX_ENTRIES}")
    return k, d


def build_projection(k: int, d: int, seed: RngSeed) -> ProjectionMatrix:
    """Draw the k x d Cauchy projection for a seed, row-major from one stream."""
    k, d = _check_shape(k, d)
    rng = make_generator(seed)
    entries = sample_standard_cauchy(rng, size=k * d).reshape(k, d)
    entries.setflags(write=False)
    return ProjectionMatrix(k=k, d=d, entries=entries, seed=seed)


def sketch_dataset(points, k: int, seed: RngSeed) -> np.ndarray:
    """Sketch an (N, d) point set into the (N, k) array X F^T, in input order.

    F has the entries of build_projection(k, d, seed), shared by every
    point. It is drawn and applied a block of rows at a time (about
    _BLOCK_DRAWS entries) into one reused buffer, so the memory held is
    the sketch plus one block. Each block is cut in two at a row fixed by
    the block alone, the second half drawn from a jump-ahead copy of the
    stream (_split_stream) at any CPU count, and each half is one product
    on one BLAS thread, so the bytes depend on neither the BLAS thread
    count nor the CPU count (when numpy's OpenBLAS is not found, the
    halves run in turn on BLAS's own thread count; see _one_blas_thread).
    Raises ValueError when a product overflows: finite points can still
    produce an infinite sketch coordinate, which no distance could be read
    from. Raises it too when a column's max - min overflows, since that
    bounds the difference of every pair of rows the estimate takes.
    """
    arr = _as_point_array(points)
    d = arr.shape[1]
    k, d = _check_shape(k, d)
    rows = max(1, _BLOCK_DRAWS // d)
    if rows > 64:
        # Block edges on multiples of 64 rows fall on BLAS register-tile
        # edges, so most blocks round like the same rows of one product.
        rows -= rows % 64
    rng = make_generator(seed)
    coords = np.empty((arr.shape[0], k))
    buffer = np.empty(min(rows, k) * d)  # every block is drawn into it

    def project(g, a, b):
        # Rows a..b of F, drawn from g into their place in the buffer
        # (blocks start at multiples of rows), times X into columns a..b
        # of the sketch. np.errstate holds per thread, so each lane enters
        # its own.
        start = (a % rows) * d
        block = _fill_cauchy(g, buffer[start : start + (b - a) * d]).reshape(b - a, d)
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(arr, block.T, out=coords[:, a:b])

    with _one_blas_thread() as capped:
        for lo in range(0, k, rows):
            hi = min(k, lo + rows)
            mid = lo + _cut(hi - lo)
            # Uncapped, a threaded product's workers already use the other
            # CPU, so the halves run one after the other.
            _split_stream(
                rng, (mid - lo) * d, lambda g: project(g, lo, mid), lambda g: project(g, mid, hi),
                (hi - lo) * d if capped else 0,
            )
    if not np.isfinite(coords).all():
        raise ValueError("sketch coordinates overflow float64; rescale the points")
    with np.errstate(over="ignore"):
        spread = coords.max(axis=0) - coords.min(axis=0)
    if not np.isfinite(spread).all():
        raise ValueError("sketch coordinates differ by more than float64 holds; rescale the points")
    return coords


def _cut(rows: int) -> int:
    """Rows of a block that go to its first half: the half, or for more
    than 128 rows the nearest multiple of 64 to it (a BLAS tile edge)."""
    return rows // 2 if rows <= 128 else 64 * ((rows + 64) // 128)


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS numpy's wheel
    bundles (scipy-openblas, 64-bit ints), or None when numpy links another
    BLAS. Looked up on the first sketch, not at import."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            # RTLD_NOLOAD: only the copy numpy has loaded, never a second one.
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _product_threads() -> int | None:
    """The BLAS thread count sketch products run on: 1, or None when numpy's
    OpenBLAS is not found and they run on BLAS's own count."""
    return None if _openblas() is None else 1


# The cap is process-wide: sketches running at once share it, and the
# last to finish restores the count the first one found.
_cap_lock = threading.Lock()
_cap_holders = 0
_uncapped_threads = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, process-wide, and restore its
    thread count on exit; yields whether the cap holds.

    A threaded OpenBLAS product rounds by how it splits the work over its
    threads, and its idle workers spin on the other CPU after each call,
    against the sketch's second lane and the estimate's lanes. Setting
    the count per lane does not work: a worker thread's
    openblas_set_num_threads_local changed the count the main thread saw.
    """
    global _cap_holders, _uncapped_threads
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, set_ = blas
    with _cap_lock:
        if _cap_holders == 0:
            _uncapped_threads = get()
            set_(1)
        _cap_holders += 1
    try:
        yield True
    finally:
        with _cap_lock:
            _cap_holders -= 1
            if _cap_holders == 0:
                set_(_uncapped_threads)


# Indexed by the codes regime_tag computes.
_REGIME_TAGS = ("large", "small", "really-small", "unproven-upper")


def regime_tag(estimate, epsilon: float, lambda0: float):
    """Which guarantee covers a distance estimate: large / small /
    really-small / unproven-upper.

    Distances at or below 8 eps^2 split on the max-of-iid cutoff lambda0
    of the sketch's plan: at or below it the two-sided corollary band is
    proven (really-small), between lambda0 and 8 eps^2 the upper tail is
    an open case (unproven-upper). An estimate of 0 (duplicate rows) is
    really-small whatever lambda0 is; lambda0 itself must be finite and
    >= 0 (a plan's lambda0 can underflow to 0). The tag is read from the
    estimate, not the unknown true distance, and names a guarantee only
    when the sketch's k is at least plan_dimension's k; below that, or
    near a cutoff, it names only the estimate's regime. A float gives one
    tag; an array gives an object array of its shape holding the tags.
    """
    est = np.asarray(estimate, dtype=np.float64)
    bad = np.isnan(est) | (est < 0.0)
    if bad.any():
        raise ValueError(f"estimate must be >= 0, got {float(est[bad].flat[0])!r}")
    lambda0 = _check_lambda(lambda0)
    large_from, small_above = _scale_cutoffs(epsilon)
    proven_small = (est == 0.0) | (est <= lambda0)
    codes = np.select([est >= large_from, est > small_above, proven_small], [0, 1, 2], 3)
    if codes.ndim == 0:
        return _REGIME_TAGS[codes]
    return np.array(_REGIME_TAGS, dtype=object)[codes]


def _as_point_array(points) -> np.ndarray:
    try:
        arr = np.asarray(points, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"points must form a rectangular array: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"points must be a nonempty list of equal-length vectors, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    return arr


def read_points(path, fmt: str) -> np.ndarray:
    """Read a dataset as an (N, D) float64 array; fmt is 'csv' or 'bin'."""
    if fmt == "csv":
        return read_csv_matrix(path)
    if fmt == "bin":
        return read_binary_matrix(path)
    raise ValueError(f"format must be 'csv' or 'bin', got {fmt!r}")


# UTF-8, less a leading byte-order mark, which would otherwise make the
# first field unparseable and a numeric first row look like a header.
_CSV_ENCODING = "utf-8-sig"


def read_csv_matrix(path) -> np.ndarray:
    """Parse comma-separated points, one per row, with numpy's loadtxt; a
    first non-blank row with a text field is a header and is skipped.

    Fields are ASCII decimal or scientific notation, optionally quoted
    with '"'; '#' is data, not a comment. Blank lines, empty or of
    spaces and tabs only, are skipped. The file is UTF-8, and a leading
    byte-order mark is dropped.
    """
    try:  # UnicodeDecodeError is a ValueError too
        skip = _header_lines(path)
        # Universal newlines split lines where the scan's newline="" does,
        # and iterate 3x faster.
        with open(path, encoding=_CSV_ENCODING) as handle:
            data = None if skip is None else np.loadtxt(
                _filled_lines(handle), delimiter=",", comments=None, quotechar='"', skiprows=skip, ndmin=2,
            )
    except (ValueError, csv.Error) as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    if data is None:
        raise DatasetFormatError(f"{path}: no data rows")
    if not np.isfinite(data).all():
        raise DatasetFormatError(f"{path}: non-finite value in data")
    return data


def _filled_lines(handle):
    # The lines that hold more than spaces and tabs. The header scan and
    # loadtxt both read these, so loadtxt skips the lines the scan counts.
    return (line for line in handle if line.strip(" \t\r\n"))


def _header_lines(path) -> int | None:
    # Lines before the data: through the header when the first row is
    # one, else 0. None when no row holds data.
    with open(path, newline="", encoding=_CSV_ENCODING) as handle:
        reader = csv.reader(_filled_lines(handle))
        first = next(reader, None)
        if first is None:
            return None
        if not _is_header(first):
            return 0
        header_lines = reader.line_num
        return header_lines if next(reader, None) is not None else None


def _is_header(row) -> bool:
    # Some field, less surrounding spaces and quotes, is neither empty nor
    # a number. loadtxt takes any other row as data, as any later row.
    try:
        for field in row:
            field = field.strip(' "')
            if field:
                float(field)
    except ValueError:
        return True
    return False


def read_binary_matrix(path) -> np.ndarray:
    """Read the raw binary layout: uint64 LE (rows, cols), float64 LE payload."""
    with open(path, "rb") as handle:
        header = np.fromfile(handle, dtype="<u8", count=2)
        if header.size != 2:
            raise DatasetFormatError(f"{path}: truncated header")
        rows, cols = int(header[0]), int(header[1])
        if rows < 1 or cols < 1:
            raise DatasetFormatError(f"{path}: empty dataset ({rows} x {cols})")
        if rows * cols > MAX_ENTRIES:
            raise DatasetFormatError(f"{path}: {rows} x {cols} exceeds the entry budget")
        # The file size is checked before the payload is allocated, so a
        # header promising more than the file holds costs nothing.
        payload = os.fstat(handle.fileno()).st_size - 16
        if payload < 8 * rows * cols:
            raise DatasetFormatError(
                f"{path}: payload has {payload // 8} values, header promises {rows * cols}"
            )
        if payload > 8 * rows * cols:
            raise DatasetFormatError(f"{path}: trailing bytes after payload")
        data = np.fromfile(handle, dtype="<f8", count=rows * cols)
    if not np.isfinite(data).all():
        raise DatasetFormatError(f"{path}: non-finite value in data")
    return data.reshape(rows, cols).astype(np.float64, copy=False)


def write_binary_matrix(path, array: np.ndarray) -> None:
    """Write an (N, M) array in the raw binary layout."""
    array = np.ascontiguousarray(array, dtype="<f8")
    if array.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {array.shape}")
    with open(path, "wb") as handle:
        np.asarray(array.shape, dtype="<u8").tofile(handle)
        array.tofile(handle)
