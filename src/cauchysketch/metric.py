"""The target-space metric: the coordinate function xi applied to absolute
coordinate differences and averaged.

xi(a) = ln(1 + sqrt(a)) + ln(1 + a)/2 is concave, strictly increasing, and
zero at zero, which makes it metric preserving: rho(x, y), the average of
xi(|x_i - y_i|) over the k coordinates, is a translation-invariant metric.
It is not induced by a norm; scaling both points does not scale rho.

For 0 < a < 1/6 the function is approximately 1/2-homogeneous:
sqrt(a) <= xi(a) <= sqrt(a)(1 + a/2). That envelope is what lets the
really-small-scale argument trade one scale for another.
"""

from __future__ import annotations

import numpy as np

from .cauchy import _TILE, _in_two_lanes, _lanes

__all__ = ["xi", "rho", "rho_blocks"]

# Pairs in one block of rho_blocks, and so in one block of the estimate
# table: estimate holds the sketch and one block of rho values, estimates,
# tags and table rows, whatever N is. plan, sketch and estimate of the
# `pairs` shape (N = 200, k = 1024) in one fresh process peaked at
# 40.3-40.4 MB ru_maxrss with 4,096, 40.1 MB with 1,024 and 42.3-42.6 MB
# with 16,384, against 42.4 MB holding every pair (2-vCPU x86-64 VM).
_BLOCK_PAIRS = 4096


def xi(a, out=None):
    """Coordinate function xi(a) = ln(1 + sqrt(a)) + ln(1 + a)/2, a >= 0.

    Evaluated through log1p so small a keeps full precision (xi(a) ~ sqrt(a)
    there, and naive ln(1 + sqrt(a)) sheds digits below 1e-8). Accepts
    scalars or arrays. Bounded by ln(1+a) <= xi(a) <= 2 ln(1 + sqrt(a)).
    out, a C-contiguous float64 array of a's shape or a itself, takes the
    values instead of a new array (after a ValueError, part of them).
    """
    a = np.asarray(a, dtype=np.float64)
    if out is None:
        out = np.empty(a.shape)
    elif out.shape != a.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("xi needs out to be a C-contiguous float64 array of a's shape")
    # Tile by tile into out, so besides a and out only one tile is alive;
    # xi is elementwise, so tiles keep every bit.
    flat, flat_out = a.reshape(-1), out.reshape(-1)
    root = np.empty(min(_TILE, a.size))
    for lo in range(0, a.size, _TILE):
        tile, dst = flat[lo : lo + _TILE], flat_out[lo : lo + _TILE]
        if not (tile >= 0.0).all():  # also false on NaN
            raise ValueError("xi requires a >= 0")
        _xi_tile(tile, dst, root[: tile.size])
    return float(out) if out.ndim == 0 else out


def _xi_tile(a, out, root) -> None:
    """xi of the array a into out, which may be a itself; root is scratch
    of a's shape. The sum commutes, so the bits are those of
    log1p(sqrt(a)) + 0.5 * log1p(a)."""
    np.sqrt(a, out=root)
    np.log1p(root, out=root)
    np.log1p(a, out=out)
    out *= 0.5
    out += root


def rho(u, v):
    """Target metric rho(u, v) = mean of xi over |u_i - v_i|.

    v is one sketch row, a nonempty 1-d array. u is a row of the same
    length, which gives a float, or an (m, k) stack of rows, which gives
    the m values rho(u[j], v) as an array, each with the same bits as the
    row-by-row call. Symmetric, zero exactly on equal points, triangle
    inequality via the concavity of xi, and translation invariant since
    only differences enter; a difference that is not finite (past the
    largest float, or from a non-finite coordinate) raises ValueError.
    numpy's pairwise (fixed-block tree) reduction keeps the mean accurate
    and bit-stable for large k. A stack runs a block of rows at a time
    through two scratch tiles, so besides u and the m values rho holds
    at most 2 max(_TILE, k) floats and numpy's ufunc buffer.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0 or u.ndim not in (1, 2) or u.shape[-1] != v.size:
        raise ValueError(
            f"rho needs a nonempty 1-d row v and a row or stack of rows u of its length, "
            f"got {u.shape}, {v.shape}"
        )
    stack = u.reshape(-1, v.size)
    means = np.empty(len(stack))
    _rho_rows(stack, v, means, *_scratch(len(stack), v.size))
    _check_finite(means)
    return float(means[0]) if u.ndim == 1 else means


def rho_blocks(coords):
    """rho of every pair of rows of an (N, k) sketch, N >= 2: yields
    (i, j, values) for each block of at most _BLOCK_PAIRS pairs, where
    (i, j) is the block's first pair and values the rho of its pairs, in
    i < j row-major order (pair (0, 1) first, ..., (N-2, N-1)), each with
    the bits of that single rho call. values is one buffer, which the
    next block overwrites. Blocks start and end at any pair, inside a row
    or not; _row_segments walks one. A difference that is not finite
    raises ValueError before its block is yielded.

    Each row segment of a block runs a stack of _TILE // k rows (at least
    one) at a time. A block of 2^18 or more differences, with two CPUs,
    is cut at its middle pair and the halves run on two threads. Each
    lane allocates its two scratch tiles once, so besides coords the
    blocks hold one buffer and, per lane, at most 2 max(_TILE, k) floats
    and numpy's ufunc buffer, whatever N is.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[0] < 2 or coords.shape[1] == 0:
        raise ValueError(f"rho_blocks needs an (N, k) array with N >= 2 and k >= 1, got {coords.shape}")
    n, k = coords.shape
    total = n * (n - 1) // 2
    size = min(_BLOCK_PAIRS, total)
    buffer = np.empty(size)
    # The first block is the largest, so it takes the most lanes.
    scratch = [_scratch(min(n - 1, size), k) for _ in range(_lanes(size * k))]
    i, j = 0, 1
    for lo in range(0, total, size):
        values = buffer[: min(size, total - lo)]
        if _lanes(values.size * k) == 1:
            _rho_span(coords, i, j, values, *scratch[0])
        else:
            half = values.size // 2
            second = _advance(n, i, j, half)
            _in_two_lanes(
                lambda: _rho_span(coords, i, j, values[:half], *scratch[0]),
                lambda: _rho_span(coords, *second, values[half:], *scratch[1]),
            )
        _check_finite(values)
        yield i, j, values
        i, j = _advance(n, i, j, values.size)


def _rho_bound(coords) -> float:
    """A bound on rho of every pair of rows of an (N, k) sketch: rho of its
    column spreads max - min against zeros. Every pair's |u_c - v_c| is at
    most the spread of column c, and subtraction, xi and the mean all keep
    that order. A spread that is not finite, so some pair's difference,
    raises rho's ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        spread = coords.max(axis=0) - coords.min(axis=0)
    return rho(spread, np.zeros_like(spread))


def _row_segments(n: int, i: int, j: int, count: int):
    """The row segments (i, lo, hi), pairs (i, lo)..(i, hi - 1), that hold
    the ``count`` pairs of an N-row sketch from pair (i, j) on, in i < j
    row-major order."""
    while count:
        hi = min(n, j + count)
        yield i, j, hi
        count -= hi - j
        i, j = i + 1, i + 2


def _advance(n: int, i: int, j: int, count: int) -> tuple[int, int]:
    """The pair ``count`` places after pair (i, j) of an N-row sketch in
    i < j row-major order; past the last pair, (N - 1, N)."""
    while count and j + count >= n:
        count -= n - j
        i, j = i + 1, i + 2
    return i, j + count


def _rho_span(coords, i: int, j: int, out, diff, root) -> None:
    # out[m] = rho of the m-th pair from pair (i, j) on, a row segment at a time.
    done = 0
    for row, lo, hi in _row_segments(len(coords), i, j, out.size):
        _rho_rows(coords[lo:hi], coords[row], out[done : done + hi - lo], diff, root)
        done += hi - lo


def _block_rows(k: int) -> int:
    # Rows of length k in one block: _TILE differences, or one longer row.
    # Smaller blocks cost more in per-block Python work than they gain in
    # cache: on a 2-vCPU x86-64 VM, all pairs at N = 200, k = 1024 took
    # 12-15% longer with blocks of 2^15 differences and 35% with 2^14.
    return max(1, _TILE // k)


def _scratch(rows: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The two scratch tiles _rho_rows needs for stacks of up to ``rows``
    rows of length k."""
    size = min(_block_rows(k), rows) * k
    return np.empty(size), np.empty(size)


def _rho_rows(u, v, out, diff, root) -> None:
    """out[j] = mean of xi(|u[j] - v|) for the rows of the (m, k) stack u,
    a block of rows at a time in the flat scratch tiles diff and root. A
    difference past the largest float gives an infinite mean, left for the
    caller to check: one pass over m values, not over the k m differences.
    """
    block = _block_rows(v.size)
    # Overflow, and inf - inf in non-finite input, leave a non-finite mean;
    # errstate is per thread, so each lane enters its own.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(u), block):
            rows = u[lo : lo + block]
            d, r = diff[: rows.size].reshape(rows.shape), root[: rows.size].reshape(rows.shape)
            np.subtract(rows, v, out=d)
            np.abs(d, out=d)
            _xi_tile(d, d, r)
            np.mean(d, axis=-1, out=out[lo : lo + block])


def _check_finite(means) -> None:
    if not np.isfinite(means).all():
        raise ValueError("rho needs rows whose differences are finite; rescale the sketch")


def _xi_small_envelope(a: float) -> tuple[float, float]:
    """Approximate 1/2-homogeneity envelope of xi on 0 < a < 1/6.

    Returns (sqrt(a), sqrt(a) (1 + a/2)); xi(a) lies between the two.
    """
    a = float(a)
    if not 0.0 < a < 1.0 / 6.0:
        raise ValueError(f"_xi_small_envelope requires 0 < a < 1/6, got {a!r}")
    root = np.sqrt(a)
    return float(root), float(root * (1.0 + 0.5 * a))
