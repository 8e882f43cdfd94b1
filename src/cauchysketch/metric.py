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

from .cauchy import _TILE

__all__ = ["xi", "rho", "xi_small_envelope"]


def xi(a):
    """Coordinate function xi(a) = ln(1 + sqrt(a)) + ln(1 + a)/2, a >= 0.

    Evaluated through log1p so small a keeps full precision (xi(a) ~ sqrt(a)
    there, and naive ln(1 + sqrt(a)) sheds digits below 1e-8). Accepts
    scalars or arrays. Bounded by ln(1+a) <= xi(a) <= 2 ln(1 + sqrt(a)).
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.empty(a.shape)
    # Tile by tile into out, so besides a and out only one tile is alive;
    # xi is elementwise, so tiles keep every bit.
    flat, flat_out = a.reshape(-1), out.reshape(-1)
    root = np.empty(min(_TILE, a.size))
    for lo in range(0, a.size, _TILE):
        tile, dst = flat[lo : lo + _TILE], flat_out[lo : lo + _TILE]
        if not (tile >= 0.0).all():  # also false on NaN
            raise ValueError("xi requires a >= 0")
        # The sum commutes, so the bits are those of
        # log1p(sqrt(a)) + 0.5 * log1p(a).
        part = root[: tile.size]
        np.sqrt(tile, out=part)
        np.log1p(part, out=part)
        np.log1p(tile, out=dst)
        dst *= 0.5
        dst += part
    return float(out) if out.ndim == 0 else out


def rho(u, v):
    """Target metric rho(u, v) = mean of xi over |u_i - v_i|.

    v is one sketch row, a nonempty 1-d array. u is a row of the same
    length, which gives a float, or an (m, k) stack of rows, which gives
    the m values rho(u[j], v) as an array, each with the same bits as the
    row-by-row call. Symmetric, zero exactly on equal points, triangle
    inequality via the concavity of xi, and translation invariant since
    only differences enter; a difference past the largest float raises
    ValueError. numpy's pairwise (fixed-block tree) reduction
    keeps the mean accurate and bit-stable for large k.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0 or u.ndim not in (1, 2) or u.shape[-1] != v.size:
        raise ValueError(
            f"rho needs a nonempty 1-d row v and a row or stack of rows u of its length, "
            f"got {u.shape}, {v.shape}"
        )
    # A difference past the largest float gives an infinite mean; checking
    # the m means costs one pass over m, not over the k m differences.
    with np.errstate(over="ignore"):
        means = np.mean(xi(np.abs(u - v)), axis=-1)
    if not np.isfinite(means).all():
        raise ValueError("rho needs rows whose differences are finite; rescale the sketch")
    return float(means) if means.ndim == 0 else means


def xi_small_envelope(a: float) -> tuple[float, float]:
    """Approximate 1/2-homogeneity envelope of xi on 0 < a < 1/6.

    Returns (sqrt(a), sqrt(a) (1 + a/2)); xi(a) lies between the two.
    """
    a = float(a)
    if not 0.0 < a < 1.0 / 6.0:
        raise ValueError(f"xi_small_envelope requires 0 < a < 1/6, got {a!r}")
    root = np.sqrt(a)
    return float(root), float(root * (1.0 + 0.5 * a))
