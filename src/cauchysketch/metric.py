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

__all__ = ["xi", "rho", "xi_small_envelope"]


def xi(a):
    """Coordinate function xi(a) = ln(1 + sqrt(a)) + ln(1 + a)/2, a >= 0.

    Evaluated through log1p so small a keeps full precision (xi(a) ~ sqrt(a)
    there, and naive ln(1 + sqrt(a)) sheds digits below 1e-8). Accepts
    scalars or arrays. Bounded by ln(1+a) <= xi(a) <= 2 ln(1 + sqrt(a)).
    """
    a = np.asarray(a, dtype=np.float64)
    if np.any(a < 0.0) or np.any(np.isnan(a)):
        raise ValueError("xi requires a >= 0")
    out = np.log1p(np.sqrt(a)) + 0.5 * np.log1p(a)
    return float(out) if out.ndim == 0 else out


def rho(u: np.ndarray, v: np.ndarray) -> float:
    """Target metric rho(u, v) = mean of xi over |u_i - v_i|.

    u and v are two sketch rows: nonempty 1-d arrays of equal length.
    Symmetric, zero exactly on equal points, triangle inequality via the
    concavity of xi, and translation invariant since only differences
    enter. numpy's pairwise (fixed-block tree) reduction keeps the mean
    accurate and bit-stable for large k.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or u.size == 0 or u.shape != v.shape:
        raise ValueError(f"rho needs nonempty 1-d arrays of equal length, got {u.shape}, {v.shape}")
    return float(np.mean(xi(np.abs(u - v))))


def xi_small_envelope(a: float) -> tuple[float, float]:
    """Approximate 1/2-homogeneity envelope of xi on 0 < a < 1/6.

    Returns (sqrt(a), sqrt(a) (1 + a/2)); xi(a) lies between the two.
    """
    a = float(a)
    if not 0.0 < a < 1.0 / 6.0:
        raise ValueError(f"xi_small_envelope requires 0 < a < 1/6, got {a!r}")
    root = np.sqrt(a)
    return float(root), float(root * (1.0 + 0.5 * a))
