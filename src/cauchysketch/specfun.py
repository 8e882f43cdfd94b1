"""Real-valued special functions: polylogarithms Li_b, the inverse tangent
integral Ti_2, and atanh, together with the functional equations relating
them.

Everything here is evaluated in 64-bit floats to near machine precision.
Evaluation strategy per function:

* series on the disk |x| <= 0.5, terminating when a term falls below
  1e-16 of the partial sum;
* outside the disk, a functional equation (dilog reflection for Li_2,
  the input-squared identity for negative arguments, inversion for Ti_2)
  or a rigorously tail-bounded direct sum.

All functions reject NaN and out-of-domain inputs with ValueError rather
than propagating garbage.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "atanh_eval",
    "atanh_add_arg",
    "li",
    "dilog_reflection_residual",
    "ti2",
]

# Series termination: stop once a term is below this fraction of the partial
# sum (plus an absolute floor for sums passing through zero).
_REL_EPS = 1e-16
_ABS_FLOOR = 1e-300

_SERIES_RADIUS = 0.5  # |x| <= 0.5: direct series is the fast, safe path


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def atanh_eval(x):
    """Inverse hyperbolic tangent on (-1, 1).

    atanh(x) = (ln(1+x) - ln(1-x)) / 2; odd and strictly increasing. A
    float gives a float, an array an array of its shape.
    """
    x = np.asarray(x, dtype=np.float64)
    inside = np.abs(x) < 1.0  # also false on NaN
    if not inside.all():
        bad = float(x[~inside].flat[0])
        _require_finite("x", bad)
        raise ValueError(f"atanh_eval requires |x| < 1, got {bad!r}")
    # log1p keeps full precision for small x where ln(1 +- x) would cancel.
    out = 0.5 * (np.log1p(x) - np.log1p(-x))
    return float(out) if out.ndim == 0 else out


def atanh_add_arg(x: float, y: float) -> float:
    """Combined argument of the atanh addition formula.

    atanh(x) + atanh(y) = atanh((x+y)/(1+xy)) for x, y in (-1, 1); this
    returns (x+y)/(1+xy), which again lies in (-1, 1).
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if abs(x) >= 1.0 or abs(y) >= 1.0:
        raise ValueError("atanh_add_arg requires x, y in (-1, 1)")
    return (x + y) / (1.0 + x * y)


def _li_series(b: float, x: float) -> float:
    # Direct sum of x^j / j^b. Caller guarantees termination is fast
    # (|x| <= 0.5) or supplies the geometric tail bound path below.
    total = 0.0
    power = 1.0
    for j in range(1, 100_000):
        power *= x
        term = power / j**b
        total += term
        if abs(term) <= _REL_EPS * abs(total) + _ABS_FLOOR:
            return total
    raise ArithmeticError(f"Li series did not converge for b={b}, x={x}")


def _li_series_tail_bounded(b: float, x: float) -> float:
    # Direct sum for 0.5 < x < 1 with the geometric tail bound
    # sum_{j>J} x^j j^-b <= x^(J+1) (J+1)^-b / (1-x); stop when that
    # bound is negligible against the partial sum.
    total = 0.0
    power = 1.0
    geom = 1.0 / (1.0 - x)
    for j in range(1, 10_000_000):
        power *= x
        term = power / j**b
        total += term
        if term * x * geom <= _REL_EPS * total:
            return total
    raise ArithmeticError(f"Li series did not converge for b={b}, x={x}")


def _zeta(b: float) -> float:
    # Riemann zeta for b > 1 by Euler-Maclaurin: direct terms to N, then
    # integral + boundary + two Bernoulli corrections. Error is far below
    # 1e-15 for N = 64 and the b >= 2 range used here; smaller b just needs
    # the same machinery with slightly more slack.
    n = 64
    total = sum(1.0 / j**b for j in range(1, n))
    total += n ** (1.0 - b) / (b - 1.0)
    total += 0.5 * n**-b
    total += (b / 12.0) * n ** (-b - 1.0)
    total -= (b * (b + 1.0) * (b + 2.0) / 720.0) * n ** (-b - 3.0)
    return total


def li(b: float, x: float) -> float:
    """Polylogarithm Li_b(x) = sum_{j>=1} x^j / j^b for real x <= 1.

    b > 1 is required at |x| = 1 (where the series is only conditionally
    summable otherwise); b > 0 suffices for |x| < 1. Satisfies
    |Li_b(+-1)| < b and Li_b(x) <= x Li_b(1) for 0 < x < 1.
    """
    b = _require_finite("b", b)
    x = _require_finite("x", x)
    if x > 1.0:
        raise ValueError(f"li requires x <= 1, got {x!r}")
    if x < -1.0:
        raise ValueError(f"li requires x >= -1, got {x!r}")
    if abs(x) == 1.0:
        if b <= 1.0:
            raise ValueError("li at |x| = 1 requires b > 1")
        if x == 1.0:
            return _zeta(b)
        # Li_b(-1) = (2^(1-b) - 1) zeta(b), the x = 1 case of the
        # input-squared identity Li_b(z) + Li_b(-z) = 2^(1-b) Li_b(z^2).
        return (2.0 ** (1.0 - b) - 1.0) * _zeta(b)
    if b <= 0.0:
        raise ValueError("li requires b > 0 for |x| < 1")
    if abs(x) <= _SERIES_RADIUS:
        return _li_series(b, x)
    if x > 0.0:
        if b == 2.0:
            # Dilog reflection: Li_2(x) = zeta(2) - ln(x)ln(1-x) - Li_2(1-x),
            # and 1-x lands inside the series disk.
            return _zeta(2.0) - math.log(x) * math.log1p(-x) - _li_series(2.0, 1.0 - x)
        return _li_series_tail_bounded(b, x)
    # -1 < x < -0.5: input-squared identity with both pieces at smaller or
    # positive arguments; x^2 < 1 recurses toward the series disk.
    return 2.0 ** (1.0 - b) * li(b, x * x) - li(b, -x)


def dilog_reflection_residual(x: float) -> float:
    """Residual of the dilogarithm reflection formula at x in (0, 1).

    Returns Li_2(x) + Li_2(1-x) - Li_2(1) + ln(x)ln(1-x), which is
    identically zero; the evaluated magnitude stays below 1e-10.
    """
    x = _require_finite("x", x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"dilog_reflection_residual requires 0 < x < 1, got {x!r}")
    return li(2.0, x) + li(2.0, 1.0 - x) - _zeta(2.0) + math.log(x) * math.log1p(-x)


def ti2(x: float, tol: float = 1e-14) -> float:
    """Inverse tangent integral Ti_2(x) = sum_j (-1)^j x^(2j+1) / (2j+1)^2.

    Strictly increasing on x >= 0. Evaluated by the alternating series for
    x <= 1 and by the inversion formula Ti_2(x) = Ti_2(1/x) + (pi/2) ln(x)
    for x > 1. Ti_2(1) is Catalan's constant, inside (8/9, 1).
    """
    x = _require_finite("x", x)
    if x < 0.0:
        raise ValueError(f"ti2 requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if x > 1.0:
        return ti2(1.0 / x, tol) + 0.5 * math.pi * math.log(x)
    # Alternating series with the midpoint tail estimate: the terms
    # a_j = x^(2j+1)/(2j+1)^2 are convex decreasing, so
    # |S - (S_J + (-1)^(J+1) a_(J+1)/2)| <= (a_(J+1) - a_(J+2))/2.
    # At x = 1 that reaches 1e-13 within ~2e4 terms; smaller x is geometric.
    x2 = x * x
    total = 0.0
    sign = 1.0
    power = x
    j = 0
    while True:
        a_next = power / (2 * j + 1) ** 2
        nxt = power * x2 / (2 * j + 3) ** 2
        # Relative target so tiny x keeps full relative accuracy too.
        if 0.5 * (a_next - nxt) <= tol * max(abs(total), a_next):
            return total + sign * 0.5 * a_next
        total += sign * a_next
        sign = -sign
        power *= x2
        j += 1
        if j > 5_000_000:
            raise ArithmeticError(f"ti2 series did not converge for x={x}")
