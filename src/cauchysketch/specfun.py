"""Real-valued special functions: polylogarithms Li_b, the inverse tangent
integral Ti_2, and atanh, together with the functional equations relating
them.

Everything here is evaluated in 64-bit floats to near machine precision.
Series are summed by two kernels only:

* an alternating sum accelerated by Cohen-Rodriguez Villegas-Zagier, for
  Ti_2 on [0, 1] and Li_b on [-1, 0);
* a direct sum stopped by its geometric tail bound, for Li_b on [0, 1).

Ti_2 above 1 comes from the inversion formula, Li_b(1) from zeta. No value
is computed through the dilogarithm reflection or the input-squared
identity, so those identities can check the sums.

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

# Direct sums stop once the tail bound is below this fraction of the
# partial sum.
_REL_EPS = 1e-16


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


def _alternating_sum(term) -> float:
    """sum_{k>=0} (-1)^k term(k) from term(0), ..., term(n-1), n = 22.

    Cohen-Rodriguez Villegas-Zagier Algorithm 1 (Experimental Math. 9,
    2000). Valid when term(k) = int_0^1 t^k dm(t) is a moment sequence of
    a positive measure m on [0, 1]; the error is then at most
    2 term(0) / (3 + sqrt 8)^n, about 3e-17 term(0), while the sum is at
    least term(0)/2. Two series here qualify: x^(2k+1)/(2k+1)^2 for
    0 <= x <= 1 (Ti_2) and |x|^(k+1)/(k+1)^b for 0 < |x| <= 1, b > 0
    (Li_b at negative x).
    """
    n = 22
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    total = 0.0
    for k in range(n):
        c = b - c
        total += c * term(k)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return total / d


def _li_series_tail_bounded(b: float, x: float) -> float:
    # Direct sum for 0 <= x < 1 with the geometric tail bound
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
    summable otherwise); b > 0 suffices for |x| < 1. On 0 < x < 1 the
    direct sum takes about 37/(1-x) terms and raises ArithmeticError past
    10^7 of them. Satisfies |Li_b(+-1)| < b and Li_b(x) <= x Li_b(1) for
    0 < x < 1.
    """
    b = _require_finite("b", b)
    x = _require_finite("x", x)
    if x > 1.0:
        raise ValueError(f"li requires x <= 1, got {x!r}")
    if x < -1.0:
        raise ValueError(f"li requires x >= -1, got {x!r}")
    if abs(x) == 1.0 and b <= 1.0:
        raise ValueError("li at |x| = 1 requires b > 1")
    if b <= 0.0:
        raise ValueError("li requires b > 0 for |x| < 1")
    if x == 1.0:
        return _zeta(b)
    if x < 0.0:
        a = -x
        return -_alternating_sum(lambda k: a ** (k + 1) / (k + 1) ** b)
    return _li_series_tail_bounded(b, x)


def dilog_reflection_residual(x: float) -> float:
    """Residual of the dilogarithm reflection formula at x in (0, 1).

    Returns Li_2(x) + Li_2(1-x) - Li_2(1) + ln(x)ln(1-x), which is
    identically zero; the evaluated magnitude stays below 1e-10.
    """
    x = _require_finite("x", x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"dilog_reflection_residual requires 0 < x < 1, got {x!r}")
    return li(2.0, x) + li(2.0, 1.0 - x) - _zeta(2.0) + math.log(x) * math.log1p(-x)


def ti2(x: float) -> float:
    """Inverse tangent integral Ti_2(x) = sum_j (-1)^j x^(2j+1) / (2j+1)^2.

    Strictly increasing on x >= 0. Evaluated by the accelerated alternating
    series for x <= 1 and by the inversion formula
    Ti_2(x) = Ti_2(1/x) + (pi/2) ln(x) for x > 1. Ti_2(1) is Catalan's
    constant, inside (8/9, 1).
    """
    x = _require_finite("x", x)
    if x < 0.0:
        raise ValueError(f"ti2 requires x >= 0, got {x!r}")
    if x > 1.0:
        return ti2(1.0 / x) + 0.5 * math.pi * math.log(x)
    return _alternating_sum(lambda k: x ** (2 * k + 1) / (2 * k + 1) ** 2)
