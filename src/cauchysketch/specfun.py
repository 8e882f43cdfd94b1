"""The special function behind the closed form of E ln(1 + lambda |X|) in
moments: the inverse tangent integral Ti_2.

It is evaluated in 64-bit floats to near machine precision. Ti_2 on
[0, 1] is one alternating series, summed by the Cohen-Rodriguez
Villegas-Zagier accelerated alternating sum; above 1 it comes from the
inversion formula Ti_2(x) = Ti_2(1/x) + (pi/2) ln(x). verify checks Ti_2
against quadrature of arctan(x s)/s on both sides of 1.

ti2 rejects NaN and out-of-domain inputs with ValueError rather than
propagating garbage.
"""

from __future__ import annotations

import math

__all__ = ["ti2"]


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _alternating_sum(term) -> float:
    """sum_{k>=0} (-1)^k term(k) from term(0), ..., term(n-1), n = 22.

    Cohen-Rodriguez Villegas-Zagier Algorithm 1 (Experimental Math. 9,
    2000). Valid when term(k) = int_0^1 t^k dm(t) is a moment sequence of
    a positive measure m on [0, 1]; the error is then at most
    2 term(0) / (3 + sqrt 8)^n, about 3e-17 term(0), while the sum is at
    least term(0)/2. The Ti_2 series x^(2k+1)/(2k+1)^2, 0 <= x <= 1,
    qualifies.
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
