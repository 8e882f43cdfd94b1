"""Moments of xi(lambda |X|) for X standard Cauchy: the exact mean map mu,
the auxiliary mean E ln(1 + lambda |X|), second-moment and variance upper
bounds, small-scale envelopes, and the deviation widths the Chernoff
planner divides by.

The mean map, as the paper prints it and in the form computed here,

    mu(lambda) = atanh(sqrt(2 lambda)/(1 + lambda)) + ln(1 + lambda^2)/2
               = ln(1 + lambda + sqrt(2 lambda)),

since (1 + lambda)^2 - 2 lambda = 1 + lambda^2 turns the atanh into
ln(1 + lambda + sqrt(2 lambda)) - ln(1 + lambda^2)/2. It is strictly
increasing with mu(0) = 0, so it doubles as the calibration curve of the
sketch: invert it at an observed rho to estimate the original l1
distance. The inverse is elementary too: e^m - sqrt(2 e^m - 1).

Every closed form here is checked against an independent quadrature oracle
in the verification suites; nothing in this module integrates anything.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DeviationPair",
    "mu",
    "mu_inverse",
    "mu_small_envelope",
    "deviations",
    "expected_log1p",
    "second_moment_upper",
    "second_moment_ratio_bound",
]

_HALF_PI_SQ = math.pi * math.pi / 2.0
_SQRT2 = math.sqrt(2.0)


def _check_lambda(lam, *, positive: bool = False):
    # lam as a float, or as a float64 array when it is one, after a
    # ValueError naming the first element that is not finite and >= 0
    # (> 0 when positive).
    lam = np.asarray(lam, dtype=np.float64)
    ok = lam > 0.0 if positive else lam >= 0.0  # also false on NaN
    ok &= lam < math.inf
    if not ok.all():
        bad = float(lam[~ok].flat[0])
        if math.isnan(bad) or math.isinf(bad):
            raise ValueError(f"lambda must be finite, got {bad!r}")
        raise ValueError(f"lambda must be {'>' if positive else '>='} 0, got {bad!r}")
    return float(lam) if lam.ndim == 0 else lam


def _check_epsilon(epsilon) -> float:
    # epsilon as a float after a ValueError unless it is a real number
    # (numpy's too, but not a bool) in (0, 1/4], the accuracy range of
    # every bound.
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real):
        raise ValueError(f"epsilon must be a number, got {epsilon!r}")
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 0.25:
        raise ValueError(f"epsilon must be in (0, 1/4], got {epsilon!r}")
    return epsilon


def mu(lam):
    """Mean map mu(lambda) = E xi(lambda |X|) = ln(1 + lambda + sqrt(2 lambda)).

    The paper's atanh form, rewritten as the module docstring shows. It
    has no lambda^2, so it is finite for every finite lambda. A float
    gives a float, an array an array of its shape.
    """
    lam = _check_lambda(lam)
    out = np.log1p(lam + _SQRT2 * np.sqrt(lam))
    return float(out) if np.ndim(out) == 0 else out


def expected_log1p(lam: float) -> float:
    """E ln(1 + lambda |X|) in closed form.

    -(2/pi) ln(lambda) arctan(lambda) + ln(1 + lambda^2)/2 + (2/pi) Ti_2(lambda),
    extended by continuity to 0 at lambda = 0 (the ln(lambda) arctan(lambda)
    product has a removable singularity there). Nonnegative for all lambda.
    """
    # Imported here, its only use, so plan, sketch and estimate never load specfun.
    from .specfun import ti2

    lam = _check_lambda(lam)
    if lam == 0.0:
        return 0.0
    two_over_pi = 2.0 / math.pi
    return (
        -two_over_pi * math.log(lam) * math.atan(lam)
        + 0.5 * math.log1p(lam * lam)
        + two_over_pi * ti2(lam)
    )


def second_moment_upper(lam: float) -> float:
    """Upper bound on E xi^2(lambda |X|).

    min{2 E ln(1 + lambda |X|), pi^2/2} + mu^2(lambda); the min is the
    variance bound, so the variance never exceeds pi^2/2 at any scale.
    """
    lam = _check_lambda(lam, positive=True)
    m = mu(lam)
    return min(2.0 * expected_log1p(lam), _HALF_PI_SQ) + m * m


def second_moment_ratio_bound(lam: float) -> float:
    """Upper bound on E xi^2(lambda |X|) / lambda for 0 < lambda <= 2.

    Piecewise: for lambda <= 1,
        lambda + 4/pi - (4/pi) ln(lambda) + 8/(1+lambda)^2
        + 2 lambda sqrt(2 lambda)/(1+lambda) + lambda^3/4;
    for 1 <= lambda <= 2,
        pi^2/2 + 2 + lambda sqrt(2) + lambda^3/4.
    """
    lam = _check_lambda(lam, positive=True)
    if lam > 2.0:
        raise ValueError(f"second_moment_ratio_bound requires lambda <= 2, got {lam!r}")
    if lam <= 1.0:
        four_over_pi = 4.0 / math.pi
        return (
            lam
            + four_over_pi
            - four_over_pi * math.log(lam)
            + 8.0 / (1.0 + lam) ** 2
            + 2.0 * lam * math.sqrt(2.0 * lam) / (1.0 + lam)
            + lam**3 / 4.0
        )
    return _HALF_PI_SQ + 2.0 + lam * math.sqrt(2.0) + lam**3 / 4.0


def mu_small_envelope(lam: float) -> tuple[float, float]:
    """Two-sided envelope of mu on 0 < lambda <= 1.

    sqrt(2 lambda)/(1+lambda) <= mu(lambda) <=
    sqrt(2 lambda)/(1+lambda) (1 + 2 lambda_0/(1+lambda_0^2)) + lambda^2/2
    with the reference scale lambda_0 fixed at 1 (so the multiplier is 2,
    the loosest admissible choice on this interval).
    """
    lam = _check_lambda(lam, positive=True)
    if lam > 1.0:
        raise ValueError(f"mu_small_envelope requires lambda <= 1, got {lam!r}")
    base = math.sqrt(2.0 * lam) / (1.0 + lam)
    return base, 2.0 * base + 0.5 * lam * lam


@dataclass(frozen=True)
class DeviationPair:
    """Band widths Delta+- = mu((1+eps) lambda) - mu(lambda) and
    mu(lambda) - mu(lambda/(1+eps)); both strictly positive."""

    delta_plus: float
    delta_minus: float
    epsilon: float


def deviations(lam: float, epsilon: float) -> DeviationPair:
    """The deviation pair at scale lambda and accuracy epsilon in (0, 1/4].

    For lambda >= 1/sqrt(1+eps) the sandwich
    eps (1-eps)/4 <= delta_plus < eps holds; for lambda >= sqrt(1+eps)
    the same bracket holds for delta_minus (the delta_plus bound applied
    at base scale lambda/(1+eps)). Below those scales the pair is still
    returned but only positivity is guaranteed.
    """
    lam = _check_lambda(lam, positive=True)
    epsilon = _check_epsilon(epsilon)
    m = mu(lam)
    return DeviationPair(
        delta_plus=mu((1.0 + epsilon) * lam) - m,
        delta_minus=m - mu(lam / (1.0 + epsilon)),
        epsilon=epsilon,
    )


def mu_inverse(m):
    """Inverse of the mean map: the lambda with mu(lambda) = m.

    In closed form: e^m = 1 + lambda + sqrt(2 lambda) is a quadratic in
    sqrt(lambda), so lambda = e^m - sqrt(2 e^m - 1). Takes a float, which
    gives a float, or an array, which gives an array of its shape, element
    by element with the same bits. Within a few ulp of the exact inverse
    wherever that is a normal float. m above mu(float max) ~ 709.78 has no
    finite inverse and raises ValueError. Below mu(5e-324) ~ 3.1e-162 the
    inverse is smaller than the smallest positive float and is returned as
    that float, so only m = 0 gives 0.
    """
    arr = np.asarray(m, dtype=np.float64)
    if not ((arr >= 0.0) & (arr <= _MU_MAX)).all():
        bad = np.isnan(arr) | (arr < 0.0)
        if bad.any():
            raise ValueError(f"mu_inverse requires m >= 0, got {float(arr[bad].flat[0])!r}")
        raise ValueError(
            f"mu_inverse requires m <= mu(float max) = {_MU_MAX!r}, "
            f"got {float(arr[arr > _MU_MAX].flat[0])!r}"
        )
    flat = arr.ravel()
    lam = np.where(flat > 0.0, _TINY, 0.0)
    # Below 300, with E = e^m - 1 and q = E / (1 + sqrt(1 + 2E)), lambda is
    # 2 q^2 without the cancellation of e^m - sqrt(2 e^m - 1) at small m.
    # Above, where 2E would overflow past m ~ 709.1, lambda is
    # t (t - sqrt(2 - 1/t^2)) with t = e^(m/2); 1/t^2 < 1e-130 vanishes
    # beside 2 there.
    low = (flat > _MU_TINY) & (flat < 300.0)
    e = np.expm1(flat[low])
    q = e / (1.0 + np.sqrt(1.0 + 2.0 * e))
    lam[low] = 2.0 * q * q
    high = flat >= 300.0
    t = np.exp(0.5 * flat[high])
    lam[high] = t * (t - _SQRT2)
    lam = lam.reshape(arr.shape)
    return float(lam) if lam.ndim == 0 else lam


# Largest value of mu on finite lambda; mu_inverse has no finite answer above it.
_MU_MAX = mu(sys.float_info.max)
# Smallest positive float and its mu; mu_inverse maps (0, _MU_TINY] to it.
_TINY = 5e-324
_MU_TINY = mu(_TINY)
