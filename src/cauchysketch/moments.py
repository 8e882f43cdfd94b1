"""Moments of xi(lambda |X|) for X standard Cauchy: the exact mean map mu,
the auxiliary mean E ln(1 + lambda |X|), second-moment and variance upper
bounds, small-scale envelopes, and the deviation widths the Chernoff
planner divides by.

The mean map

    mu(lambda) = atanh(sqrt(2 lambda)/(1 + lambda)) + ln(1 + lambda^2)/2

is strictly increasing with mu(0) = 0, so it doubles as the calibration
curve of the sketch: invert it at an observed rho to estimate the original
l1 distance. The atanh argument peaks at 1/sqrt(2) (at lambda = 1), so the
formula is total.

Every closed form here is checked against an independent quadrature oracle
in the verification suites; nothing in this module integrates anything.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .specfun import atanh_eval, ti2

__all__ = [
    "DeviationPair",
    "mu",
    "mu_derivative",
    "mu_inverse",
    "mu_small_envelope",
    "deviations",
    "expected_log1p",
    "second_moment_upper",
    "second_moment_ratio_bound",
]

_HALF_PI_SQ = math.pi * math.pi / 2.0
_SQRT2 = math.sqrt(2.0)

# lambda^2 overflows above ~1.3e154; mu and mu_derivative switch to forms
# without lambda^2 above this scale and keep their bits below it.
_LARGE_LAMBDA = 1e150


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
    """Mean map mu(lambda) = E xi(lambda |X|), in closed form.

    A float gives a float, an array an array of its shape. Finite for
    every finite lambda: above _LARGE_LAMBDA, where lambda^2 would
    overflow, ln(1 + lambda^2)/2 is taken as ln(lambda) + ln(1 + lambda^-2)/2
    and sqrt(2 lambda) as sqrt(2) sqrt(lambda).
    """

    def below(lam):
        return atanh_eval(np.sqrt(2.0 * lam) / (1.0 + lam)) + 0.5 * np.log1p(lam * lam)

    def above(lam):
        return atanh_eval(_SQRT2 * np.sqrt(lam) / (1.0 + lam)) + (
            np.log(lam) + 0.5 * np.log1p((1.0 / lam) ** 2)
        )

    return _by_scale(_check_lambda(lam), below, above)


def mu_derivative(lam):
    """d mu / d lambda; strictly positive on lambda > 0.

    Differentiating the closed form collapses to
    ((1 - lambda)/sqrt(2 lambda) + lambda) / (1 + lambda^2); above
    _LARGE_LAMBDA numerator and denominator are divided by lambda first.
    A float gives a float, an array an array of its shape.
    """

    def below(lam):
        return ((1.0 - lam) / np.sqrt(2.0 * lam) + lam) / (1.0 + lam * lam)

    def above(lam):
        numerator = (1.0 - lam) / (_SQRT2 * np.sqrt(lam)) + lam
        return (numerator / lam) / (lam + 1.0 / lam)

    return _by_scale(_check_lambda(lam, positive=True), below, above)


def _by_scale(lam, below, above):
    # below(lam) where lam <= _LARGE_LAMBDA, above(lam) elsewhere; neither
    # sees the other's elements, so lambda^2 never overflows. A float
    # gives a float.
    large = lam > _LARGE_LAMBDA
    if not np.any(large):
        out = below(lam)
    elif np.all(large):
        out = above(lam)
    else:
        out = np.empty_like(lam)
        out[~large] = below(lam[~large])
        out[large] = above(lam[large])
    return float(out) if np.ndim(out) == 0 else out


def expected_log1p(lam: float) -> float:
    """E ln(1 + lambda |X|) in closed form.

    -(2/pi) ln(lambda) arctan(lambda) + ln(1 + lambda^2)/2 + (2/pi) Ti_2(lambda),
    extended by continuity to 0 at lambda = 0 (the ln(lambda) arctan(lambda)
    product has a removable singularity there). Nonnegative for all lambda.
    """
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

    Takes a float, which gives a float, or an array, which gives an array
    of its shape; each element is solved on its own, so the array and the
    scalar call agree element by element. Bracketed bisection seeded by
    the small-scale inverse (lambda ~ m^2/2) and the large-scale asymptote
    (ln(1 + lambda^2)/2 ~ m), refined by Newton steps that fall back to
    bisection whenever they leave the bracket. Round-trips mu to better
    than 1e-10 relative up to lambda ~ 1e6 and 1e-9 up to the largest
    float; m above mu(float max) ~ 709.78 has no finite inverse and
    raises ValueError. Below mu(5e-324) ~ 3.1e-162 the inverse is smaller
    than the smallest positive float and is returned as that float, so
    only m = 0 gives 0. A float runs through the same array code, at about
    0.1-0.2 ms a call; to invert many m, pass them as one array.
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
    solve = flat > _MU_TINY
    lam = np.where(flat > 0.0, _TINY, 0.0)
    if solve.any():
        lam[solve] = _solve_mu(flat[solve])
    lam = lam.reshape(arr.shape)
    return float(lam) if lam.ndim == 0 else lam


@np.errstate(over="ignore")
def _solve_mu(m: np.ndarray) -> np.ndarray:
    # mu(lambda) = m for a 1-d array of m in (mu(5e-324), mu(float max)].
    # Seeds: mu ~ sqrt(2 lambda) for small lambda, ~ ln(lambda) for large.
    # expm1(2m) overflows past m ~ 354.9; there e^(m+1) (or the largest
    # float) brackets instead, since mu(lambda) > ln(lambda). Overflow in
    # a branch np.where discards, or in a rejected Newton step, is silenced.
    lo = 0.25 * m * m
    hi = np.where(
        m < 350.0,
        np.maximum(2.0 * m * m, np.sqrt(np.expm1(2.0 * m)) + 1.0),
        np.where(m < 708.0, np.exp(m + 1.0), sys.float_info.max),
    )
    # One mu evaluation checks both seeds; they bracket unless rounding
    # says otherwise, and then the loops widen them.
    both = mu(np.concatenate((lo, hi)))
    over, under = both[: m.size] > m, both[m.size :] < m
    for _ in range(_MAX_ITER):
        if not over.any():
            break
        lo[over] *= 0.25
        over = mu(lo) > m
    for _ in range(_MAX_ITER):
        if not under.any():
            break
        hi[under] *= 4.0
        under = mu(hi) < m
    unbracketed = over | under
    if unbracketed.any():
        raise ArithmeticError(f"mu_inverse failed to bracket m={float(m[unbracketed][0])!r}")

    # Newton from lambda far below the root gains only about
    # ln(1 + m - ln(lambda)) a step on the logarithm-like mu: 70 steps
    # from 0.5 m^2 at m = 320. From m = 2 on, start at hi/e instead,
    # which the seeds put at e^(m-1) or e^m, next to the root.
    lam = np.where(m >= 2.0, np.maximum(lo, hi / math.e), np.minimum(np.maximum(0.5 * m * m, lo), hi))

    tol = _RTOL * m
    out = np.empty_like(m)
    todo = np.arange(m.size)
    # A Newton step that leaves lambda where it is means no float is
    # closer; only subnormal lambda, where _RTOL is out of reach, gets there
    # before the _RTOL test passes.
    settled = np.zeros(m.shape, dtype=bool)
    for _ in range(_MAX_ITER):
        f = mu(lam) - m
        done = settled | (np.abs(f) <= tol)
        if done.any():
            if done.all():
                out[todo] = lam
                return out
            out[todo[done]] = lam[done]
            left = ~done
            todo, m, tol, lam, lo, hi, f = (
                x[left] for x in (todo, m, tol, lam, lo, hi, f)
            )
        over = f > 0.0
        hi = np.where(over, lam, hi)
        lo = np.where(over, lo, lam)
        # Newton, safeguarded: reject steps outside the current bracket
        # (an overflowing step is one of them).
        step = lam - f / mu_derivative(lam)
        settled = step == lam
        lam = np.where(settled | ((lo < step) & (step < hi)), step, lo + 0.5 * (hi - lo))
    out[todo] = lam
    return out


# mu_inverse stops at |mu(lambda) - m| <= _RTOL m, or after _MAX_ITER steps.
_RTOL = 1e-12
_MAX_ITER = 200
# Largest value of mu on finite lambda; mu_inverse has no finite answer above it.
_MU_MAX = mu(sys.float_info.max)
# Smallest positive float and its mu; mu_inverse maps (0, _MU_TINY] to it.
_TINY = 5e-324
_MU_TINY = mu(_TINY)
