"""Tail bounds and target-dimension planning for the sketch metric.

Three ranges of the original distance lambda get different Chernoff
machinery:

  large        lambda >= sqrt(1+eps): two-sided bounds with
               lambda-independent rate 64/(eps^2 (1-eps)^2) (V^2 + A),
               V^2 = pi^2/2, A the MGF remainder of each tail.
  small        8 eps^2 < lambda <= sqrt(1+eps): rates with a -ln(lambda)
               term from the second-moment ratio bound; the lower tail
               additionally has a constant-rate branch on [1, 2].
  really_small lambda <= 8 eps^2: the upper tail has no proven Chernoff
               bound (the verify module measures it empirically). The
               lower tail is still covered, and below the cutoff lambda0 a
               max-of-iid argument gives a two-sided band with slightly
               widened multipliers.

The planner takes the worst (largest) rate reciprocal over every regime a
distance could fall in and multiplies by ln(2/delta). The really-small
lower branch is evaluated at the cutoff lambda0, which itself depends on
the planned k, so the planner runs a short fixed-point iteration; k enters
only through ln(1/lambda0), so it converges in a handful of rounds.

All rates are stated as reciprocals: k >= ln(2/delta) * rate_reciprocal
gives per-pair failure probability at most delta.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .cauchy import _check_count
from .moments import _check_epsilon, _check_lambda, mu

__all__ = [
    "V_SQUARED",
    "A_PLUS",
    "A_MINUS",
    "A_SMALL_UPPER_PRINTED",
    "InfeasibleParameterError",
    "h_rate",
    "dominating_survival",
    "xi_tail_bound",
    "chernoff_rate_large",
    "u_star_large",
    "u_star_small_upper",
    "ChernoffPlan",
    "plan_dimension",
    "plan_dimension_for_delta",
    "MaxBoundPlan",
    "max_abs_plan",
    "corollary_band",
]

# Variance bound of xi(lambda |X|), uniform in lambda.
V_SQUARED = math.pi * math.pi / 2.0

# MGF remainder constants of the large-scale tails.
A_PLUS = 64.0 * math.pi / (math.e * (math.pi**2 - 0.5))
A_MINUS = 8.0 * math.sqrt(2.0) * math.pi / (math.e * (math.pi**2 - 0.25))

# Small-scale upper tail MGF remainder, per unit lambda: the derivation
# gives 32e/(3 pi (e-1)^2) = 3.12596...; the rate uses the printed rounding
# up 3.126 so planned dimensions reproduce the published arithmetic digit
# for digit.
A_SMALL_UPPER_PRINTED = 3.126

# Loosened second-moment ratio pieces on lambda <= 1, minus the
# -(4/pi) ln(lambda) term: lambda -> 1, 8/(1+lambda)^2 -> 8,
# 2 lambda sqrt(2 lambda)/(1+lambda) -> 2 sqrt(2), lambda^3/4 -> 1/4.
_SMALL_BASE_CONST = 1.0 + 4.0 / math.pi + 8.0 + 2.0 * math.sqrt(2.0) + 0.25

# Lower-tail constant branch on 1 <= lambda <= 2.
_BRANCH_B_CONST = V_SQUARED + 4.0 + 2.0 * math.sqrt(2.0)

# Per-pair budgets delta at or below this make 2/delta, and so the planned
# k, overflow.
_MIN_DELTA = 2.0 / sys.float_info.max


class InfeasibleParameterError(ValueError):
    """Planner parameters outside the guarantee's hypotheses."""


def h_rate(x: float) -> float:
    """H(x) = x ln x + 1 - x, the exponent rate of the max-of-iid bound."""
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"h_rate requires finite x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    return x * math.log(x) + 1.0 - x


def dominating_survival(lam: float, t: float) -> float:
    """Exact P{2 ln(1 + sqrt(lambda |X|)) > t} = (2/pi) arctan(lambda/(e^{t/2}-1)^2).

    The dominating variable majorizes xi(lambda |X|) pointwise, so this is
    an exact intermediate bound sitting between the true xi tail and the
    exponential envelopes of xi_tail_bound; tests pin the chain's order.
    """
    lam = _check_lambda(lam, positive=True)
    t = float(t)
    if t <= 0.0:
        return 1.0
    return (2.0 / math.pi) * math.atan(lam / math.expm1(t / 2.0) ** 2)


def xi_tail_bound(lam: float, t: float) -> float:
    """Exponential upper bound on P{xi(lambda |X|) > t}, clamped to <= 1.

    Two envelopes, each valid past its own threshold:
      (2/pi) lambda/(1-1/e)^2 e^{-t}   for t >= 2,
      (2/pi)(1 + sqrt(lambda)) e^{-t/2} for t >= 2 ln(1 + sqrt(lambda)).
    Returns the smaller of the applicable ones; raises if t is below both
    thresholds.
    """
    lam = _check_lambda(lam, positive=True)
    t = float(t)
    two_over_pi = 2.0 / math.pi
    candidates = []
    if t >= 2.0:
        c1 = two_over_pi * lam / (1.0 - 1.0 / math.e) ** 2
        candidates.append(c1 * math.exp(-t))
    if t >= 2.0 * math.log1p(math.sqrt(lam)):
        c2 = two_over_pi * (1.0 + math.sqrt(lam))
        candidates.append(c2 * math.exp(-t / 2.0))
    if not candidates:
        raise ValueError(
            f"t={t!r} below both validity thresholds at lambda={lam!r} "
            f"(need t >= 2 or t >= {2.0 * math.log1p(math.sqrt(lam)):.6g})"
        )
    return min(1.0, min(candidates))


def chernoff_rate_large(epsilon: float) -> tuple[float, float]:
    """(upper, lower) rate reciprocals for large scales; independent of lambda.

    Valid for lambda > 1/sqrt(1+eps) (upper) or lambda >= sqrt(1+eps)
    (lower): there the deviation width is at least eps(1-eps)/4, giving
    4(V^2+A)/Delta^2 <= 64/(eps^2 (1-eps)^2) (V^2 + A), with A = A_PLUS
    on the upper tail and A_MINUS on the lower.
    """
    epsilon = _check_epsilon(epsilon)
    scale = 64.0 / (epsilon**2 * (1.0 - epsilon) ** 2)
    return scale * (V_SQUARED + A_PLUS), scale * (V_SQUARED + A_MINUS)


# Small-scale rate reciprocals, as functions of (eps, ln lambda):
#   upper, 8 eps^2 < lambda <= 1:  (8/eps^2)(3.126 + base)
#   lower, 0 < lambda <= 1:        (4/eps^2) base
#   lower, 1 < lambda <= 2:        (9/eps^2)(pi^2/2 + 4 + 2 sqrt(2))
# with base = 1 + 4/pi - (4/pi) ln(lambda) + 8 + 2 sqrt(2) + 1/4. The upper
# tail at lambda <= 8 eps^2 has no proven rate.
def _small_base(ln_lam: float) -> float:
    return _SMALL_BASE_CONST - (4.0 / math.pi) * ln_lam


def _small_upper_rate(epsilon: float, ln_lam: float) -> float:
    return 8.0 / epsilon**2 * (A_SMALL_UPPER_PRINTED + _small_base(ln_lam))


def _small_lower_rate(epsilon: float, ln_lam: float) -> float:
    return 4.0 / epsilon**2 * _small_base(ln_lam)


def _branch_b_rate(epsilon: float) -> float:
    return 9.0 / epsilon**2 * _BRANCH_B_CONST


def u_star_large(epsilon: float) -> tuple[float, float]:
    """(upper, lower) exponent optimizers Delta/(2(V^2+A)) at the
    large-scale regime edge.

    Uses the in-regime deviation floor Delta = eps(1-eps)/4, the same one
    the printed rate divides by. The MGF splitting needs u < 1/2 on the
    upper side and u < 1 on the lower; both hold with huge margin since
    Delta < eps <= 1/4 while 2(V^2+A) > pi^2.
    """
    epsilon = _check_epsilon(epsilon)
    floor = epsilon * (1.0 - epsilon) / 4.0
    return floor / (2.0 * (V_SQUARED + A_PLUS)), floor / (2.0 * (V_SQUARED + A_MINUS))


def u_star_small_upper(epsilon: float, lam: float) -> float:
    """Exponent optimizer eps mu/(2(V^2+A)) of the small-scale upper tail.

    With the per-unit-lambda bound V^2 + A <= lambda (3.126 + ratio terms)
    this is at most eps/sqrt(2 lambda), which is < 1/4 exactly when
    lambda > 8 eps^2; the regime check enforces that.
    """
    epsilon = _check_epsilon(epsilon)
    lam = float(lam)
    if not 8.0 * epsilon**2 < lam <= 1.0:
        raise ValueError(f"need 8 eps^2 < lambda <= 1, got lambda={lam!r}")
    return epsilon * mu(lam) / (2.0 * lam * (A_SMALL_UPPER_PRINTED + _small_base(math.log(lam))))


def _scale_cutoffs(epsilon: float) -> tuple[float, float]:
    # (sqrt(1+eps), 8 eps^2), the two-sided guarantee's case split:
    # lambda >= the first is large, lambda above the second and below the
    # first is small, and lambda at or below the second (matching the
    # strict inequality of the small-regime hypotheses) is really small.
    epsilon = _check_epsilon(epsilon)
    return math.sqrt(1.0 + epsilon), 8.0 * epsilon**2


@dataclass(frozen=True)
class ChernoffPlan:
    """Planned sketch dimension with the rate bookkeeping behind it.

    rate_reciprocal_upper/lower are the worst 4(V^2+A)/Delta^2 (or the
    small-scale analogue) over every scale the corresponding tail must
    cover; u_star_upper/lower are the large-scale exponent optimizers,
    whose caps (< 1/2 and < 1) the MGF splitting relies on. binding_regime
    names the candidate that attained the overall max. lambda0 is the
    really-small cutoff at the planned k: below it the max-of-iid band
    takes over from per-scale Chernoff bounds. regimes holds every
    candidate rate reciprocal the planner maximized over, by regime name.
    """

    epsilon: float
    delta_fail: float
    k: int
    rate_reciprocal_upper: float
    rate_reciprocal_lower: float
    u_star_upper: float
    u_star_lower: float
    binding_regime: str
    lambda0: float
    regimes: dict[str, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.delta_fail < 1.0:
            raise ValueError(f"delta_fail must be in (0, 1), got {self.delta_fail!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k!r}")
        if not 0.0 < self.u_star_upper < 0.5:
            raise ValueError(f"u_star_upper must be in (0, 1/2), got {self.u_star_upper!r}")
        if not 0.0 < self.u_star_lower < 1.0:
            raise ValueError(f"u_star_lower must be in (0, 1), got {self.u_star_lower!r}")
        need = math.log(2.0 / self.delta_fail) * max(
            self.rate_reciprocal_upper, self.rate_reciprocal_lower
        )
        if self.k < need * (1.0 - 1e-12):
            raise ValueError(f"k={self.k!r} below the planned requirement {need!r}")


def _ln_lambda0(epsilon: float, delta: float, k: int) -> float:
    # ln of the really-small cutoff lambda0 = eps^2 pi delta/(8 k e), summed
    # in log space; both plans take lambda0 as its exp.
    return (
        2.0 * math.log(epsilon) + math.log(math.pi) - math.log(8.0) - 1.0 + math.log(delta)
        - math.log(k)
    )


def _plan(epsilon: float, delta: float) -> ChernoffPlan:
    try:
        epsilon = _check_epsilon(epsilon)
    except ValueError as exc:
        raise InfeasibleParameterError(str(exc)) from None
    if epsilon < delta:
        raise InfeasibleParameterError(f"epsilon must be >= delta = {delta!r}, got {epsilon!r}")
    log_two_over_delta = math.log(2.0 / delta)
    large_upper, large_lower = chernoff_rate_large(epsilon)
    regimes = {
        "large-upper": large_upper,
        "large-lower": large_lower,
        # sup of the small-scale upper rate over its open regime (8 eps^2, 1]
        "small-upper": _small_upper_rate(epsilon, math.log(8.0 * epsilon**2)),
        "small-lower": _branch_b_rate(epsilon),
    }
    static_max = max(regimes.values())

    # lambda0 depends on k, and enters the really-small lower branch
    # through -ln(lambda0): iterate to the fixed point.
    k = max(1, math.ceil(log_two_over_delta * static_max))
    rate_a = 0.0
    for _ in range(32):
        rate_a = _small_lower_rate(epsilon, _ln_lambda0(epsilon, delta, k))
        k_next = max(1, math.ceil(log_two_over_delta * max(static_max, rate_a)))
        if k_next == k:
            break
        k = k_next
    else:
        raise ArithmeticError("target-dimension fixed point did not converge")

    regimes["really-small-lower"] = rate_a
    u_star_upper, u_star_lower = u_star_large(epsilon)
    return ChernoffPlan(
        epsilon=epsilon,
        delta_fail=delta,
        k=k,
        rate_reciprocal_upper=max(regimes["large-upper"], regimes["small-upper"]),
        rate_reciprocal_lower=max(regimes["large-lower"], regimes["small-lower"], rate_a),
        u_star_upper=u_star_upper,
        u_star_lower=u_star_lower,
        binding_regime=max(regimes, key=regimes.get),
        lambda0=math.exp(_ln_lambda0(epsilon, delta, k)),
        regimes=regimes,
    )


def _budget(n_points: int, c: float) -> float:
    # The per-pair budget delta = N^{-c} of an N-point plan, after an
    # InfeasibleParameterError unless N >= 2 is an integer (not a bool),
    # c >= 3 is a real number, not a bool (so the union over N^2 pairs
    # still vanishes) and delta > 2/float max (so ln(2/delta) is finite).
    try:
        n_points = _check_count("n_points", n_points, 2)
    except ValueError as exc:
        raise InfeasibleParameterError(str(exc)) from None
    if isinstance(c, bool) or not isinstance(c, numbers.Real) or not c >= 3.0:
        raise InfeasibleParameterError(f"c must be a number >= 3, got {c!r}")
    delta = math.exp(-float(c) * math.log(n_points))
    if delta <= _MIN_DELTA:
        raise InfeasibleParameterError(
            f"N^(-c) underflows for N={n_points!r}, c={c!r}: delta must be > 2/float max"
        )
    return delta


def plan_dimension(epsilon: float, n_points: int, c: float) -> ChernoffPlan:
    """Sketch dimension guaranteeing all pairwise distances within 1 +- eps.

    With k the returned dimension, every one of the N(N-1)/2 pair distances
    above 8 eps^2 is preserved within a factor 1 +- eps simultaneously with
    probability at least 1 - N^{-(c-2)}; pairs below the cutoff lambda0 get
    the slightly wider corollary_band. The per-pair budget is
    delta = N^{-c}; feasibility requires c >= 3 and N^{-c} <= eps <= 1/4.
    """
    return _plan(epsilon, _budget(n_points, c))


def plan_dimension_for_delta(epsilon: float, delta: float) -> ChernoffPlan:
    """Plan against an explicit per-pair failure budget delta.

    Same machinery as plan_dimension with N^{-c} replaced by delta; used
    for single-pair experiments where the union bound over N points is not
    wanted. Requires 2/float max < delta <= epsilon <= 1/4.
    """
    delta = float(delta)
    if not _MIN_DELTA < delta < 1.0:
        raise InfeasibleParameterError(f"delta must be in (2/float max, 1), got {delta!r}")
    return _plan(epsilon, delta)


@dataclass(frozen=True)
class MaxBoundPlan:
    """Threshold plan for max_i |X_i| over the k draws of one projection row.

    threshold_t is stated per unit scale: at distance lambda the claim is
    P{lambda max_i |X_i| > lambda threshold_t} <= delta e^{-delta/e} < delta.
    Under that event, scales lambda <= lambda0 keep every summand argument
    at most c0 = eps^2/4 < 1/6, where the square-root envelope of xi is
    tight enough for the corollary band.
    """

    k: int
    delta: float
    C_k: float
    p_t: float
    threshold_t: float
    lambda0: float
    c0: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta!r}")
        if self.c0 > 1.0 / 6.0:
            raise ValueError(f"c0 must be <= 1/6, got {self.c0!r}")
        need = math.log(1.0 / self.delta)
        got = h_rate(self.C_k) * self.k * self.p_t
        if got < need * (1.0 - 1e-12):
            raise ValueError(f"exceedance exponent {got!r} below ln(1/delta) = {need!r}")

    @property
    def exceedance_bound(self) -> float:
        """Certified bound on P{max exceeds the threshold}: delta e^{-delta/e}."""
        return math.exp(-h_rate(self.C_k) * self.k * self.p_t)


def _max_threshold(k: int, delta: float) -> tuple[float, float]:
    # (p_t, t) with C_k = e/delta: the survival quantile p_t = 1/(k C_k)
    # of |X| and its threshold t = 1/tan(pi p_t/2), at unit scale.
    p_t = 1.0 / (k * (math.e / delta))
    return p_t, 1.0 / math.tan(math.pi / 2.0 * p_t)


def max_abs_plan(k: int, epsilon: float, n_points: int, c: float) -> MaxBoundPlan:
    """Plan the max-of-iid threshold at budget delta = N^{-c}.

    Takes C_k = e/delta, which is also the alpha of the exceedance rate
    H(alpha), puts the threshold at the 1/(k C_k) survival quantile of
    |X| (so t = 1/tan(pi/(2 k C_k)), at most 2ke/(pi delta)), and records
    the really-small cutoff lambda0 = eps^2 pi delta/(8 k e) together
    with c0 = eps^2/4.

    This is the gate every sketch passes: plan, sketch and estimate all
    refuse the (k, epsilon, N, c) it raises ValueError on.
    """
    k = _check_count("k", k, 1)
    if k > sys.float_info.max:
        raise ValueError(f"k must fit a float, got a {k.bit_length()}-bit integer")
    epsilon = _check_epsilon(epsilon)
    delta = _budget(n_points, c)
    c_k = math.e / delta
    if math.isinf(k * c_k):
        # the threshold's survival quantile 1/(k C_k) would be 0
        raise ValueError(f"k e N^c overflows for k={k!r}, N={n_points!r}, c={c!r}")
    p_t, threshold_t = _max_threshold(k, delta)
    return MaxBoundPlan(
        k=k,
        delta=delta,
        C_k=c_k,
        p_t=p_t,
        threshold_t=threshold_t,
        lambda0=math.exp(_ln_lambda0(epsilon, delta, k)),
        c0=epsilon**2 / 4.0,
    )


def corollary_band(lam: float, epsilon: float, lambda0: float) -> tuple[float, float]:
    """Multiplicative band on mu(lambda) in the really-small regime.

    For lambda <= lambda0, conditional on the max-of-iid event of the
    owning MaxBoundPlan, the sketch mean lies in
    [(1-eps)(1-4 eps^2), (1+eps)(1+4 eps^2)] * mu(lambda), all such scales
    simultaneously. lambda0 must come from the plan; passing a larger
    lambda is a domain error.
    """
    epsilon = _check_epsilon(epsilon)
    lam = float(lam)
    lambda0 = _check_lambda(lambda0, positive=True)
    if not 0.0 < lam <= lambda0:
        raise ValueError(f"corollary band needs 0 < lambda <= lambda0={lambda0!r}, got {lam!r}")
    four_eps_sq = 4.0 * epsilon**2
    return (1.0 - epsilon) * (1.0 - four_eps_sq), (1.0 + epsilon) * (1.0 + four_eps_sq)
