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
               bound (requesting one raises RegimeError; the verify module
               measures it empirically). The lower tail is still covered,
               and below the cutoff lambda0 a max-of-iid argument gives a
               two-sided band with slightly widened multipliers.

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
from dataclasses import dataclass

from .moments import mu

__all__ = [
    "V_SQUARED",
    "A_PLUS",
    "A_MINUS",
    "A_SMALL_UPPER_PRINTED",
    "A_SMALL_UPPER_EXACT",
    "RegimeError",
    "InfeasibleParameterError",
    "h_rate",
    "dominating_survival",
    "xi_tail_bound",
    "chernoff_rate_large",
    "chernoff_rate_small",
    "u_star_large",
    "u_star_small_upper",
    "classify_scale",
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
# gives 32e/(3 pi (e-1)^2); the rate uses the printed rounding 3.126 so
# planned dimensions reproduce the published arithmetic digit for digit.
A_SMALL_UPPER_EXACT = 32.0 * math.e / (3.0 * math.pi * (math.e - 1.0) ** 2)
A_SMALL_UPPER_PRINTED = 3.126

# Loosened second-moment ratio pieces on lambda <= 1, minus the
# -(4/pi) ln(lambda) term: lambda -> 1, 8/(1+lambda)^2 -> 8,
# 2 lambda sqrt(2 lambda)/(1+lambda) -> 2 sqrt(2), lambda^3/4 -> 1/4.
_SMALL_BASE_CONST = 1.0 + 4.0 / math.pi + 8.0 + 2.0 * math.sqrt(2.0) + 0.25

# Lower-tail constant branch on 1 <= lambda <= 2.
_BRANCH_B_CONST = V_SQUARED + 4.0 + 2.0 * math.sqrt(2.0)

_SIDES = ("upper", "lower")


class RegimeError(ValueError):
    """A scale/accuracy pair outside the proven range of a bound.

    In particular the upper tail at lambda <= 8 eps^2 has no proven
    Chernoff rate; that regime is handled empirically, never by formula.
    """


class InfeasibleParameterError(ValueError):
    """Planner parameters outside the guarantee's hypotheses."""


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 0.25:
        raise ValueError(f"epsilon must be in (0, 1/4], got {epsilon!r}")
    return epsilon


def _check_side(side: str) -> str:
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    return side


def h_rate(x: float) -> float:
    """H(x) = x ln x + 1 - x, the exponent rate of the max-of-iid bound."""
    x = float(x)
    if x < 0.0 or math.isnan(x):
        raise ValueError(f"h_rate requires x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    return x * math.log(x) + 1.0 - x


def dominating_survival(lam: float, t: float) -> float:
    """Exact P{2 ln(1 + sqrt(lambda |X|)) > t} = (2/pi) arctan(lambda/(e^{t/2}-1)^2).

    The dominating variable majorizes xi(lambda |X|) pointwise, so this is
    an exact intermediate bound sitting between the true xi tail and the
    exponential envelopes of xi_tail_bound; tests pin the chain's order.
    """
    lam = float(lam)
    t = float(t)
    if lam <= 0.0 or math.isnan(lam):
        raise ValueError(f"lambda must be > 0, got {lam!r}")
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
    lam = float(lam)
    t = float(t)
    if lam <= 0.0 or math.isnan(lam):
        raise ValueError(f"lambda must be > 0, got {lam!r}")
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


def chernoff_rate_large(epsilon: float, side: str) -> float:
    """Rate reciprocal for large scales; independent of lambda.

    Valid for lambda > 1/sqrt(1+eps) (upper) or lambda >= sqrt(1+eps)
    (lower): there the deviation width is at least eps(1-eps)/4, giving
    4(V^2+A)/Delta^2 <= 64/(eps^2 (1-eps)^2) (V^2 + A).
    """
    epsilon = _check_epsilon(epsilon)
    _check_side(side)
    a = A_PLUS if side == "upper" else A_MINUS
    return 64.0 / (epsilon**2 * (1.0 - epsilon) ** 2) * (V_SQUARED + a)


def _small_base(lam: float) -> float:
    return _SMALL_BASE_CONST - (4.0 / math.pi) * math.log(lam)


def chernoff_rate_small(epsilon: float, lam: float, side: str) -> float:
    """Rate reciprocal for small scales.

    upper, 8 eps^2 < lambda <= 1:
        (8/eps^2)(3.126 + 1 + 4/pi - (4/pi) ln(lambda) + 8 + 2 sqrt(2) + 1/4)
    lower, 0 < lambda <= 1:
        (4/eps^2)(1 + 4/pi - (4/pi) ln(lambda) + 8 + 2 sqrt(2) + 1/4)
    lower, 1 < lambda <= 2:
        (9/eps^2)(pi^2/2 + 4 + 2 sqrt(2))

    The upper tail at lambda <= 8 eps^2 is an open case: RegimeError.
    """
    epsilon = _check_epsilon(epsilon)
    _check_side(side)
    lam = float(lam)
    if lam <= 0.0 or math.isnan(lam):
        raise ValueError(f"lambda must be > 0, got {lam!r}")
    if side == "upper":
        if lam <= 8.0 * epsilon**2:
            raise RegimeError(
                f"upper tail at lambda={lam!r} <= 8 eps^2 = {8.0 * epsilon**2!r} "
                "has no proven rate; measure it empirically"
            )
        if lam > 1.0:
            raise RegimeError(f"small-scale upper rate requires lambda <= 1, got {lam!r}")
        return 8.0 / epsilon**2 * (A_SMALL_UPPER_PRINTED + _small_base(lam))
    if lam <= 1.0:
        return 4.0 / epsilon**2 * _small_base(lam)
    if lam <= 2.0:
        return 9.0 / epsilon**2 * _BRANCH_B_CONST
    raise RegimeError(f"small-scale lower rate requires lambda <= 2, got {lam!r}")


def u_star_large(epsilon: float, side: str) -> float:
    """Exponent optimizer Delta/(2(V^2+A)) at the large-scale regime edge.

    Uses the in-regime deviation floor Delta = eps(1-eps)/4, the same one
    the printed rate divides by. The MGF splitting needs u < 1/2 on the
    upper side and u < 1 on the lower; both hold with huge margin since
    Delta < eps <= 1/4 while 2(V^2+A) > pi^2.
    """
    epsilon = _check_epsilon(epsilon)
    _check_side(side)
    a = A_PLUS if side == "upper" else A_MINUS
    return epsilon * (1.0 - epsilon) / 4.0 / (2.0 * (V_SQUARED + a))


def u_star_small_upper(epsilon: float, lam: float) -> float:
    """Exponent optimizer eps mu/(2(V^2+A)) of the small-scale upper tail.

    With the per-unit-lambda bound V^2 + A <= lambda (3.126 + ratio terms)
    this is at most eps/sqrt(2 lambda), which is < 1/4 exactly when
    lambda > 8 eps^2; the regime check enforces that.
    """
    epsilon = _check_epsilon(epsilon)
    lam = float(lam)
    if not 8.0 * epsilon**2 < lam <= 1.0:
        raise RegimeError(f"need 8 eps^2 < lambda <= 1, got lambda={lam!r}")
    return epsilon * mu(lam) / (2.0 * lam * (A_SMALL_UPPER_PRINTED + _small_base(lam)))


def classify_scale(lam: float, epsilon: float) -> str:
    """Classify lambda per the two-sided guarantee's case split.

    Returns "large" for lambda >= sqrt(1+eps), "small" for
    8 eps^2 < lambda < sqrt(1+eps), and "really_small" for
    lambda <= 8 eps^2 (boundary included, matching the strict inequality
    in the small-regime hypotheses).
    """
    large_from, small_above = _scale_cutoffs(epsilon)
    lam = float(lam)
    if lam <= 0.0 or math.isnan(lam):
        raise ValueError(f"lambda must be > 0, got {lam!r}")
    if lam >= large_from:
        return "large"
    if lam > small_above:
        return "small"
    return "really_small"


def _scale_cutoffs(epsilon: float) -> tuple[float, float]:
    # (sqrt(1+eps), 8 eps^2): lambda >= the first is large, lambda above
    # the second and below the first is small.
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
    takes over from per-scale Chernoff bounds.
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

    def regime_table(self) -> dict[str, float]:
        """Every candidate rate reciprocal the planner maximized over."""
        table = _static_candidates(self.epsilon)
        table["really-small-lower"] = _really_small_lower_rate(self.epsilon, self.lambda0)
        return table


def _static_candidates(epsilon: float) -> dict[str, float]:
    return {
        "large-upper": chernoff_rate_large(epsilon, "upper"),
        "large-lower": chernoff_rate_large(epsilon, "lower"),
        # sup of the small-scale upper rate over its open regime (8 eps^2, 1]
        "small-upper": 8.0 / epsilon**2 * (A_SMALL_UPPER_PRINTED + _small_base(8.0 * epsilon**2)),
        "small-lower": 9.0 / epsilon**2 * _BRANCH_B_CONST,
    }


def _really_small_lower_rate(epsilon: float, lambda0: float) -> float:
    return 4.0 / epsilon**2 * (_SMALL_BASE_CONST - (4.0 / math.pi) * math.log(lambda0))


def _plan(epsilon: float, delta: float) -> ChernoffPlan:
    log_two_over_delta = math.log(2.0 / delta)
    # N^c = 1/delta throughout; the cutoff lambda0 = eps^2 pi delta/(8 k e)
    # enters the really-small lower branch through -ln(lambda0).
    ln_lambda0_minus_ln_k = (
        2.0 * math.log(epsilon) + math.log(math.pi) - math.log(8.0) - 1.0 + math.log(delta)
    )

    static = _static_candidates(epsilon)
    static_max = max(static.values())

    k = max(1, math.ceil(log_two_over_delta * static_max))
    rate_a = 0.0
    for _ in range(32):
        ln_lambda0 = ln_lambda0_minus_ln_k - math.log(k)
        rate_a = 4.0 / epsilon**2 * (_SMALL_BASE_CONST - (4.0 / math.pi) * ln_lambda0)
        k_next = max(1, math.ceil(log_two_over_delta * max(static_max, rate_a)))
        if k_next == k:
            break
        k = k_next
    else:
        raise ArithmeticError("target-dimension fixed point did not converge")

    candidates = dict(static)
    candidates["really-small-lower"] = rate_a
    binding = max(candidates, key=candidates.get)
    return ChernoffPlan(
        epsilon=epsilon,
        delta_fail=delta,
        k=k,
        rate_reciprocal_upper=max(static["large-upper"], static["small-upper"]),
        rate_reciprocal_lower=max(static["large-lower"], static["small-lower"], rate_a),
        u_star_upper=u_star_large(epsilon, "upper"),
        u_star_lower=u_star_large(epsilon, "lower"),
        binding_regime=binding,
        lambda0=math.exp(ln_lambda0_minus_ln_k - math.log(k)),
    )


def plan_dimension(epsilon: float, n_points: int, c: float) -> ChernoffPlan:
    """Sketch dimension guaranteeing all pairwise distances within 1 +- eps.

    With k the returned dimension, every one of the N(N-1)/2 pair distances
    above 8 eps^2 is preserved within a factor 1 +- eps simultaneously with
    probability at least 1 - N^{-(c-2)}; pairs below the cutoff lambda0 get
    the slightly wider corollary_band. The per-pair budget is
    delta = N^{-c}; feasibility requires c >= 3 and N^{-c} <= eps <= 1/4.
    """
    if not isinstance(n_points, int) or n_points < 2:
        raise InfeasibleParameterError(f"n_points must be an integer >= 2, got {n_points!r}")
    c = float(c)
    if math.isnan(c) or c < 3.0:
        raise InfeasibleParameterError(f"c must be >= 3, got {c!r}")
    epsilon = float(epsilon)
    delta = math.exp(-c * math.log(n_points))
    if delta == 0.0:
        raise InfeasibleParameterError(f"N^(-c) underflows for N={n_points!r}, c={c!r}")
    if math.isnan(epsilon) or not delta <= epsilon <= 0.25:
        raise InfeasibleParameterError(
            f"epsilon must satisfy N^(-c) = {delta!r} <= epsilon <= 1/4, got {epsilon!r}"
        )
    return _plan(epsilon, delta)


def plan_dimension_for_delta(epsilon: float, delta: float) -> ChernoffPlan:
    """Plan against an explicit per-pair failure budget delta.

    Same machinery as plan_dimension with N^{-c} replaced by delta; used
    for single-pair experiments where the union bound over N points is not
    wanted. Requires delta <= epsilon <= 1/4.
    """
    epsilon = float(epsilon)
    delta = float(delta)
    if math.isnan(delta) or not 0.0 < delta < 1.0:
        raise InfeasibleParameterError(f"delta must be in (0, 1), got {delta!r}")
    if math.isnan(epsilon) or not delta <= epsilon <= 0.25:
        raise InfeasibleParameterError(
            f"epsilon must satisfy delta <= epsilon <= 1/4, got {epsilon!r}"
        )
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
    alpha: float
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
        got = h_rate(self.alpha) * self.k * self.p_t
        if got < need * (1.0 - 1e-12):
            raise ValueError(f"exceedance exponent {got!r} below ln(1/delta) = {need!r}")

    @property
    def exceedance_bound(self) -> float:
        """Certified bound on P{max exceeds the threshold}: delta e^{-delta/e}."""
        return math.exp(-h_rate(self.alpha) * self.k * self.p_t)


def max_abs_plan(k: int, epsilon: float, n_points: int, c: float) -> MaxBoundPlan:
    """Plan the max-of-iid threshold at budget delta = N^{-c}.

    Takes C_k = e/delta and alpha = C_k, puts the threshold at the
    1/(k C_k) survival quantile of |X| (so t = 1/tan(pi/(2 k C_k)),
    at most 2ke/(pi delta)), and records the really-small cutoff
    lambda0 = eps^2 pi delta/(8 k e) together with c0 = eps^2/4.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    epsilon = _check_epsilon(epsilon)
    if not isinstance(n_points, int) or n_points < 2:
        raise ValueError(f"n_points must be an integer >= 2, got {n_points!r}")
    c = float(c)
    if math.isnan(c) or c <= 0.0:
        raise ValueError(f"c must be > 0, got {c!r}")
    delta = math.exp(-c * math.log(n_points))
    if delta == 0.0:
        raise ValueError(f"N^(-c) underflows for N={n_points!r}, c={c!r}")
    c_k = math.e / delta
    if math.isinf(k * c_k):
        # the threshold's survival quantile 1/(k C_k) would be 0
        raise ValueError(f"k e N^c overflows for k={k!r}, N={n_points!r}, c={c!r}")
    p_t = 1.0 / (k * c_k)
    return MaxBoundPlan(
        k=k,
        delta=delta,
        C_k=c_k,
        alpha=c_k,
        p_t=p_t,
        threshold_t=1.0 / math.tan(math.pi / 2.0 * p_t),
        lambda0=epsilon**2 * math.pi * delta / (8.0 * k * math.e),
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
    lambda0 = float(lambda0)
    if lambda0 <= 0.0 or math.isnan(lambda0):
        raise ValueError(f"lambda0 must be > 0, got {lambda0!r}")
    if not 0.0 < lam <= lambda0:
        raise ValueError(f"corollary band needs 0 < lambda <= lambda0={lambda0!r}, got {lam!r}")
    four_eps_sq = 4.0 * epsilon**2
    return (1.0 - epsilon) * (1.0 - four_eps_sq), (1.0 + epsilon) * (1.0 + four_eps_sq)
