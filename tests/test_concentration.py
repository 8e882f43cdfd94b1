"""Tail bounds, Chernoff rate bookkeeping, the dimension planner, and the
max-of-iid threshold plan."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchysketch.concentration import (
    A_MINUS,
    A_PLUS,
    A_SMALL_UPPER_PRINTED,
    InfeasibleParameterError,
    V_SQUARED,
    _branch_b_rate,
    _ln_lambda0,
    _small_base,
    _small_lower_rate,
    _small_upper_rate,
    _u_star_small_upper,
    chernoff_rate_large,
    corollary_band,
    dominating_survival,
    h_rate,
    max_abs_plan,
    plan_dimension,
    plan_dimension_for_delta,
    u_star_large,
    xi_tail_bound,
    _scale_cutoffs,
)
from cauchysketch.moments import mu, second_moment_ratio_bound
from cauchysketch.sketch import regime_tag

# Frozen reference values, mpmath at 50 decimal digits.
A_PLUS_REF = 7.8943087904564313  # 64 pi / (e (pi^2 - 1/2))
A_MINUS_REF = 1.3592619607473630  # 8 sqrt(2) pi / (e (pi^2 - 1/4))
A_SMALL_EXACT_REF = 3.1259680745035077  # 32 e / (3 pi (e-1)^2)
RATE_UPPER_QUARTER = 23354.683830729133
RATE_LOWER_QUARTER = 11457.994135400979
TAIL_BOUND_1_2 = 0.21562113531902250  # (2/pi) e^-2 / (1 - 1/e)^2
DOM_SURV_1_2 = 0.20790089415996628  # (2/pi) arctan(1/(e-1)^2)

epsilons = st.floats(1e-6, 0.25)


class TestScaffolding:
    """The scalar inequalities the exponent bounds lean on."""

    @given(st.floats(-50.0, 1.0))
    def test_exp_quadratic_majorant(self, t):
        assert math.exp(t) <= 1.0 + t + t * t + 1e-12

    @given(st.floats(0.0, 100.0))
    def test_log1p_quadratic_minorant(self, t):
        assert math.log1p(t) >= t * (1.0 - t / 2.0) - 1e-12

    @given(epsilons)
    def test_sqrt_one_plus_eps_bracket(self, eps):
        root = math.sqrt(1.0 + eps)
        assert 1.0 + eps / 2.0 * (1.0 - eps / 4.0) <= root <= 1.0 + eps / 2.0

    @given(st.floats(1e-9, 1e9))
    def test_arctan_squared_bounds(self, nu):
        value = math.atan(math.sqrt(nu)) ** 2
        assert value <= min(math.log1p(nu), math.pi**2 / 4.0) + 1e-12

    @given(st.floats(1e-9, 1.0 - 1e-9))
    def test_atanh_rational_majorant(self, u):
        assert math.atanh(u) <= u / (1.0 - u * u) + 1e-15


class TestHRate:
    def test_anchor_values(self):
        assert h_rate(0.0) == 1.0
        assert h_rate(1.0) == 0.0
        assert h_rate(math.e) == pytest.approx(1.0, abs=1e-15)
        assert h_rate(2.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-15)

    @given(st.floats(0.0, 1e6))
    def test_nonnegative_convex_zero_at_one(self, x):
        assert h_rate(x) >= 0.0

    def test_domain(self):
        for bad in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                h_rate(bad)


class TestTailBounds:
    def test_constants(self):
        assert V_SQUARED == pytest.approx(math.pi**2 / 2.0, abs=1e-15)
        assert A_PLUS == pytest.approx(A_PLUS_REF, abs=1e-12)
        assert A_MINUS == pytest.approx(A_MINUS_REF, abs=1e-12)
        # the rate quotes the derivation's constant rounded up
        assert A_SMALL_EXACT_REF <= A_SMALL_UPPER_PRINTED == 3.126

    def test_dominating_survival_values(self):
        assert dominating_survival(1.0, 2.0) == pytest.approx(DOM_SURV_1_2, abs=1e-14)
        assert dominating_survival(1.0, 0.0) == 1.0
        assert dominating_survival(1.0, -3.0) == 1.0

    def test_xi_tail_bound_values(self):
        assert xi_tail_bound(1.0, 2.0) == pytest.approx(TAIL_BOUND_1_2, abs=1e-14)
        # at t = 2 ln 2 the half-rate envelope is exactly 2/pi
        assert xi_tail_bound(1.0, 2.0 * math.log(2.0)) == pytest.approx(
            2.0 / math.pi, abs=1e-14
        )
        assert xi_tail_bound(1.0, 20.0) == pytest.approx(3.2839055234406536e-9, rel=1e-12)

    def test_xi_tail_bound_clamped_to_one(self):
        # C1 grows linearly in lambda; the bound is still a probability.
        assert xi_tail_bound(1e6, 2.0) == 1.0

    def test_xi_tail_bound_validity(self):
        with pytest.raises(ValueError):
            xi_tail_bound(1.0, 1.0)  # below both validity thresholds
        # t in [2 log(1+sqrt(lam)), 2) is served by the half-rate envelope
        assert 0.0 < xi_tail_bound(0.25, 1.0) <= 1.0

    @settings(max_examples=300)
    @given(st.floats(1e-3, 1e3), st.floats(2.0, 60.0))
    def test_bound_dominates_exact_survival(self, lam, t):
        assert dominating_survival(lam, t) <= xi_tail_bound(lam, t) + 1e-15

    @given(st.floats(1e-3, 1e3))
    def test_survival_decreasing_in_t(self, lam):
        values = [dominating_survival(lam, t) for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestChernoffRates:
    def test_large_rate_values(self):
        upper, lower = chernoff_rate_large(0.25)
        assert upper == pytest.approx(RATE_UPPER_QUARTER, rel=1e-12)
        assert lower == pytest.approx(RATE_LOWER_QUARTER, rel=1e-12)
        with pytest.raises(ValueError):
            chernoff_rate_large(0.3)

    def test_large_rate_closed_form(self):
        eps = 0.1
        expected = 64.0 * (V_SQUARED + A_PLUS) / (eps**2 * (1.0 - eps) ** 2)
        assert chernoff_rate_large(eps)[0] == pytest.approx(expected, rel=1e-14)

    @given(epsilons)
    def test_upper_needs_more_than_lower(self, eps):
        # A_plus > A_minus, everything else equal
        upper, lower = chernoff_rate_large(eps)
        assert upper > lower

    @given(st.floats(1e-4, 0.24))
    def test_rate_decreasing_in_epsilon(self, eps):
        assert chernoff_rate_large(eps)[0] > chernoff_rate_large(eps * 1.04)[0]

    def test_small_rate_values(self):
        # the rates the planner and the printed regime table take, at
        # (eps, lambda) = (0.25, 1) upper, (0.25, 0.5) lower and the
        # constant branch that covers (0.25, 1.5) lower
        assert _small_upper_rate(0.25, math.log(1.0)) == pytest.approx(
            2109.141333693613, rel=1e-12
        )
        assert _small_lower_rate(0.25, math.log(0.5)) == pytest.approx(
            910.9893804858854, rel=1e-12
        )
        assert _branch_b_rate(0.25) == pytest.approx(1693.905022841885, rel=1e-12)

    def test_small_upper_regime_errors(self):
        # the small-scale upper regime is (8 eps^2, 1]; 8 eps^2 = 0.5 here
        with pytest.raises(ValueError, match="8 eps"):
            _u_star_small_upper(0.25, 0.5)  # at 8 eps^2: unproven
        with pytest.raises(ValueError, match="8 eps"):
            _u_star_small_upper(0.25, 0.1)
        with pytest.raises(ValueError, match="8 eps"):
            _u_star_small_upper(0.25, 1.5)  # large-scale territory

    @settings(max_examples=200)
    @given(st.floats(0.01, 0.25), st.data())
    def test_small_upper_base_dominates_ratio_bound(self, eps, data):
        # The constant-loosened base inside the small-scale rates must
        # dominate the tight second-moment ratio bound on (8 eps^2, 1].
        lam = data.draw(st.floats(8.0 * eps**2 * 1.0001, 1.0))
        assert _small_base(math.log(lam)) >= second_moment_ratio_bound(lam) - 1e-9


class TestExponentOptimizers:
    def test_frozen_values(self):
        upper, lower = u_star_large(0.25)
        assert upper == pytest.approx(0.00182689977633213, rel=1e-12)
        assert lower == pytest.approx(0.0037237465966963967, rel=1e-12)

    @given(epsilons)
    def test_large_caps(self, eps):
        # the MGF splitting needs u < 1/2 on the upper side, u < 1 below
        upper, lower = u_star_large(eps)
        assert 0.0 < upper < 0.5
        assert 0.0 < lower < 1.0

    @settings(max_examples=200)
    @given(st.floats(0.01, 0.25), st.data())
    def test_small_upper_cap(self, eps, data):
        lam = data.draw(st.floats(8.0 * eps**2 * 1.0001, 1.0))
        u = _u_star_small_upper(eps, lam)
        assert 0.0 < u < eps / math.sqrt(2.0 * lam)
        assert u < 0.25

    def test_small_upper_regime_error(self):
        with pytest.raises(ValueError, match="8 eps"):
            _u_star_small_upper(0.25, 0.4)


class TestClassifyScale:
    def test_kinds(self):
        # The two-sided guarantee's scale split, large / small / really small,
        # read through regime_tag with the really-small cutoff set at 8 eps^2.
        eps = 0.25
        assert _scale_cutoffs(eps) == (math.sqrt(1.25), 0.5)

        def kind(lam):
            return regime_tag(lam, eps, lambda0=8.0 * eps**2)

        assert kind(2.0) == "large"
        assert kind(math.sqrt(1.25)) == "large"  # boundary included
        assert kind(1.0) == "small"
        assert kind(0.5) == "really-small"  # 8 eps^2 included
        assert kind(0.51) == "small"
        assert kind(1e-12) == "really-small"


class TestPlanner:
    def test_reference_plan(self):
        plan = plan_dimension(0.25, 100, 3)
        assert plan.k == 338846
        assert plan.binding_regime == "large-upper"
        assert plan.delta_fail == pytest.approx(1e-6, rel=1e-12)
        assert plan.lambda0 == pytest.approx(2.66466770162303e-14, rel=1e-9)
        assert (plan.u_star_upper, plan.u_star_lower) == u_star_large(0.25)

    def test_reference_plan_for_delta(self):
        plan = plan_dimension_for_delta(0.25, 0.01)
        assert plan.k == 123741
        assert plan.binding_regime == "large-upper"

    def test_k_matches_regime_table(self):
        plan = plan_dimension(0.25, 100, 3)
        table = plan.regimes
        assert set(table) == {
            "large-upper",
            "large-lower",
            "small-upper",
            "small-lower",
            "really-small-lower",
        }
        assert plan.binding_regime in table
        worst = max(table.values())
        assert table[plan.binding_regime] == worst
        assert plan.k == math.ceil(math.log(2.0 / plan.delta_fail) * worst)

    def test_regimes_hold_the_rates_k_came_from(self):
        # lambda0 = 3.6e-312 is subnormal here, so ln(lambda0) is not the
        # ln the fixed point used (the rate through it is 1 ulp off). The
        # table holds the planner's own rate, which binds at this budget.
        eps, n, c = 0.024271396384081233, 1708, 92.10736293872966
        plan = plan_dimension(eps, n, c)
        assert plan.lambda0 < sys.float_info.min
        rate = _small_lower_rate(eps, _ln_lambda0(eps, plan.delta_fail, plan.k))
        assert plan.regimes["really-small-lower"] == rate
        assert plan.binding_regime == "really-small-lower"
        assert plan.k == math.ceil(math.log(2.0 / plan.delta_fail) * rate)

    def test_rate_reciprocals_cover_table(self):
        plan = plan_dimension(0.2, 1000, 4)
        table = plan.regimes
        assert plan.rate_reciprocal_upper == pytest.approx(
            max(table["large-upper"], table["small-upper"]), rel=1e-12
        )
        assert plan.rate_reciprocal_lower == pytest.approx(
            max(table["large-lower"], table["small-lower"], table["really-small-lower"]),
            rel=1e-12,
        )

    def test_lambda0_consistent_with_max_plan(self):
        # One formula gives both cutoffs, so they agree bit for bit.
        feasible = 0
        for eps in (0.25, 0.1, 0.01):
            for n in (2, 3, 10, 100, 1000):
                for c in (3, 3.5, 4, 5, 10, 20):
                    try:
                        plan = plan_dimension(eps, n, c)
                    except InfeasibleParameterError:
                        continue
                    assert plan.lambda0 == max_abs_plan(plan.k, eps, n, c).lambda0, (eps, n, c)
                    feasible += 1
        assert feasible == 82

    @given(st.floats(0.02, 0.24))
    def test_k_decreasing_in_epsilon(self, eps):
        assert plan_dimension(eps, 100, 3).k >= plan_dimension(eps * 1.04, 100, 3).k

    def test_union_budget(self):
        # delta N^2 <= 1/N at c >= 3: the union over pairs still vanishes
        for n, c in ((100, 3.0), (10, 4.0), (1000, 3.0)):
            plan = plan_dimension(0.25, n, c)
            assert plan.delta_fail * n * n <= 1.0 / n * (1.0 + 1e-12)

    def test_infeasible_parameters(self):
        with pytest.raises(InfeasibleParameterError):
            plan_dimension(0.3, 100, 3)  # epsilon above 1/4
        with pytest.raises(InfeasibleParameterError):
            plan_dimension(1e-7, 100, 3)  # epsilon below N^-c
        with pytest.raises(InfeasibleParameterError):
            plan_dimension(0.25, 100, 2.5)  # c below 3
        with pytest.raises(InfeasibleParameterError):
            plan_dimension(0.25, 1, 3)
        with pytest.raises(InfeasibleParameterError):
            plan_dimension(0.25, 10, 400)  # N^-c underflows
        with pytest.raises(InfeasibleParameterError):
            plan_dimension_for_delta(0.25, 0.0)
        with pytest.raises(InfeasibleParameterError):
            plan_dimension_for_delta(0.25, 1e-310)  # 2/delta overflows
        with pytest.raises(InfeasibleParameterError):
            plan_dimension_for_delta(0.001, 0.01)  # delta > epsilon

    @pytest.mark.parametrize("real", [np.int64, np.float32, np.float64])
    def test_numpy_reals_same_as_python_numbers(self, real):
        # epsilon and c take numpy scalars as the counts take numpy
        # integers; repr tells a Python float from a numpy one in a field
        assert repr(plan_dimension(0.25, 100, real(3))) == repr(plan_dimension(0.25, 100, 3))
        assert repr(max_abs_plan(64, 0.25, 100, real(4))) == repr(max_abs_plan(64, 0.25, 100, 4))
        if real is not np.int64:  # no integer epsilon lies in (0, 1/4]
            assert repr(plan_dimension(real(0.25), 100, 3)) == repr(plan_dimension(0.25, 100, 3))
            assert repr(max_abs_plan(64, real(0.25), 100, 3)) == repr(
                max_abs_plan(64, 0.25, 100, 3)
            )

    def test_bools_and_strings_rejected(self):
        for bad in (True, np.True_, "0.25"):
            with pytest.raises(InfeasibleParameterError, match="epsilon must be a number"):
                plan_dimension(bad, 100, 3)
            with pytest.raises(ValueError, match="epsilon must be a number"):
                max_abs_plan(64, bad, 100, 3)
        for bad in (True, np.True_, "3"):
            with pytest.raises(InfeasibleParameterError, match="c must be a number"):
                plan_dimension(0.25, 100, bad)


class TestMaxBoundPlan:
    def test_reference_plan(self):
        plan = max_abs_plan(1000, 0.25, 100, 3)
        assert plan.C_k == pytest.approx(math.e * 1e6, rel=1e-12)
        assert plan.p_t == pytest.approx(3.678794411714418e-10, rel=1e-12)
        assert plan.threshold_t == pytest.approx(1730511958.8645327, rel=1e-12)
        assert plan.lambda0 == pytest.approx(9.029119920241565e-12, rel=1e-12)
        assert plan.c0 == 0.25**2 / 4.0

    def test_unplannable_budget_raises(self):
        # delta = 1e-307 is a normal float, but k e/delta overflows for k = 16,
        # which would put the threshold quantile at 0
        for c in (307.0, 400.0):
            with pytest.raises(ValueError):
                max_abs_plan(16, 0.25, 10, c)

    def test_exceedance_below_delta(self):
        plan = max_abs_plan(1000, 0.25, 100, 3)
        assert plan.exceedance_bound == pytest.approx(
            plan.delta * math.exp(-plan.delta / math.e), rel=1e-9
        )
        assert plan.exceedance_bound < plan.delta

    @given(st.integers(1, 10_000), st.sampled_from([(10, 3.0), (100, 3.0), (40, 5.0)]))
    def test_threshold_elementary_bound(self, k, nc):
        n, c = nc
        plan = max_abs_plan(k, 0.2, n, c)
        # tan(x) >= x on (0, pi/2) caps the quantile by 2ke/(pi delta);
        # the slack covers the one-ulp gap between the two evaluation orders.
        assert plan.threshold_t <= 2.0 * k * math.e / (math.pi * plan.delta) * (1.0 + 1e-12)
        assert plan.c0 <= 1.0 / 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            max_abs_plan(0, 0.25, 100, 3)
        with pytest.raises(ValueError):
            max_abs_plan(10, 0.3, 100, 3)
        with pytest.raises(ValueError):
            max_abs_plan(10, 0.25, 1, 3)
        with pytest.raises(ValueError):
            max_abs_plan(10, 0.25, 100, 2.5)
        with pytest.raises(ValueError):
            max_abs_plan(True, 0.25, 100, 3)
        with pytest.raises(ValueError, match="fit a float"):
            max_abs_plan(10**400, 0.25, 100, 3)  # k * C_k would raise OverflowError
        with pytest.raises(ValueError):
            max_abs_plan(10, "0.25", 100, 3)


class TestCorollaryBand:
    def test_values(self):
        assert corollary_band(1e-13, 0.25, 1e-12) == pytest.approx((0.5625, 1.5625))
        low, high = corollary_band(1e-13, 0.1, 1e-12)
        assert low == pytest.approx(0.9 * 0.96, abs=1e-15)
        assert high == pytest.approx(1.1 * 1.04, abs=1e-15)

    def test_wider_than_central_band(self):
        low, high = corollary_band(1e-13, 0.25, 1e-12)
        assert low < 1.0 - 0.25
        assert high > 1.0 + 0.25

    def test_domain(self):
        with pytest.raises(ValueError):
            corollary_band(1e-11, 0.25, 1e-12)  # above the cutoff
        with pytest.raises(ValueError):
            corollary_band(0.0, 0.25, 1e-12)
        with pytest.raises(ValueError):
            corollary_band(1e-13, 0.3, 1e-12)
        for lambda0 in (math.inf, math.nan, 0.0, -1e-12):
            with pytest.raises(ValueError):
                corollary_band(1e300, 0.25, lambda0)


class TestDeviationFloorFeedsRates:
    @given(st.floats(0.01, 0.25), st.floats(1.0, 50.0))
    def test_band_deviation_exceeds_quarter_floor(self, eps, lam):
        # mu((1+eps) lam) - mu(lam) >= eps/4 (1 - eps) for lam >= 1/sqrt(1+eps);
        # this floor is what converts mu-space deviations into the rates.
        if lam < 1.0 / math.sqrt(1.0 + eps):
            lam = 1.0 / math.sqrt(1.0 + eps)
        gap = mu((1.0 + eps) * lam) - mu(lam)
        assert gap >= eps / 4.0 * (1.0 - eps) - 1e-12
        assert gap < eps
