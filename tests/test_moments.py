"""The mean map mu, the log-moment, variance bounds, deviation
sandwich, and the mean-map inverse."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchysketch.moments import (
    DeviationPair,
    deviations,
    expected_log1p,
    mu,
    mu_inverse,
    mu_small_envelope,
    second_moment_ratio_bound,
    second_moment_upper,
)

# Frozen reference values, mpmath at 50 decimal digits.
MU_AT = {
    1e-4: 0.014141669190927883671,
    0.1: 0.43645563284216774081,
    1.0: 1.2279471772995156799,
    2.0: 1.6094379124341003746,
    100.0: 4.7461673271365410484,
}
ELOG1P_AT = {
    0.1: 0.21466806749580211327,
    0.5: 0.626341499429429467,
    1.0: 0.92969539834161021499,
    2.0: 1.3194886799893747764,
}
CATALAN = 0.91596559417721901505
EXISQ_ONE = 2.2173960713046813194  # E xi(|X|)^2, mpmath quadrature

HALF_PI_SQ = math.pi**2 / 2.0

log_uniform = st.floats(math.log(1e-6), math.log(1e6)).map(math.exp)


class TestMu:
    def test_frozen_values(self):
        for lam, value in MU_AT.items():
            assert mu(lam) == pytest.approx(value, abs=1e-14)
        assert mu(0.0) == 0.0

    def test_mu_two_closed_form(self):
        # mu(2) = ln(1 + 2 + sqrt(4)) = ln 5; in the printed atanh form
        # both terms are atanh(2/3) = ln(5)/2.
        assert mu(2.0) == pytest.approx(math.log(5.0), abs=1e-14)

    @given(log_uniform)
    def test_strictly_increasing(self, lam):
        assert mu(lam * 1.000001) > mu(lam)

    def test_matches_the_papers_atanh_form(self):
        # mpmath's value of the printed atanh(sqrt(2 lambda)/(1 + lambda))
        # + ln(1 + lambda^2)/2, across every float scale: 1e150 and 1.4e154
        # sit on both sides of where the printed lambda^2 overflows a float.
        lams = [5e-324, 1e-310, 1e150, 1.4e154, sys.float_info.max]
        lams += np.geomspace(1e-300, 1e308, 301).tolist()
        worst = 0.0
        with mpmath.workdps(40):
            for lam in lams:
                x = mpmath.mpf(lam)
                exact = mpmath.atanh(mpmath.sqrt(2 * x) / (1 + x)) + mpmath.log1p(x * x) / 2
                worst = max(worst, abs(mu(lam) - float(exact)) / math.ulp(float(exact)))
        assert worst <= 4.0

    @given(st.floats(1e-12, 1.0))
    def test_small_scale_envelope(self, lam):
        low, high = mu_small_envelope(lam)
        base = math.sqrt(2.0 * lam) / (1.0 + lam)
        assert low == pytest.approx(base, rel=1e-15)
        assert high == pytest.approx(2.0 * base + lam * lam / 2.0, rel=1e-15)
        assert low <= mu(lam) <= high

    def test_envelope_domain(self):
        with pytest.raises(ValueError):
            mu_small_envelope(1.5)

    def test_large_scale_asymptote(self):
        # mu(lambda) = ln(lambda) + sqrt(2/lambda) + O(1/lambda)
        lam = 1e8
        assert mu(lam) - math.log(lam) == pytest.approx(math.sqrt(2.0 / lam), rel=1e-3)

    def test_array_matches_scalar(self):
        # one body serves both: element by element, the same bits
        lams = np.concatenate(
            [[0.0, 5e-324, 1e150, math.nextafter(1e150, math.inf), sys.float_info.max],
             np.geomspace(5e-324, 1e308, 20001)]
        )
        assert mu(lams).tolist() == [mu(lam) for lam in lams.tolist()]
        assert mu(lams[:6].reshape(2, 3)).shape == (2, 3)
        assert type(mu(2.0)) is float and type(mu(np.float64(2.0))) is float

    def test_domain(self):
        for bad, message in ((-0.5, ">= 0"), (math.nan, "finite"), (math.inf, "finite")):
            with pytest.raises(ValueError, match=message):
                mu(bad)
            with pytest.raises(ValueError, match=message):
                mu(np.array([1.0, bad]))


class TestExpectedLog1p:
    def test_frozen_values(self):
        for lam, value in ELOG1P_AT.items():
            assert expected_log1p(lam) == pytest.approx(value, abs=1e-13)
        assert expected_log1p(0.0) == 0.0

    def test_unit_scale_closed_form(self):
        # At lambda = 1 the arctan term vanishes and the value collapses
        # to ln(2)/2 + (2/pi) * Catalan.
        assert expected_log1p(1.0) == pytest.approx(
            0.5 * math.log(2.0) + 2.0 / math.pi * CATALAN, abs=1e-14
        )

    @given(log_uniform)
    def test_increasing_and_positive(self, lam):
        assert expected_log1p(lam) > 0.0
        assert expected_log1p(lam * 1.00001) > expected_log1p(lam)

    @given(log_uniform)
    def test_dominated_by_mu(self, lam):
        # ln(1+a) <= 2 ln(1+sqrt(a)) <= 2 xi(a) pointwise, so the mean obeys
        # the same ordering; in fact E ln(1+lam|X|) <= mu... use the crude
        # factor-2 version which holds for every lambda.
        assert expected_log1p(lam) <= 2.0 * mu(lam) + 1e-12


class TestSecondMoment:
    def test_upper_bound_value(self):
        # min(2 E log1p, pi^2/2) + mu^2 at lambda = 1
        expected = min(2.0 * ELOG1P_AT[1.0], HALF_PI_SQ) + MU_AT[1.0] ** 2
        assert second_moment_upper(1.0) == pytest.approx(expected, abs=1e-12)

    def test_dominates_true_second_moment(self):
        assert second_moment_upper(1.0) >= EXISQ_ONE

    @given(log_uniform)
    def test_variance_term_capped(self, lam):
        assert second_moment_upper(lam) - mu(lam) ** 2 <= HALF_PI_SQ + 1e-12

    def test_ratio_bound_values(self):
        # lambda <= 1 branch at lambda = 1: lam + 4/pi + 8/(1+lam)^2
        #   + 2 lam sqrt(2 lam)/(1+lam) + lam^3/4 (the -ln term vanishes)
        expected = 1.0 + 4.0 / math.pi + 2.0 + math.sqrt(2.0) + 0.25
        assert second_moment_ratio_bound(1.0) == pytest.approx(expected, abs=1e-12)
        # (1, 2] branch is constant in lambda apart from two terms
        expected2 = HALF_PI_SQ + 2.0 + 2.0 * math.sqrt(2.0) + 2.0
        assert second_moment_ratio_bound(2.0) == pytest.approx(expected2, abs=1e-12)

    def test_ratio_bound_dominates_at_unit_scale(self):
        assert EXISQ_ONE / 1.0 <= second_moment_ratio_bound(1.0)

    def test_ratio_bound_domain(self):
        with pytest.raises(ValueError):
            second_moment_ratio_bound(2.5)
        with pytest.raises(ValueError):
            second_moment_ratio_bound(0.0)


class TestDeviations:
    @pytest.mark.parametrize("a", [1.05, 1.1, 1.25])
    @pytest.mark.parametrize("lam_rule", ["edge", 1.0, 5.0, 100.0])
    def test_sandwich(self, a, lam_rule):
        lam = 1.0 / math.sqrt(a) if lam_rule == "edge" else lam_rule
        eps = a - 1.0
        pair = deviations(lam, eps)
        floor = eps / 4.0 * (1.0 - eps)
        assert floor + 1e-12 <= pair.delta_plus <= eps - 1e-12
        assert pair.delta_minus > 0.0

    def test_fields(self):
        pair = deviations(1.0, 0.25)
        assert isinstance(pair, DeviationPair)
        assert pair.epsilon == 0.25
        assert pair.delta_plus == pytest.approx(mu(1.25) - mu(1.0), abs=1e-15)
        assert pair.delta_minus == pytest.approx(mu(1.0) - mu(0.8), abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            deviations(1.0, 0.3)
        with pytest.raises(ValueError):
            deviations(1.0, 0.0)
        with pytest.raises(ValueError):
            deviations(0.0, 0.1)


class TestMuInverse:
    def test_zero(self):
        assert mu_inverse(0.0) == 0.0

    @settings(max_examples=200)
    @given(log_uniform)
    def test_round_trip(self, lam):
        assert mu_inverse(mu(lam)) == pytest.approx(lam, rel=1e-14)

    def test_round_trip_extremes(self):
        # up to lambda = 1e27 (m ~ 62.9), where a float m is spaced at most
        # 7.1e-15 apart; the test below takes over from there
        lams = np.geomspace(1e-300, 1e27, 2001)
        assert (np.abs(mu_inverse(mu(lams)) - lams) <= 1e-14 * lams).all()

    def test_matches_the_exact_inverse(self):
        # mpmath's e^m - sqrt(2 e^m - 1), with digits to spare for its
        # cancellation at small m, wherever that is a normal float; m = 300
        # is where mu_inverse changes form.
        ms = np.geomspace(1e-153, mu(sys.float_info.max), 400).tolist()
        ms += [math.nextafter(300.0, 0.0), 300.0, mu(sys.float_info.max)]
        worst = 0.0
        for m in ms:
            with mpmath.workdps(40 + 2 * max(0, -math.floor(math.log10(m)))):
                e = mpmath.exp(mpmath.mpf(m))
                exact = float(e - mpmath.sqrt(2 * e - 1))
            if exact >= sys.float_info.min:
                worst = max(worst, abs(mu_inverse(m) - exact) / math.ulp(exact))
        assert worst <= 8.0

    def test_round_trip_past_lambda_squared_overflow(self):
        # lambda^2 overflows above ~1.3e154, where the paper's form of mu
        # could not be computed as printed. Past lambda ~ e^64 a float m
        # is spaced more than 1e-14 apart, and lambda ~ e^m moves by that
        # fraction for one ulp of m, so no inverse comes nearer.
        lams = np.geomspace(1e27, 1e308, 2001)
        m = mu(lams)
        error = np.abs(mu_inverse(m) - lams) / lams
        assert (error <= np.maximum(1e-14, np.spacing(m))).all()
        top = mu(sys.float_info.max)
        assert top == pytest.approx(math.log(sys.float_info.max), rel=1e-15)
        assert mu_inverse(top) == pytest.approx(sys.float_info.max, rel=math.ulp(top))
        with pytest.raises(ValueError):
            mu_inverse(math.nextafter(top, math.inf))

    @given(st.floats(1e-6, 20.0))
    def test_monotone(self, m):
        assert mu_inverse(m * 1.01) > mu_inverse(m)

    def test_round_trip_large_m(self):
        # m >= 340 is lambda above ~1e147, on the t (t - sqrt 2) form;
        # mu reads each m back within an ulp or two
        ms = np.linspace(340.0, mu(sys.float_info.max), 2001)
        lams = mu_inverse(ms)
        assert np.isfinite(lams).all()
        assert (np.abs(mu(lams) - ms) <= 2.0 * np.spacing(ms)).all()

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(9)
        ms = np.concatenate(
            [[0.0, 1e-170, 2.0, 340.0, mu(sys.float_info.max)],
             np.exp(rng.uniform(math.log(1e-160), math.log(709.0), 500))]
        )
        lams = mu_inverse(ms)
        assert lams.shape == ms.shape
        assert lams.tolist() == [mu_inverse(m) for m in ms.tolist()]
        assert np.array_equal(mu_inverse(ms[:6].reshape(2, 3)), lams[:6].reshape(2, 3))
        assert type(mu_inverse(np.float64(2.0))) is float

    def test_below_smallest_positive_float(self):
        # the inverse of m <= mu(5e-324) ~ 3.1e-162 is below every positive
        # float; it is returned as the smallest one, so only 0 maps to 0
        assert mu_inverse(1e-170) == 5e-324
        assert mu_inverse(mu(5e-324)) == 5e-324
        assert mu_inverse(np.array([0.0, 1e-300])).tolist() == [0.0, 5e-324]
        assert 0.0 < mu_inverse(3.2e-162) < 1e-320

    def test_domain(self):
        with pytest.raises(ValueError):
            mu_inverse(-0.1)
        with pytest.raises(ValueError):
            mu_inverse(math.nan)
        with pytest.raises(ValueError):
            mu_inverse(np.array([1.0, -0.1]))
        with pytest.raises(ValueError):
            mu_inverse(np.array([1.0, math.inf]))
