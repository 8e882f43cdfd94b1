"""Special functions against frozen high-precision oracles, live mpmath
values and their functional equations."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cauchysketch.specfun import ti2

# Frozen reference values, mpmath at 50 decimal digits.
CATALAN = 0.91596559417721901505
TI2_HALF = 0.48722235829452235711
TI2_TWO = 1.5760154034463234224
TI2_TEN = 3.7167814930680685903


class TestTi2:
    def test_frozen_values(self):
        assert ti2(1.0) == pytest.approx(CATALAN, abs=1e-13)
        assert ti2(0.5) == pytest.approx(TI2_HALF, abs=1e-14)
        assert ti2(2.0) == pytest.approx(TI2_TWO, abs=1e-13)
        assert ti2(10.0) == pytest.approx(TI2_TEN, abs=1e-13)
        assert ti2(0.0) == 0.0

    def test_matches_mpmath(self):
        # Ti_2(x) = Im Li_2(i x), on both sides of the inversion at x = 1.
        worst = 0.0
        with mpmath.workdps(40):
            for x in np.logspace(-6, 6, 41).tolist() + [1.0]:
                exact = float(mpmath.im(mpmath.polylog(2, 1j * mpmath.mpf(x))))
                worst = max(worst, abs(ti2(x) - exact) / exact)
        assert worst <= 2e-15

    def test_inversion_formula(self):
        for x in (2.0, 10.0, 100.0):
            assert ti2(x) - ti2(1.0 / x) - 0.5 * math.pi * math.log(x) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_inversion_symmetry(self):
        def f(x):
            return ti2(x) - math.log(x) * math.atan(x)

        for x in (2.0, 3.0, 10.0, 50.0):
            assert f(x) == pytest.approx(f(1.0 / x), abs=1e-11)

    @given(st.floats(1e-8, 1.0))
    def test_small_argument_envelope(self, x):
        # alternating series: x - x^3/9 <= Ti_2(x) <= x on [0, 1]
        assert x - x**3 / 9.0 - 1e-15 <= ti2(x) <= x + 1e-15

    def test_monotone(self):
        grid = np.logspace(-3, 2, 30)
        values = [ti2(float(x)) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            ti2(-0.5)
        with pytest.raises(ValueError):
            ti2(math.inf)

