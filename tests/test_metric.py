"""The bounded coordinate map xi, the sketch-space metric rho, and the
small-argument envelope."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cauchysketch.cauchy import RngSeed, make_generator, sample_standard_cauchy
from cauchysketch.metric import rho, xi, xi_small_envelope
from cauchysketch.moments import mu_inverse
from cauchysketch.sketch import sketch_dataset

SEED = RngSeed(20240817, 0)


def _random_points(k: int, count: int, stream: int) -> list[np.ndarray]:
    rng = make_generator(RngSeed(20240817, stream))
    return [sample_standard_cauchy(rng, size=k) for _ in range(count)]


class TestXi:
    def test_known_values(self):
        assert xi(0.0) == 0.0
        assert xi(1.0) == pytest.approx(1.5 * math.log(2.0), abs=1e-15)
        # xi(a) = ln(1 + sqrt(a)) + ln(1 + a)/2 spelled out at a = 4
        assert xi(4.0) == pytest.approx(math.log(3.0) + 0.5 * math.log(5.0), abs=1e-15)

    def test_array_shape(self):
        a = np.array([[0.0, 1.0], [4.0, 9.0]])
        out = xi(a)
        assert out.shape == (2, 2)
        assert out[0, 0] == 0.0

    @given(st.floats(0.0, 1e8), st.floats(0.0, 1e8))
    def test_subadditive(self, a, b):
        # Concavity through 0 in each summand gives xi(a+b) <= xi(a)+xi(b).
        assert xi(a + b) <= xi(a) + xi(b) + 1e-12

    @given(st.floats(1e-12, 1e12))
    def test_strictly_increasing(self, a):
        assert xi(a * 1.0000001) > xi(a)

    @given(st.floats(1e-10, 1.0 / 6.0 - 1e-12))
    def test_small_argument_envelope(self, a):
        low, high = xi_small_envelope(a)
        assert low == pytest.approx(math.sqrt(a), rel=1e-15)
        assert high == pytest.approx(math.sqrt(a) * (1.0 + a / 2.0), rel=1e-15)
        assert low - 1e-15 <= xi(a) <= high + 1e-15

    def test_half_homogeneity_heuristic(self):
        # The envelope pins xi(a) ~ sqrt(a) near 0: doubling a multiplies
        # xi by ~ sqrt(2) at small scales.
        a = 1e-8
        assert xi(2.0 * a) / xi(a) == pytest.approx(math.sqrt(2.0), rel=1e-4)

    def test_envelope_domain(self):
        with pytest.raises(ValueError):
            xi_small_envelope(1.0 / 6.0)
        with pytest.raises(ValueError):
            xi_small_envelope(0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            xi(-1e-9)

    def test_large_array_holds_two_temporaries(self):
        # The Monte Carlo suites pass xi arrays of millions of draws; its
        # peak is two float64 arrays of their size beside the input.
        a = np.linspace(0.0, 1e6, 1_000_000)
        tracemalloc.start()
        try:
            out = xi(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * a.nbytes + 65_536
        assert np.array_equal(out, np.log1p(np.sqrt(a)) + 0.5 * np.log1p(a))


class TestSketchedPoint:
    """A sketched point is one row of the (N, k) array sketch_dataset returns."""

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sketch_dataset([[1.0, math.inf], [0.0, 0.0]], 4, SEED)
        with pytest.raises(ValueError):
            sketch_dataset([[math.nan, 0.0], [0.0, 0.0]], 4, SEED)
        # finite points whose sketch row would hold an infinite coordinate
        with pytest.raises(ValueError):
            sketch_dataset([[1e308, 1e308], [0.0, 0.0]], 64, SEED)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rho(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            sketch_dataset([[], []], 4, SEED)


class TestRho:
    def test_identity(self):
        (p,) = _random_points(16, 1, 1)
        assert rho(p, p) == 0.0

    def test_symmetry(self):
        u, v = _random_points(16, 2, 2)
        assert rho(u, v) == pytest.approx(rho(v, u), abs=1e-15)

    def test_is_mean_of_xi(self):
        u, v = _random_points(8, 2, 3)
        expected = float(np.mean(xi(np.abs(u - v))))
        assert rho(u, v) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("k", [1, 7, 64])
    def test_triangle_inequality(self, k):
        points = _random_points(k, 30, 4)
        for i in range(0, 30, 3):
            u, v, w = points[i], points[i + 1], points[i + 2]
            assert rho(u, w) <= rho(u, v) + rho(v, w) + 1e-12

    def test_positivity(self):
        u, v = _random_points(4, 2, 5)
        assert rho(u, v) > 0.0

    def test_dimension_mismatch(self):
        (u,) = _random_points(4, 1, 6)
        (v,) = _random_points(5, 1, 6)
        with pytest.raises(ValueError):
            rho(u, v)
        with pytest.raises(ValueError):
            rho(np.stack([u, u]), np.stack([u, u]))  # rows, not matrices
        with pytest.raises(ValueError):
            rho(np.empty(0), np.empty(0))


# Coordinates whose differences stay finite, as sketch_dataset guarantees.
_coordinate = st.floats(-1e300, 1e300)


@st.composite
def _stack_and_row(draw):
    """An (m, k) stack U and a row v, with some rows of U equal to v."""
    k = draw(st.integers(1, 6))
    v = draw(arrays(np.float64, k, elements=_coordinate))
    stack = draw(arrays(np.float64, (draw(st.integers(1, 5)), k), elements=_coordinate))
    for j, same in enumerate(draw(st.lists(st.booleans(), min_size=len(stack), max_size=len(stack)))):
        if same:
            stack[j] = v
    return stack, v


class TestRhoOfStack:
    """rho(U, v) of an (m, k) stack is the m row-by-row values."""

    @pytest.mark.parametrize("k", [1, 7, 1000])
    def test_same_bits_as_row_calls(self, k):
        points = np.array(_random_points(k, 20, 7))
        values = rho(points[1:], points[0])
        assert values.shape == (19,)
        assert [rho(u, points[0]) for u in points[1:]] == values.tolist()
        assert [float(np.mean(xi(np.abs(u - points[0])))) for u in points[1:]] == values.tolist()
        assert type(rho(points[1], points[0])) is float

    def test_shape_and_value_checks(self):
        stack = np.array(_random_points(4, 3, 8))
        with pytest.raises(ValueError):
            rho(stack, stack[0][:3])  # row length differs
        with pytest.raises(ValueError):
            rho(stack[None], stack[0])  # 3-d stack
        with pytest.raises(ValueError):
            rho(stack, stack[:1])  # v is not a row
        stack[1, 2] = math.nan
        with pytest.raises(ValueError):
            rho(stack, stack[0])

    @given(_stack_and_row())
    def test_stack_entry_is_row_value(self, case):
        stack, v = case
        values = rho(stack, v)
        for j, u in enumerate(stack):
            assert values[j] == rho(u, v)

    @given(_stack_and_row())
    def test_estimate_zero_exactly_on_equal_rows(self, case):
        stack, v = case
        estimates = mu_inverse(rho(stack, v))
        assert ((estimates == 0.0) == (stack == v).all(axis=1)).all()
