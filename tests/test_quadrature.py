"""The quadrature module: its panel reduction, its lambda-batched
integrals, its failures on non-finite integrals, and its import gate."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import cauchysketch.quadrature as quadrature_module
from cauchysketch.metric import xi
from cauchysketch.quadrature import QuadratureError, quadrature_mean
from cauchysketch.verify import _xi_squared


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize(
    "exponents",
    [(0.0, 0.0), (-300.0, -290.0), (290.0, 300.0), (-300.0, 300.0)],
    ids=["unit", "tiny", "huge", "mixed"],
)
def test_panel_reduction_keeps_every_bit(exponents):
    # Values and error estimates of every row equal those of the row
    # reduced alone with float(w @ row), however many rows share a call.
    rng = np.random.default_rng(17)
    for rows in range(1, 81):
        ys = rng.choice([-1.0, 1.0], size=(rows, 15)) * 10.0 ** rng.uniform(*exponents, (rows, 15))
        a = rng.uniform(0.0, 1.0, rows)
        b = a + rng.uniform(0.0, 1.0, rows)
        values, errors = quadrature_module._panels(lambda p, x: ys, np.ones(rows), a, b)
        half = (0.5 * (b - a)).tolist()
        kronrod = [h * float(quadrature_module._W_KRONROD @ row) for h, row in zip(half, ys)]
        gauss = [h * float(quadrature_module._W_GAUSS @ row) for h, row in zip(half, ys)]
        assert np.array_equal(_bits(values), _bits(kronrod))
        assert np.array_equal(_bits(errors), _bits([abs(k - g) for k, g in zip(kronrod, gauss)]))


@pytest.mark.parametrize(
    "g",
    [xi, np.log1p, _xi_squared, lambda a: np.power(a, 0.5)],
    ids=["xi", "log1p", "xi_squared", "sqrt"],
)
def test_lambda_array_keeps_the_bits_of_float_calls(g):
    scales = np.append(np.geomspace(1e-6, 1e6, 13), 1.0).reshape(2, 7)  # 1.0 twice
    batched = quadrature_mean(g, scales)
    assert batched.shape == (2, 7) and batched.dtype == np.float64
    one_by_one = [quadrature_mean(g, float(lam)) for lam in scales.flat]
    assert np.array_equal(_bits(batched).ravel(), _bits(one_by_one))


def test_float_lambda_gives_a_float_and_empty_gives_empty():
    assert type(quadrature_mean(xi, 2.0)) is float
    assert type(quadrature_mean(xi, np.float64(2.0))) is float
    assert quadrature_mean(xi, np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [-2.0, 0.0, math.nan, math.inf])
def test_bad_element_raises_naming_it(bad):
    with pytest.raises(ValueError, match=f"lambda must .*got {bad!r}"):
        quadrature_mean(xi, np.array([1.0, bad, 3.0]))


class TestNonFiniteIntegrals:
    def test_overflowing_outer_leg_raises(self):
        # lambda/u overflows to inf on the outer leg; the integral is not
        # finite, and pytest would otherwise turn the warnings into errors
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError, match=r"not finite at lambda=1e\+300"):
                quadrature_mean(xi, 1e300)

    def test_integrand_nan_on_part_of_the_range_raises(self):
        def g(a):
            return np.where(a < 2.0, a, np.nan)

        with pytest.raises(QuadratureError, match="not finite at lambda=1.0"):
            quadrature_mean(g, 1.0)

    def test_engine_names_the_failing_parameter(self):
        def f(p, x):
            return np.where(x < p, 1.0, np.nan)

        with pytest.raises(QuadratureError, match="not finite at x=0.5"):
            quadrature_module._unit_integrals(f, [2.0, 0.5], 1e-13, "x")


def test_imports_only_math_heapq_numpy_and_moments():
    # So concentration and the planners can import the oracle without an
    # import cycle through verify. __future__ is a compiler directive.
    tree = ast.parse(Path(quadrature_module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported - {"__future__"} <= {"math", "heapq", "numpy", ".moments"}
