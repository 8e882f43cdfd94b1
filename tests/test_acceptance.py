"""End-to-end acceptance gates, one test per guarantee the library ships.

Each test re-derives its claim from the library at full sample sizes,
with the tolerances and wall-clock budgets the guarantees are stated at.
`pytest -v tests/test_acceptance.py` prints one pass/fail line per gate.
"""

import math
import time

import numpy as np
import pytest

from cauchysketch.cauchy import (
    RngSeed,
    cdf_abs,
    ks_critical_value,
    ks_statistic,
    make_generator,
    sample_standard_cauchy,
    stable_combination,
)
from cauchysketch.cli import main as cli_main
from cauchysketch.concentration import (
    dominating_survival,
    plan_dimension_for_delta,
    xi_tail_bound,
)
from cauchysketch.metric import _xi_small_envelope, rho, xi
from cauchysketch.moments import expected_log1p, mu, mu_inverse, second_moment_ratio_bound
from cauchysketch.quadrature import quadrature_mean
from cauchysketch.specfun import ti2
from cauchysketch.verify import (
    empirical_k_search,
    run_concentration_trial,
    verify_max_bound,
)

SEED = RngSeed(20240817, 0)


def _decade_grid():
    gen = make_generator(RngSeed(20240817, 10))
    lams = [10.0**j for j in range(-4, 5)]
    lams += list(np.exp(gen.uniform(math.log(1e-4), math.log(1e4), size=50)))
    return lams


def test_01_moment_closed_forms_match_quadrature():
    start = time.perf_counter()
    for lam in _decade_grid():
        assert abs(mu(lam) - quadrature_mean(xi, lam)) <= 1e-9
        assert abs(expected_log1p(lam) - quadrature_mean(np.log1p, lam)) <= 1e-8
    assert time.perf_counter() - start < 10.0


def test_02_variance_and_ratio_bounds():
    def xi_squared(a):
        return np.square(xi(a))

    for lam in _decade_grid():
        variance = quadrature_mean(xi_squared, lam) - mu(lam) ** 2
        assert variance <= math.pi**2 / 2.0 + 1e-9
    for lam in np.geomspace(1e-4, 2.0, 60):
        ratio = quadrature_mean(xi_squared, float(lam)) / float(lam)
        assert ratio <= second_moment_ratio_bound(float(lam))


def test_03_special_function_identities():
    start = time.perf_counter()
    xs = np.linspace(0.05, 0.95, 19)
    for x in xs:
        for y in xs:
            lhs = math.atanh(x) + math.atanh(y)
            rhs = math.atanh((x + y) / (1.0 + x * y))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    for x in np.geomspace(1e-3, 1e3, 25):
        assert abs(math.atan(x) + math.atan(1.0 / x) - math.pi / 2.0) <= 1e-14
    for x in (2.0, 10.0, 100.0):
        assert abs(ti2(x) - (ti2(1.0 / x) + math.pi / 2.0 * math.log(x))) <= 1e-12
    for lam in np.geomspace(1e-4, 1e4, 41):
        lam = float(lam)
        f = ti2(lam) - math.log(lam) * math.atan(lam)
        f_inv = ti2(1.0 / lam) - math.log(1.0 / lam) * math.atan(1.0 / lam)
        assert abs(f - f_inv) <= 1e-11
    assert time.perf_counter() - start < 5.0


def test_04_one_stability_of_combinations():
    start = time.perf_counter()
    n = 100_000
    critical = ks_critical_value(n, 0.01)
    gen = make_generator(RngSeed(20240817, 20))
    for i in range(10):
        dim = int(gen.integers(2, 51))
        v = gen.standard_normal(dim)
        draws = stable_combination(v, make_generator(RngSeed(20240817, 21 + i)), size=n)
        scaled = np.sort(np.abs(draws) / np.sum(np.abs(v)))
        assert ks_statistic(scaled, cdf_abs) < critical
    assert time.perf_counter() - start < 10.0


def test_05_tail_bound_dominates():
    start = time.perf_counter()

    def valid(lam, t):
        return t >= 2.0 or t >= 2.0 * math.log1p(math.sqrt(lam))

    for lam in np.geomspace(1e-3, 1e3, 25):
        lam = float(lam)
        for t in sorted({2.0, 2.25, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0, 40.0,
                         2.0 * math.log1p(math.sqrt(lam))}):
            if valid(lam, t):
                assert dominating_survival(lam, t) <= xi_tail_bound(lam, t)

    n = 1_000_000
    for idx, lam in enumerate((0.1, 1.0, 10.0)):
        draws = sample_standard_cauchy(make_generator(RngSeed(20240817, 30 + idx)), n)
        y = xi(lam * np.abs(draws))
        for t in (2.0, 3.0, 5.0, 10.0):
            bound = xi_tail_bound(lam, t)
            se = math.sqrt(bound * (1.0 - bound) / n)
            assert np.mean(y > t) <= bound + 3.0 * se
    assert time.perf_counter() - start < 30.0


def test_06_deviation_sandwich():
    for a in (1.05, 1.1, 1.25):
        eps = a - 1.0
        for lam in (1.0 / math.sqrt(a), 1.0, 5.0, 100.0):
            gap = mu(a * lam) - mu(lam)
            assert gap < eps - 1e-12
            assert gap > eps / 4.0 * (1.0 - eps) + 1e-12


def test_07_planner_upper_bounds_empirical_dimension():
    start = time.perf_counter()
    planned = plan_dimension_for_delta(0.25, 1e-2).k
    for idx, lam in enumerate((2.0, 0.1)):
        k_hat = empirical_k_search(lam, 0.25, 0.01, RngSeed(20240817, 40 + idx),
                                   trials=1000)
        assert k_hat <= planned
        # the search guarantees <= 1% on its own draws; replaying on fresh
        # draws is a binomial re-test, so allow its 3-sigma noise
        replay = run_concentration_trial(lam, 0.25, k_hat, 1000,
                                         RngSeed(20240817, 50 + idx))
        assert replay.fail_fraction <= 0.01 + 3.0 * math.sqrt(0.01 * 0.99 / 1000)
    assert time.perf_counter() - start < 120.0


def test_08_max_of_iid_threshold_holds():
    start = time.perf_counter()
    for idx, (k, delta) in enumerate(((100, 0.01), (1000, 0.001))):
        case = verify_max_bound(k, 1.0, delta, 10_000, RngSeed(20240817, 60 + idx))
        assert case["pass"], case
    assert time.perf_counter() - start < 30.0


def test_09_metric_axioms_and_envelope():
    for k in (1, 7, 64):
        gen = make_generator(RngSeed(20240817, 70 + k))
        for _ in range(1000):
            x, y, z = gen.standard_cauchy((3, k))
            assert rho(x, y) <= rho(x, z) + rho(z, y) + 1e-12
            assert rho(x, y) == rho(y, x)
            assert rho(x, x) == 0.0
    grid = np.geomspace(1e-9, 1e3, 120)
    for a in grid:
        for b in grid:
            assert xi(float(a + b)) <= xi(float(a)) + xi(float(b)) + 1e-15
    for a in np.geomspace(1e-12, 1.0 / 6.0 * (1.0 - 1e-12), 400):
        lo, hi = _xi_small_envelope(float(a))
        assert lo <= xi(float(a)) <= hi


def test_10_sketch_determinism_and_calibration_inverse(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("0.0,0.0\n1.0,2.5\n-0.5,1.0\n")
    blobs = []
    for name in ("a.bin", "b.bin"):
        out = str(tmp_path / name)
        assert cli_main(["sketch", "--input", str(points), "--output", out,
                         "--epsilon", "0.25", "--k", "512", "--seed", "3"]) == 0
        blobs.append(open(out, "rb").read() + open(out + ".json", "rb").read())
    assert blobs[0] == blobs[1]

    gen = make_generator(RngSeed(20240817, 80))
    for lam in np.exp(gen.uniform(math.log(1e-6), math.log(1e6), size=1000)):
        lam = float(lam)
        assert abs(mu_inverse(mu(lam)) - lam) <= 1e-10 * lam
