"""The quadrature oracle, Monte Carlo drivers, and suite plumbing."""

import heapq
import json
import math
import tracemalloc

import numpy as np
import pytest

import cauchysketch.cauchy as cauchy_module
import cauchysketch.quadrature as quadrature_module
import cauchysketch.verify as verify_module
from cauchysketch.cauchy import (
    RngSeed,
    cdf_abs,
    ks_statistic,
    make_generator,
    sample_standard_cauchy,
    stable_combination,
)
from cauchysketch.concentration import (
    _u_star_small_upper,
    dominating_survival,
    plan_dimension_for_delta,
    xi_tail_bound,
)
from cauchysketch.metric import xi
from cauchysketch.moments import mu
from cauchysketch.quadrature import QuadratureError, quadrature_mean
from cauchysketch.specfun import ti2
from cauchysketch.verify import (
    SUITES,
    ConcentrationTrial,
    VerificationReport,
    _xi_squared,
    empirical_k_search,
    run_concentration_trial,
    run_suite,
    verify_max_bound,
)

SEED = RngSeed(20240817, 0)
# More than one chunk of the tails suite, and not a whole number of them
TAIL_TRIALS = 2 * verify_module._TAIL_CHUNK + 3001

# Frozen reference values, mpmath at 50 decimal digits.
MU_ONE = 1.2279471772995156799
EXISQ_ONE = 2.2173960713046813194
EXISQ_HALF = 1.3419679088902937016
ELOG1P_HALF = 0.626341499429429467


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda lam: dominating_survival(lam, 3.0),
        lambda lam: xi_tail_bound(lam, 3.0),
        lambda lam: _u_star_small_upper(0.25, lam),
        lambda lam: quadrature_mean(xi, lam),
        lambda lam: run_concentration_trial(lam, 0.25, 4, 4, SEED),
        lambda lam: empirical_k_search(lam, 0.25, 0.01, SEED, trials=4),
        lambda lam: verify_max_bound(4, lam, 0.01, 4, SEED),
    ],
    ids=[
        "dominating_survival",
        "xi_tail_bound",
        "u_star_small_upper",
        "quadrature_mean",
        "run_concentration_trial",
        "empirical_k_search",
        "verify_max_bound",
    ],
)
def test_lambda_must_be_finite_and_positive(call, lam):
    with pytest.raises(ValueError, match="lambda"):
        call(lam)


class TestQuadratureOracle:
    def test_matches_high_precision_reference(self):
        assert quadrature_mean(xi, 1.0) == pytest.approx(MU_ONE, abs=5e-13)
        assert quadrature_mean(_xi_squared, 1.0) == pytest.approx(EXISQ_ONE, abs=5e-12)
        assert quadrature_mean(_xi_squared, 0.5) == pytest.approx(EXISQ_HALF, abs=5e-12)
        assert quadrature_mean(np.log1p, 0.5) == pytest.approx(ELOG1P_HALF, abs=5e-13)

    def test_agrees_with_closed_form_across_decades(self):
        # the square-root cusp at 0 and the log growth at infinity are the
        # two hard features; the geometric ladder must hold ~1e-12 on both
        for j in range(-6, 7, 2):
            lam = 10.0**j
            assert quadrature_mean(xi, lam) == pytest.approx(mu(lam), abs=1e-10)

    @pytest.mark.parametrize("u", [-0.5, 0.25, 0.5, 0.75])
    def test_takes_a_parameterised_integrand(self, u):
        # E|X|^u = 1/cos(pi u/2) for |u| < 1: ln|X| has the hyperbolic
        # secant density, whose MGF this is.
        value = quadrature_mean(lambda a: np.power(a, u), 1.0)
        assert abs(value - 1.0 / math.cos(math.pi * u / 2.0)) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            quadrature_mean(xi, 0.0)
        with pytest.raises(ValueError):
            quadrature_mean(xi, math.inf)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(quadrature_module, "_PANEL_BUDGET", 8)
        with pytest.raises(QuadratureError):
            quadrature_mean(_xi_squared, 1e6)


def _panel_at_a_time(f, tol):
    # One integral of f over [0, 1] with one call of f per panel: the
    # reference for the batched ladder and the lockstep engine.
    def panel(a, b):
        half = 0.5 * (b - a)
        ys = f(0.5 * (a + b) + half * quadrature_module._NODES)
        kronrod = half * float(quadrature_module._W_KRONROD @ ys)
        gauss = half * float(quadrature_module._W_GAUSS @ ys)
        return kronrod, abs(kronrod - gauss)

    edges = [0.0] + [2.0**-j for j in range(quadrature_module._LADDER_DEPTH, -1, -1)]
    heap, total, err, count = [], 0.0, 0.0, 0
    for a, b in zip(edges[:-1], edges[1:]):
        value, e = panel(a, b)
        total += value
        err += e
        heapq.heappush(heap, (-e, count, a, b, value))
        count += 1
    while err > tol:
        neg_e, _, a, b, value = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        (left, e_left), (right, e_right) = panel(a, mid), panel(mid, b)
        total += left + right - value
        err += e_left + e_right + neg_e
        heapq.heappush(heap, (-e_left, count, a, mid, left))
        heapq.heappush(heap, (-e_right, count + 1, mid, b, right))
        count += 2
    return total


class TestKronrodRule:
    """The G7/K15 constants hold full double precision."""

    def test_gauss_rule_matches_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        gauss_nodes = quadrature_module._KRONROD_NODES[1::2]
        assert np.all(np.abs(gauss_nodes - nodes[::-1][:4]) <= 2 * np.spacing(nodes[::-1][:4]))
        # leggauss's own weights are up to 4.4 ulp from the exact ones.
        assert np.all(
            np.abs(quadrature_module._GAUSS_WEIGHTS - weights[::-1][:4])
            <= 5 * np.spacing(weights[::-1][:4])
        )

    def test_gauss_rule_is_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for node, weight in zip(
                quadrature_module._KRONROD_NODES[1::2], quadrature_module._GAUSS_WEIGHTS
            ):
                exact = mpmath.findroot(lambda x: mpmath.legendre(7, x), node)
                slope = mpmath.diff(lambda x: mpmath.legendre(7, x), exact)
                assert node == float(exact)
                assert weight == float(2 / ((1 - exact**2) * slope**2))

    @pytest.mark.parametrize("j", range(23))
    def test_kronrod_rule_is_exact_to_degree_22(self, j):
        exact = 0.0 if j % 2 else 2.0 / (j + 1)
        approx = float(quadrature_module._W_KRONROD @ quadrature_module._NODES**j)
        assert abs(approx - exact) <= 1e-15

    def test_ti2_by_quadrature(self):
        (quadrature,) = quadrature_module._unit_integrals(
            lambda x, s: np.arctan(x * s) / s, [100.0], 1e-13, "x"
        )
        assert abs(quadrature - ti2(100.0)) <= 2e-15


@pytest.mark.parametrize("g", [xi, np.log1p, _xi_squared], ids=["xi", "log1p", "xi_squared"])
def test_batched_ladder_keeps_every_bit(g):
    # The 49 ladder panels of nine scales in one integrand call, and each
    # refinement round of those still open in another, give every scale
    # the bits of one call per panel, on both legs of quadrature_mean.
    lams = [10.0**j for j in range(-4, 5)]
    legs = (
        lambda lam, x: g(lam * x) / (1.0 + x * x),
        lambda lam, u: g(lam / u) / (1.0 + u * u),
    )
    for leg in legs:
        batched = quadrature_module._unit_integrals(leg, lams, 5e-13, "lambda")
        for lam, value in zip(lams, batched):
            reference = _panel_at_a_time(lambda x: leg(lam, x), 5e-13)
            assert np.float64(value).view(np.uint64) == np.float64(reference).view(np.uint64)


class TestConcentrationDrivers:
    def test_trial_counts_and_determinism(self):
        a = run_concentration_trial(2.0, 0.25, 500, 400, SEED)
        b = run_concentration_trial(2.0, 0.25, 500, 400, SEED)
        assert (a.fail_upper, a.fail_lower) == (b.fail_upper, b.fail_lower)
        assert 0 <= a.fail_upper + a.fail_lower <= 400
        assert a.fail_fraction == (a.fail_upper + a.fail_lower) / 400

    def test_chunked_path_matches_single_shot(self, monkeypatch):
        whole = run_concentration_trial(1.0, 0.25, 64, 300, SEED)
        fill = cauchy_module._fill_cauchy
        sizes = []

        def recording(rng, out):
            sizes.append(out.size)
            return fill(rng, out)

        monkeypatch.setattr(cauchy_module, "_TILE", 640)  # 10 rows a tile
        monkeypatch.setattr(cauchy_module, "_fill_cauchy", recording)
        pieces = run_concentration_trial(1.0, 0.25, 64, 300, SEED)
        assert sizes == [640] * 30
        assert (whole.fail_upper, whole.fail_lower) == (pieces.fail_upper, pieces.fail_lower)

    def test_more_dimensions_fail_less(self):
        small = run_concentration_trial(2.0, 0.25, 16, 500, SEED)
        large = run_concentration_trial(2.0, 0.25, 2048, 500, SEED)
        assert large.fail_fraction < small.fail_fraction

    def test_trial_validation(self):
        with pytest.raises(ValueError):
            ConcentrationTrial(lam=1.0, epsilon=0.25, k=4, trials=10, fail_upper=11, fail_lower=0)
        with pytest.raises(ValueError):
            run_concentration_trial(0.0, 0.25, 4, 10, SEED)
        with pytest.raises(ValueError):
            run_concentration_trial(1.0, 0.25, 0, 10, SEED)


class TestEmpiricalKSearch:
    def test_deterministic(self):
        a = empirical_k_search(2.0, 0.25, 0.01, SEED, trials=400)
        b = empirical_k_search(2.0, 0.25, 0.01, SEED, trials=400)
        assert a == b

    def test_minimality(self):
        # one step below the found k must fail the target under the same
        # draws; the search shares prefixes so this is exactly its invariant
        k = empirical_k_search(2.0, 0.25, 0.01, SEED, trials=400)
        assert k >= 2

    def test_below_planner(self):
        k = empirical_k_search(2.0, 0.25, 0.01, SEED, trials=400)
        assert k <= plan_dimension_for_delta(0.25, 0.01).k

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(verify_module, "_K_LIMIT", 2)
        with pytest.raises(ArithmeticError, match="no k <= 2 "):
            empirical_k_search(2.0, 0.25, 0.001, SEED, trials=100)

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_k_search(2.0, 0.25, 0.5, SEED)
        with pytest.raises(ValueError):
            empirical_k_search(-1.0, 0.25, 0.01, SEED)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_holds_tiles_not_the_prefix_matrix(self, monkeypatch, lanes):
        # Each trial keeps one running sum and the newest segment one exit
        # count per column; the draws come a tile at a time, on the
        # caller's thread whatever the lane count.
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        trials = 1000
        # The first generator of a process imports numpy.random (about
        # 0.7 MB under tracemalloc), which is not the search's memory.
        make_generator(SEED)
        tracemalloc.start()
        try:
            k = empirical_k_search(2.0, 0.125, 0.01, SEED, trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 4 * cauchy_module._TILE * 8 + 4 * trials * 8
        assert trials * k * 8 > 2 * bound
        assert peak <= bound


def _prefix_matrix_k_search(lam, epsilon, target_fail, seed, trials):
    # Reference search: every segment of columns drawn whole, its prefix
    # sums appended to a trials x K matrix, and the exit fraction at k the
    # mean of that column's band-exit flags. Returns the k found and the
    # exit fraction at every k drawn.
    lo_band, hi_band = verify_module._band(lam, epsilon)
    rng = make_generator(seed)
    cum = np.empty((trials, 0))

    def extend(to_cols):
        nonlocal cum
        add = to_cols - cum.shape[1]
        draws = np.abs(sample_standard_cauchy(rng, trials * add).reshape(trials, add)) * lam
        block = np.cumsum(xi(draws), axis=1)
        if cum.shape[1]:
            block += cum[:, -1:]
        cum = np.concatenate([cum, block], axis=1)

    def fail(k):
        means = cum[:, k - 1] / k
        return float(np.mean((means > hi_band) | (means < lo_band)))

    k = 1
    extend(1)
    while fail(k) > target_fail:
        k *= 2
        extend(k)
    low, high = k // 2, k
    while high - low > 1:
        mid = (low + high) // 2
        if fail(mid) <= target_fail:
            high = mid
        else:
            low = mid
    return high, [fail(j) for j in range(1, k + 1)]


class TestTilesAndLanes:
    """Every Monte Carlo routine gives the bits of the default tile at any
    tile size, and the same bits whatever lanes the program may use, which
    none of them starts: each row is reduced from its own draws alone."""

    # (_TILE, _LANES); each variant allows two lanes from one draw on. At
    # 2^18 one tile holds both full chunks of the tails cases.
    VARIANTS = [(2**16, 1), (2**16, 2), (2**18, 1), (700, 1), (700, 2), (50, 2)]

    @staticmethod
    def _outputs():
        v = np.array([0.5, -2.0, 3.0, 1e-3, 7.0])
        return {
            "concentration": run_concentration_trial(1.0, 0.25, 64, 301, SEED),
            "maxbound": verify_max_bound(100, 1.0, 0.2, 1001, SEED),
            "stable_combination": stable_combination(v, make_generator(SEED), 1001).view(np.uint64).tolist(),
            # two chunks and a remainder, pooled in order; k = 2000 in its
            # concentration case is a row wider than a tile
            "tails": run_suite("tails", SEED, trials=TAIL_TRIALS).to_jsonl_lines(),
            "k_search": empirical_k_search(2.0, 0.25, 0.05, SEED, trials=301),
        }

    @pytest.mark.parametrize("tile, lanes", VARIANTS)
    def test_tiles_and_lanes_change_no_bits(self, monkeypatch, tile, lanes):
        reference = self._outputs()
        monkeypatch.setattr(cauchy_module, "_TILE", tile)
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        monkeypatch.setattr(cauchy_module, "_LANE_MIN_ELEMENTS", 1)
        assert self._outputs() == reference

    @pytest.mark.parametrize("tile, lanes", VARIANTS)
    def test_k_search_matches_the_prefix_matrix(self, monkeypatch, tile, lanes):
        k, fractions = _prefix_matrix_k_search(2.0, 0.25, 0.05, SEED, 301)
        assert fractions[k - 1] <= 0.05 < fractions[k - 2]
        monkeypatch.setattr(cauchy_module, "_TILE", tile)
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        monkeypatch.setattr(cauchy_module, "_LANE_MIN_ELEMENTS", 1)
        assert empirical_k_search(2.0, 0.25, 0.05, SEED, trials=301) == k

    def test_a_lane_never_starts_a_lane(self, monkeypatch, started_threads):
        # Two rows of 2^18 draws, their xi and a direct draw as large run
        # on the caller's thread, so a verify lane that runs them starts no
        # lane of its own.
        width = 2**18
        reference = run_concentration_trial(1.0, 0.25, width, 2, SEED)
        monkeypatch.setattr(cauchy_module, "_LANES", 2)
        trial = run_concentration_trial(1.0, 0.25, width, 2, SEED)
        xi(np.ones(width))
        sample_standard_cauchy(make_generator(SEED), width)
        assert started_threads == []
        assert (trial.fail_upper, trial.fail_lower) == (reference.fail_upper, reference.fail_lower)


class TestMaxBoundDriver:
    def test_case_shape_and_pass(self):
        case = verify_max_bound(100, 1.0, 0.01, 2000, SEED)
        assert case["pass"] in (True, False)
        assert case["gated"] is True
        assert case["tolerance"] == pytest.approx(3.0 * math.sqrt(0.01 * 0.99 / 2000))
        assert 0.0 <= case["oracle"] <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_max_bound(0, 1.0, 0.01, 100, SEED)
        with pytest.raises(ValueError):
            verify_max_bound(10, 1.0, 1.5, 100, SEED)


class TestReportPlumbing:
    def test_gated_pass_ignores_informational(self):
        report = VerificationReport(
            suite="demo",
            cases=[
                {"case": "a", "pass": True, "gated": True},
                {"case": "b", "pass": False, "gated": False},
            ],
            rng=SEED,
        )
        assert report.gated_pass
        report.cases.append({"case": "c", "pass": False, "gated": True})
        assert not report.gated_pass

    def test_jsonl_round_trip(self):
        report = run_suite("specfun", SEED)
        lines = [json.loads(line) for line in report.to_jsonl_lines()]
        assert len(lines) == len(report.cases) + 1
        summary = lines[-1]
        assert summary["summary"] is True
        assert summary["gated_pass"] is True
        assert summary["seed"] == SEED.seed

    def test_runtime_not_serialized(self, tmp_path):
        # wall-clock timing must never leak into the report, or reruns
        # stop being byte-identical
        report = run_suite("specfun", SEED)
        assert report.runtime_ms >= 0
        for line in report.to_jsonl_lines():
            assert "runtime" not in line

    def test_stability_has_no_deterministic_cases(self):
        # trials=0 runs only the deterministic cases, and stability has none.
        report = run_suite("stability", SEED, trials=0)
        assert report.cases == []
        assert report.gated_pass
        assert [json.loads(line) for line in report.to_jsonl_lines()] == [
            {"cases": 0, "gated_pass": True, "passed": 0, "seed": SEED.seed, "stream": SEED.stream_id,
             "suite": "stability", "summary": True}
        ]

    def test_reports_byte_identical(self):
        first = run_suite("stability", SEED, trials=2000).to_jsonl_lines()
        assert run_suite("stability", SEED, trials=2000).to_jsonl_lines() == first


class TestSuites:
    def test_registry(self):
        assert set(SUITES) == {
            "specfun",
            "moments",
            "stability",
            "tails",
            "maxbound",
            "concentration",
            "planner",
        }

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope", SEED)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_suite("stability", SEED, trials=-1)

    def test_trials_zero_skips_monte_carlo(self):
        deterministic = run_suite("stability", SEED, trials=0)
        sampled = run_suite("stability", SEED, trials=2000)
        assert len(deterministic.cases) < len(sampled.cases)
        assert deterministic.gated_pass

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_trials_zero_is_the_deterministic_prefix(self, name):
        # --trials 0 yields exactly the cases every size yields before its
        # Monte Carlo ones
        deterministic = run_suite(name, SEED, trials=0).to_jsonl_lines()[:-1]
        sampled = run_suite(name, SEED, trials=200).to_jsonl_lines()[:-1]
        assert deterministic == sampled[: len(deterministic)]

    @pytest.mark.parametrize(
        "name, size",
        [
            ("specfun", 0),
            ("moments", 0),
            ("stability", 100_000),
            ("tails", 1_000_000),
            ("maxbound", 10_000),
            ("concentration", 1000),
            ("planner", 1000),
        ],
    )
    def test_default_size(self, name, size):
        default = run_suite(name, SEED).to_jsonl_lines()
        assert run_suite(name, SEED, trials=size).to_jsonl_lines() == default

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_all_suites_pass_at_reduced_size(self, name):
        # full-size runs live in the acceptance tests; this keeps every
        # suite body exercised quickly
        report = run_suite(name, SEED, trials=2000)
        failing = [c["case"] for c in report.cases if c.get("gated", True) and not c["pass"]]
        assert report.gated_pass, failing

    @pytest.mark.parametrize("seed", [12, 19, 23])
    def test_stability_gates_hold_family_wise(self, seed):
        # At 1% per gate, these seeds failed one of the 11 KS gates at
        # full size; at a family-wise 1% (0.01/11 per gate) they pass.
        report = run_suite("stability", RngSeed(seed, 0))
        failing = [c["case"] for c in report.cases if not c["pass"]]
        assert report.gated_pass, failing

    def test_stability_holds_two_blocks(self):
        # Each vector's n x dim Cauchy draws come a tile at a time, so the
        # suite holds one tile and a few n-float arrays (the KS
        # statistic's sort and CDF among them), never a whole draw array;
        # each case carries its own vector's statistic.
        n = 100_000
        tracemalloc.start()
        try:
            report = run_suite("stability", SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vec_rng = make_generator(verify_module._subseed(SEED, 103))
        dims = []
        for i in range(10):
            dim = int(vec_rng.integers(2, 50))
            v = vec_rng.standard_normal(dim) * np.exp(vec_rng.uniform(-2.0, 2.0, size=dim))
            samples = stable_combination(v, make_generator(verify_module._subseed(SEED, 200 + i)), n)
            case = report.cases[i]
            assert case["case"] == f"1-stability KS, vector {i} (dim {dim}, n={n})"
            scale = float(np.sum(np.abs(v)))
            assert case["oracle"] == ks_statistic(np.abs(samples) / scale, cdf_abs)
            dims.append(dim)
        bound = 4 * cauchy_module._TILE * 8 + 8 * n * 8
        assert max(dims) * n * 8 > 2 * bound  # one whole draw array would exceed it
        assert peak <= bound

    def test_tails_holds_chunks_not_an_array_of_n(self):
        # Each case reduces its 10^6 draws a chunk at a time to exceedance
        # counts or to a sum and a centred sum of squares, so the suite
        # holds a few chunk-sized arrays and 16 rows of partials;
        # one array of n floats (8 MB) alone would exceed the bound.
        n = 1_000_000
        tracemalloc.start()
        try:
            report = run_suite("tails", SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.gated_pass
        bound = 12 * verify_module._TAIL_CHUNK * 8
        assert n * 8 > bound
        assert peak <= bound

    def test_tails_matches_the_materialised_values(self):
        # Two full chunks and a remainder. The tail frequencies keep the
        # bits of np.mean over all n values; the MGF-splitting mean and
        # standard error, pooled chunk by chunk, agree with np.mean and
        # np.std to rounding.
        n = TAIL_TRIALS
        cases = {c["case"]: c for c in run_suite("tails", SEED, trials=n).cases}

        def draws(offset, lam):
            values = sample_standard_cauchy(make_generator(verify_module._subseed(SEED, offset)), n)
            return xi(lam * np.abs(values))

        checked = 0
        for idx, lam in enumerate((0.1, 1.0, 10.0)):
            values = draws(300 + idx, lam)
            for t in (2.0, 2.5, 3.0, 5.0, 10.0, 2.0 * math.log1p(math.sqrt(lam))):
                case = cases[f"MC tail lambda={lam:g} t={t:.4g} (n={n})"]
                assert case["oracle"] == float(np.mean(values > t))
                checked += 1
        for jdx, (lam, u) in enumerate(((0.5, 0.1), (0.5, 0.4), (1.0, 0.1), (1.0, 0.4))):
            y = u * draws(400 + jdx, lam)
            values = np.where(y <= 1.0, np.exp(y), 0.0) - 1.0 - y - y * y
            case = cases[f"MGF splitting lambda={lam:g} u={u:g} (n={n})"]
            assert case["oracle"] == pytest.approx(float(np.mean(values)), rel=1e-13, abs=0)
            se = float(np.std(values)) / math.sqrt(n)
            assert case["tolerance"] == pytest.approx(3.0 * se, rel=1e-13, abs=0)
            checked += 1
        assert checked == 22

    def test_different_seeds_change_monte_carlo(self):
        a = run_suite("maxbound", SEED, trials=500)
        b = run_suite("maxbound", RngSeed(99, 0), trials=500)
        assert a.to_jsonl_lines() != b.to_jsonl_lines()
