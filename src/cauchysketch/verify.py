"""Verification suites and Monte Carlo drivers for every closed form.

Named suites gather one oracle comparison per closed form. The moment
formulas are checked against the adaptive Gauss-Kronrod oracle of
`quadrature`, one call per integrand over every scale a suite checks it
at. The rest is Monte Carlo: concentration trials, empirical dimension
search (common random numbers across candidate k) and max-of-iid
threshold checks. Statistical gates pass at bound + 3 standard errors;
the upper tail below 8 eps^2 is measured but never gated (no proven bound
exists there). Everything is deterministic given (seed, trials).
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from .cauchy import (
    RngSeed,
    _check_count,
    _map_rows,
    cdf_abs,
    ks_critical_value,
    ks_statistic,
    make_generator,
    sample_standard_cauchy,
    stable_combination,
    survival_abs,
)
from .concentration import (
    _max_threshold,
    _scale_cutoffs,
    dominating_survival,
    h_rate,
    plan_dimension_for_delta,
    xi_tail_bound,
)
from .metric import xi
from .moments import (
    _check_lambda,
    deviations,
    expected_log1p,
    mu,
    mu_inverse,
    mu_small_envelope,
    second_moment_ratio_bound,
    second_moment_upper,
)
from .quadrature import _unit_integrals, quadrature_mean
from .specfun import ti2

__all__ = [
    "VerificationReport",
    "ConcentrationTrial",
    "run_concentration_trial",
    "empirical_k_search",
    "verify_max_bound",
    "SUITES",
    "run_suite",
]

# Largest k empirical_k_search tries before giving up.
_K_LIMIT = 32768

# Draws in one chunk of a tails case. Each case reduces its n draws a chunk
# at a time, to exceedance counts or to a sum and a centred sum of squares,
# so the suite holds a chunk per lane and n / _TAIL_CHUNK rows of partials,
# never an array of n. Its own constant, not cauchy._TILE, so that no
# report depends on the tile size.
_TAIL_CHUNK = 2**16


def _xi_squared(a: np.ndarray) -> np.ndarray:
    return np.square(xi(a))


@dataclass(frozen=True)
class ConcentrationTrial:
    """Band-exit counts of the sketch mean at one (lambda, epsilon, k)."""

    lam: float
    epsilon: float
    k: int
    trials: int
    fail_upper: int
    fail_lower: int

    def __post_init__(self) -> None:
        if not 0 <= self.fail_upper <= self.trials or not 0 <= self.fail_lower <= self.trials:
            raise ValueError("failure counts must lie in [0, trials]")

    @property
    def fail_fraction(self) -> float:
        return (self.fail_upper + self.fail_lower) / self.trials


def _band(lam: float, epsilon: float) -> tuple[float, float]:
    # Large scales get the asymmetric mu band of the two-sided guarantee;
    # below sqrt(1+eps) the target is the symmetric (1 +- eps) mu band.
    # For lambda <= 8 eps^2 the upper side of that band is informational
    # only (no proven bound), but it is still the quantity to measure.
    if lam >= _scale_cutoffs(epsilon)[0]:
        return mu(lam / (1.0 + epsilon)), mu((1.0 + epsilon) * lam)
    center = mu(lam)
    return (1.0 - epsilon) * center, (1.0 + epsilon) * center


def _scaled_abs(draws: np.ndarray, lam: float) -> np.ndarray:
    # lam * |draws|, computed in the draws' own buffer.
    np.abs(draws, out=draws)
    draws *= lam
    return draws


def run_concentration_trial(
    lam: float, epsilon: float, k: int, trials: int, seed: RngSeed
) -> ConcentrationTrial:
    """Simulate `trials` sketch means (1/k) sum_i xi(lambda |X_i|) and
    count exits above and below the regime band."""
    lam = _check_lambda(lam, positive=True)
    k = _check_count("k", k, 1)
    trials = _check_count("trials", trials, 1)
    lo, hi = _band(lam, epsilon)
    means = np.empty(trials)
    _map_rows(
        make_generator(seed),
        k,
        means,
        lambda draws, dst: np.mean(xi(_scaled_abs(draws, lam)), axis=1, out=dst),
    )
    fail_upper = int(np.count_nonzero(means > hi))
    fail_lower = int(np.count_nonzero(means < lo))
    return ConcentrationTrial(
        lam=lam, epsilon=epsilon, k=k, trials=trials, fail_upper=fail_upper, fail_lower=fail_lower
    )


def empirical_k_search(
    lam: float,
    epsilon: float,
    target_fail: float,
    seed: RngSeed,
    trials: int = 1000,
) -> int:
    """Smallest k <= 32768 whose band-exit fraction is <= target_fail at
    `trials`; ArithmeticError when there is none.

    Doubling then bisection. All candidate k share per-trial draw prefixes
    (common random numbers): each trial's xi values are accumulated once,
    the mean at any k is a prefix mean, and the failure fraction becomes
    monotone in k in practice, making the bisection well posed. Every k
    the search tests after drawing columns up to K lies in (K/2, K], so it
    keeps each trial's running sum and, per column of that newest segment,
    the number of trials outside the band.
    """
    target_fail = float(target_fail)
    if not 0.0 < target_fail <= 0.1:
        raise ValueError(f"target_fail must be in (0, 0.1], got {target_fail!r}")
    lam = _check_lambda(lam, positive=True)
    trials = _check_count("trials", trials, 1)
    lo_band, hi_band = _band(lam, epsilon)
    rng = make_generator(seed)
    sums = np.zeros(trials)
    drawn = 0  # columns drawn so far
    first = 0  # the first column of the newest segment
    exits = np.zeros(0, dtype=np.intp)
    lock = threading.Lock()

    def extend(to_cols: int) -> None:
        nonlocal drawn, first, exits
        columns = np.arange(drawn + 1, to_cols + 1, dtype=np.float64)
        counts = np.zeros(columns.size, dtype=np.intp)

        def segment(draws, running) -> None:
            prefix = xi(_scaled_abs(draws, lam))
            np.cumsum(prefix, axis=1, out=prefix)
            prefix += running[:, None]
            running[:] = prefix[:, -1]
            prefix /= columns  # the trials' means at every k of the segment
            hits = np.count_nonzero((prefix > hi_band) | (prefix < lo_band), axis=0)
            with lock:  # the two lanes add into one array
                np.add(counts, hits, out=counts)

        _map_rows(rng, columns.size, sums, segment)
        drawn, first, exits = to_cols, drawn, counts

    def fail_fraction(k: int) -> float:
        # the bits of np.mean over the trials' band-exit flags at k
        return int(exits[k - 1 - first]) / trials

    k = 1
    extend(1)
    while fail_fraction(k) > target_fail:
        k *= 2
        if k > _K_LIMIT:
            raise ArithmeticError(f"no k <= {_K_LIMIT} reached target_fail={target_fail}")
        extend(k)
    if k == 1:
        return 1
    low, high = k // 2, k
    while high - low > 1:
        mid = (low + high) // 2
        if fail_fraction(mid) <= target_fail:
            high = mid
        else:
            low = mid
    return high


def verify_max_bound(k: int, lam: float, delta: float, trials: int, seed: RngSeed) -> dict:
    """Check the max-of-iid threshold empirically; returns one report case.

    The exceedance frequency of lambda max_i |X_i| over the planned
    threshold lambda/tan(pi delta/(2 k e)) must be at most
    delta + 3 standard errors.
    """
    k = _check_count("k", k, 1)
    delta = float(delta)
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta!r}")
    lam = _check_lambda(lam, positive=True)
    trials = _check_count("trials", trials, 1)
    _, threshold = _max_threshold(k, delta)
    maxima = np.empty(trials)
    _map_rows(
        make_generator(seed),
        k,
        maxima,
        lambda draws, dst: np.max(np.abs(draws, out=draws), axis=1, out=dst),
    )
    # lambda scales maxima and threshold alike; compare at unit scale.
    frequency = int(np.count_nonzero(maxima > threshold)) / trials
    se = math.sqrt(delta * (1.0 - delta) / trials)
    name = f"max-of-iid k={k} lambda={lam:g} delta={delta:g} t={lam * threshold:.6g}"
    return _bound_case(name, frequency, delta, 3.0 * se)


@dataclass(frozen=True)
class VerificationReport:
    """One suite's worth of oracle comparisons.

    Each case records the closed form (or bound), the oracle value, their
    residual, the tolerance, and the verdict; gated=False marks
    informational cases that never fail a run. runtime_ms is a local
    measurement and deliberately stays out of the serialized file so
    reruns with identical seeds are byte-identical.
    """

    suite: str
    cases: list
    rng: RngSeed
    runtime_ms: int = 0

    @property
    def gated_pass(self) -> bool:
        return all(case["pass"] for case in self.cases if case.get("gated", True))

    def to_jsonl_lines(self) -> list[str]:
        lines = [json.dumps({"suite": self.suite, **case}, sort_keys=True) for case in self.cases]
        summary = {
            "suite": self.suite,
            "summary": True,
            "cases": len(self.cases),
            "passed": sum(1 for case in self.cases if case["pass"]),
            "gated_pass": self.gated_pass,
            "seed": self.rng.seed,
            "stream": self.rng.stream_id,
        }
        lines.append(json.dumps(summary, sort_keys=True))
        return lines


def _det_case(name: str, closed_form: float, oracle: float, tol: float) -> dict:
    residual = closed_form - oracle
    return {
        "case": name,
        "closed_form": closed_form,
        "oracle": oracle,
        "residual": residual,
        "tolerance": tol,
        "pass": abs(residual) <= tol,
        "gated": True,
    }


def _bound_case(
    name: str, value: float, bound: float, slack: float, gated: bool = True
) -> dict:
    # one-sided: value must stay at or below bound + slack
    return {
        "case": name,
        "closed_form": bound,
        "oracle": value,
        "residual": value - bound,
        "tolerance": slack,
        "pass": value <= bound + slack,
        "gated": gated,
    }


def _subseed(seed: RngSeed, offset: int) -> RngSeed:
    return RngSeed(seed.seed, seed.stream_id + offset)


def _suite_specfun(seed: RngSeed, n: int = 0):
    worst = max(
        abs(math.atan(x) + math.atan(1.0 / x) - math.pi / 2.0) for x in np.logspace(-3, 3, 25)
    )
    yield _bound_case("arctan inversion identity, 25-point log grid", worst, 0.0, 1e-14)

    # Ti_2(x) = int_0^1 arctan(x s)/s ds; Kronrod nodes are interior, so
    # s = 0 is never evaluated.
    xs = (0.5, 2.0, 10.0, 100.0)
    integrals = _unit_integrals(lambda x, s: np.arctan(x * s) / s, xs, 1e-13, "x")
    for x, quadrature in zip(xs, integrals):
        yield _det_case(f"ti2 vs quadrature at x={x:g}", ti2(x), quadrature, 1e-12)

    yield _det_case("ti2(1) against its known value", ti2(1.0), 0.9159655941772190, 1e-13)


def _oracle_at(g, lams: list) -> dict:
    # quadrature_mean of g at each scale in lams, keyed by scale, from one
    # call over all of them
    return dict(zip(lams, quadrature_mean(g, np.array(lams)).tolist()))


def _suite_moments(seed: RngSeed, n: int = 0):
    decades = [10.0**j for j in range(-4, 5)]
    rng = make_generator(_subseed(seed, 101))
    randoms = [float(v) for v in np.exp(rng.uniform(math.log(1e-4), math.log(1e4), size=50))]
    ratio_scales = [float(lam) for lam in np.linspace(0.05, 2.0, 16)]
    envelope_scales = [1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0]
    mean_xi = _oracle_at(xi, decades + randoms + envelope_scales)
    mean_log1p = _oracle_at(np.log1p, decades + randoms)
    second = _oracle_at(_xi_squared, decades + ratio_scales)

    mu_at = dict(zip(decades + randoms, mu(np.array(decades + randoms)).tolist()))

    # mu against the atanh form the paper prints, on a grid below 1e154,
    # where the paper's lambda^2 still fits in a float.
    grid = np.logspace(-300, 150, 451)
    printed = np.array(
        [
            math.atanh(math.sqrt(2.0 * lam) / (1.0 + lam)) + 0.5 * math.log1p(lam * lam)
            for lam in grid.tolist()
        ]
    )
    worst = float(np.max(np.abs(mu(grid) - printed) / printed))
    yield _bound_case("mu vs the paper's atanh form, 451-point log grid", worst, 0.0, 1e-14)

    for lam in decades:
        yield _det_case(f"mu vs quadrature at lambda={lam:g}", mu_at[lam], mean_xi[lam], 1e-9)
        yield _det_case(
            f"expected_log1p vs quadrature at lambda={lam:g}",
            expected_log1p(lam),
            mean_log1p[lam],
            1e-8,
        )
    worst_mu = max(abs(mu_at[lam] - mean_xi[lam]) for lam in randoms)
    worst_log = max(abs(expected_log1p(lam) - mean_log1p[lam]) for lam in randoms)
    yield _bound_case("mu vs quadrature, 50 random scales", worst_mu, 0.0, 1e-9)
    yield _bound_case("expected_log1p vs quadrature, 50 random scales", worst_log, 0.0, 1e-8)

    half_pi_sq = math.pi * math.pi / 2.0
    for lam in decades:
        yield _bound_case(
            f"variance bound at lambda={lam:g}", second[lam] - mu_at[lam] ** 2, half_pi_sq, 1e-9
        )
        yield _bound_case(
            f"second moment below closed-form bound at lambda={lam:g}",
            second[lam],
            second_moment_upper(lam),
            1e-9,
        )
    for lam in ratio_scales:
        yield _bound_case(
            f"second-moment ratio bound at lambda={lam:g}",
            second[lam] / lam,
            second_moment_ratio_bound(lam),
            1e-9,
        )

    for lam in envelope_scales:
        low, high = mu_small_envelope(lam)
        value = mean_xi[lam]
        yield {
            "case": f"mu small-scale envelope at lambda={lam:g}",
            "closed_form": high,
            "oracle": value,
            "residual": max(low - value, value - high),
            "tolerance": 1e-12,
            "pass": low - 1e-12 <= value <= high + 1e-12,
            "gated": True,
        }

    for a in (1.05, 1.1, 1.25):
        eps = a - 1.0
        floor = eps / 4.0 * (1.0 - eps)
        for lam in (1.0 / math.sqrt(a), 1.0, 5.0, 100.0):
            delta_plus = deviations(lam, eps).delta_plus
            yield {
                "case": f"deviation sandwich a={a:g} lambda={lam:g}",
                "closed_form": floor,
                "oracle": delta_plus,
                "residual": delta_plus - floor,
                "tolerance": eps - floor,
                "pass": floor + 1e-12 <= delta_plus <= eps - 1e-12,
                "gated": True,
            }

    rng = make_generator(_subseed(seed, 102))
    lams = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=1000))
    round_trip = mu_inverse(mu(lams))
    worst_rel = float(np.max(np.abs(round_trip - lams) / lams))
    yield _bound_case("mu_inverse round trip, 1000 random scales", worst_rel, 0.0, 1e-10)


def _suite_stability(seed: RngSeed, n: int = 100_000):
    grid = np.logspace(-3, 3, 20)
    worst = max(abs(cdf_abs(t) + survival_abs(t) - 1.0) for t in grid)
    yield _bound_case("cdf_abs + survival_abs = 1 on log grid", worst, 0.0, 1e-15)
    if not n:
        return
    # 10 combination statistics and 1 raw-draw statistic share a
    # family-wise level of 1% (Bonferroni), not 1% each.
    critical = ks_critical_value(n, 0.01 / 11)
    vec_rng = make_generator(_subseed(seed, 103))
    for i in range(10):
        dim = int(vec_rng.integers(2, 50))
        v = vec_rng.standard_normal(dim) * np.exp(vec_rng.uniform(-2.0, 2.0, size=dim))
        samples = stable_combination(v, make_generator(_subseed(seed, 200 + i)), size=n)
        # |samples| / ||v||_1 in the samples' own buffer
        np.abs(samples, out=samples)
        samples /= float(np.sum(np.abs(v)))
        statistic = ks_statistic(samples, cdf_abs)
        name = f"1-stability KS, vector {i} (dim {dim}, n={n})"
        yield _bound_case(name, statistic, critical, 0.0)
    direct = sample_standard_cauchy(make_generator(_subseed(seed, 104)), n)
    np.abs(direct, out=direct)
    yield _bound_case(
        f"KS of raw |X| draws vs cdf_abs (n={n})", ks_statistic(direct, cdf_abs), critical, 0.0
    )


def _suite_tails(seed: RngSeed, n: int = 1_000_000):
    lambdas = (0.1, 1.0, 10.0)
    # Every t is >= 2 or the threshold 2 ln(1 + sqrt(lambda)) itself, so
    # xi_tail_bound has an envelope at each one.
    t_grid = {lam: [2.0, 2.5, 3.0, 5.0, 10.0, 2.0 * math.log1p(math.sqrt(lam))] for lam in lambdas}
    for lam in lambdas:
        worst = max(dominating_survival(lam, t) - xi_tail_bound(lam, t) for t in t_grid[lam])
        yield _bound_case(f"exact dominating survival <= bound, lambda={lam:g}", worst, 0.0, 0.0)
    if not n:
        return
    for idx, lam in enumerate(lambdas):
        ts = t_grid[lam]

        def exceedances(draws, _scratch, dst):
            # per chunk, how many of its xi values exceed each t
            values = xi(_scaled_abs(draws, lam), out=draws)
            for col, t in enumerate(ts):
                dst[:, col] = np.count_nonzero(values > t, axis=1)

        counts = _map_chunks(_subseed(seed, 300 + idx), n, len(ts), exceedances, np.intp)
        # the counts add up exactly: the bits of np.mean(values > t)
        for t, count in zip(ts, counts.sum(axis=0).tolist()):
            bound = xi_tail_bound(lam, t)
            se = math.sqrt(bound * (1.0 - bound) / n)
            yield _bound_case(
                f"MC tail lambda={lam:g} t={t:.4g} (n={n})", count / n, bound, 3.0 * se
            )
    for jdx, (lam, u) in enumerate(((0.5, 0.1), (0.5, 0.4), (1.0, 0.1), (1.0, 0.4))):

        def split_sums(draws, scratch, dst):
            # per chunk, the sum of the differences and the sum of their
            # squared deviations from the chunk's own mean
            _mgf_split(xi(_scaled_abs(draws, lam), out=draws), u, scratch)
            np.sum(scratch, axis=1, out=dst[:, 0])
            scratch -= dst[:, :1] / scratch.shape[1]
            np.square(scratch, out=scratch)
            np.sum(scratch, axis=1, out=dst[:, 1])

        mean, se = _pooled_mean_and_se(_map_chunks(_subseed(seed, 400 + jdx), n, 2, split_sums), n)
        yield _bound_case(f"MGF splitting lambda={lam:g} u={u:g} (n={n})", mean, 0.0, 3.0 * se)
    # Open case: upper tail below 8 eps^2, measured but never gated; its
    # 500 trials at k = 2000 do not follow n.
    eps = 0.25
    trial = run_concentration_trial(0.25, eps, 2000, 500, _subseed(seed, 500))
    yield _bound_case(
        f"unproven upper tail lambda=0.25 eps={eps} k=2000 exit fraction",
        trial.fail_upper / trial.trials,
        1.0,
        0.0,
        gated=False,
    )


def _map_chunks(seed: RngSeed, n: int, columns: int, fn, dtype=np.float64) -> np.ndarray:
    """The (rows, columns) partials fn(chunk, scratch, dst) writes over the
    first n draws of seed's stream, one row per chunk: rows of _TAIL_CHUNK
    draws in stream order, then a last row of the n mod _TAIL_CHUNK draws
    left.

    fn gets an (r, width) array of whole chunks, which it may overwrite, a
    scratch array of its shape, and their (r, columns) rows of the
    partials; it must reduce each chunk from its own draws alone (see
    cauchy._map_rows). Each lane allocates its scratch once and reuses it,
    as _map_rows does its chunk buffer. With xi's values and the
    differences in new 512 KB arrays per chunk instead, a tails run at
    default trials took 27,000 page faults against 5,600, and 15-20% more
    CPU time (one CPU of a 2-vCPU x86-64 VM).
    """
    rng = make_generator(seed)
    full, rest = divmod(n, _TAIL_CHUNK)
    partials = np.empty((full + (rest > 0), columns), dtype=dtype)
    lane = threading.local()

    def reduce(draws, dst):
        scratch = getattr(lane, "scratch", None)
        if scratch is None or scratch.size < draws.size:
            scratch = lane.scratch = np.empty(draws.size)
        fn(draws, scratch[: draws.size].reshape(draws.shape), dst)

    _map_rows(rng, _TAIL_CHUNK, partials[:full], reduce)
    if rest:
        _map_rows(rng, rest, partials[full:], reduce)
    return partials


def _pooled_mean_and_se(partials: np.ndarray, n: int) -> tuple[float, float]:
    """Mean and standard error sqrt(M2 / n) / sqrt(n) of n values from
    _map_chunks rows of (sum, M2), M2 the sum of squared deviations from
    the chunk's mean. Chunks are pooled in stream order by the update of
    Chan, Golub & LeVeque (1979): pooling sizes a and b adds
    delta^2 a b / (a + b) to M2, delta the gap between their means."""
    count, total, m2 = 0, 0.0, 0.0
    for chunk_sum, chunk_m2 in partials.tolist():
        size = min(_TAIL_CHUNK, n - count)
        if count:
            delta = chunk_sum / size - total / count
            m2 += delta * delta * (count * size / (count + size))
        m2 += chunk_m2
        total += chunk_sum
        count += size
    return total / n, math.sqrt(m2 / n) / math.sqrt(n)


def _mgf_split(y: np.ndarray, u: float, out: np.ndarray) -> None:
    # e^{uy} 1{uy <= 1} - 1 - uy - (uy)^2 into out, step by step in out
    # and y (which becomes (uy)^2); y is never NaN.
    y *= u
    np.exp(y, out=out)
    out[y > 1.0] = 0.0
    out -= 1.0
    out -= y
    out -= np.square(y, out=y)


def _suite_maxbound(seed: RngSeed, n: int = 10_000):
    yield _det_case("H(1) = 0", h_rate(1.0), 0.0, 1e-15)
    yield _det_case("H(e)/e = 1/e", h_rate(math.e) / math.e, 1.0 / math.e, 1e-15)
    for delta in (1e-2, 1e-6):
        c_k = math.e / delta
        lhs = math.exp(-h_rate(c_k) / c_k)
        rhs = delta * math.exp(-delta / math.e)
        yield _det_case(f"exceedance closed form at delta={delta:g}", lhs, rhs, 1e-12 * delta)
    if not n:
        return
    yield verify_max_bound(100, 1.0, 0.01, n, _subseed(seed, 600))
    yield verify_max_bound(1000, 1.0, 0.001, n, _subseed(seed, 601))
    # the delta = 1 bound cannot fail, so its trials stop at 1000
    yield verify_max_bound(10, 2.0, 1.0, min(n, 1000), _subseed(seed, 602))


def _suite_concentration(seed: RngSeed, n: int = 1000):
    if not n:
        return
    for idx, (lam, k) in enumerate(((2.0, 4000), (0.1, 8000))):
        trial = run_concentration_trial(lam, 0.25, k, n, _subseed(seed, 700 + idx))
        yield _bound_case(
            f"band exits lambda={lam:g} eps=0.25 k={k} (trials={n})",
            trial.fail_fraction,
            0.01,
            0.0,
        )
    degenerate = run_concentration_trial(1.0, 0.25, 1, n, _subseed(seed, 702))
    yield _bound_case(
        "degenerate k=1 exit fraction (informational)",
        degenerate.fail_fraction,
        1.0,
        0.0,
        gated=False,
    )


def _suite_planner(seed: RngSeed, n: int = 1000):
    if not n:
        return
    planned = plan_dimension_for_delta(0.25, 0.01).k
    for idx, lam in enumerate((2.0, 0.1)):
        found = empirical_k_search(lam, 0.25, 0.01, _subseed(seed, 800 + idx), trials=n)
        yield _bound_case(
            f"planner dominates empirical k at lambda={lam:g} eps=0.25",
            float(found),
            float(planned),
            0.0,
        )
    tight = empirical_k_search(2.0, 0.125, 0.01, _subseed(seed, 802), trials=n)
    loose = empirical_k_search(2.0, 0.25, 0.01, _subseed(seed, 803), trials=n)
    yield _bound_case(
        "monotonicity: k(eps=0.25) <= k(eps=0.125) (informational)",
        float(loose),
        float(tight),
        0.0,
        gated=False,
    )


# Each suite is a generator of report cases. Its n is its Monte Carlo size
# (specfun and moments have none), and n = 0 yields only the
# deterministic cases; run_suite sizes, times and reports it. Heaviest
# first, the order `verify --suite all` hands suites to its lanes: CPU
# time at default trials on a 2-vCPU x86-64 VM was 235 ms (stability),
# 160, 153, 70, 65, 15 and 3 ms (specfun).
SUITES = {
    "stability": _suite_stability,
    "tails": _suite_tails,
    "concentration": _suite_concentration,
    "maxbound": _suite_maxbound,
    "planner": _suite_planner,
    "moments": _suite_moments,
    "specfun": _suite_specfun,
}


def run_suite(name: str, seed: RngSeed, trials: int | None = None) -> VerificationReport:
    """Run one named suite and time it. trials=None takes the suite's
    default size; trials=0 runs only the deterministic cases."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    sizes = () if trials is None else (_check_count("trials", trials, 0),)
    start = time.perf_counter()
    cases = list(SUITES[name](seed, *sizes))
    runtime_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(suite=name, cases=cases, rng=seed, runtime_ms=runtime_ms)
