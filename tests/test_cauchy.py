"""Seeded Cauchy sampling, the |X| distribution functions, 1-stability,
and the KS machinery."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cauchysketch.cauchy as cauchy_module
from cauchysketch.cauchy import (
    GENERATOR_NAME,
    RngSeed,
    _check_count,
    _fill_cauchy,
    _in_two_lanes,
    _lanes,
    _map_rows,
    _split_stream,
    cdf_abs,
    ks_critical_value,
    ks_statistic,
    make_generator,
    sample_standard_cauchy,
    stable_combination,
)
from cauchysketch.concentration import max_abs_plan, plan_dimension
from cauchysketch.sketch import build_projection, sketch_dataset
from cauchysketch.verify import (
    empirical_k_search,
    run_concentration_trial,
    run_suite,
    verify_max_bound,
)

SEED = RngSeed(20240817, 0)


class TestRngSeed:
    def test_generator_name_is_pinned(self):
        # The name is part of the file format contract; changing the
        # underlying generator must change this string.
        assert GENERATOR_NAME == "pcg64-seedseq"

    def test_validation(self):
        RngSeed(0, 0)
        RngSeed(2**64 - 1, 2**64 - 1)
        for bad in (-1, 2**64, 1.5, "7"):
            with pytest.raises(ValueError):
                RngSeed(bad, 0)
            with pytest.raises(ValueError):
                RngSeed(0, bad)

    def test_same_seed_same_stream(self):
        a = make_generator(SEED).random(8)
        b = make_generator(SEED).random(8)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = make_generator(RngSeed(7, 0)).random(8)
        b = make_generator(RngSeed(7, 1)).random(8)
        c = make_generator(RngSeed(8, 0)).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSampling:
    def test_scalar_and_vector_agree(self):
        # a shorter draw is a prefix of a longer one from the same stream
        one = sample_standard_cauchy(make_generator(SEED), size=1)
        vector = sample_standard_cauchy(make_generator(SEED), size=4)
        assert one.shape == (1,) and vector.shape == (4,)
        assert one[0] == vector[0]

    def test_draws_are_finite(self):
        draws = sample_standard_cauchy(make_generator(SEED), size=100_000)
        assert np.isfinite(draws).all()

    def test_median_and_quartiles(self):
        # Cauchy(1): median 0, quartiles -+1.
        draws = sample_standard_cauchy(make_generator(SEED), size=200_000)
        q1, q2, q3 = np.quantile(draws, [0.25, 0.5, 0.75])
        assert abs(q2) < 0.01
        assert abs(q1 + 1.0) < 0.02
        assert abs(q3 - 1.0) < 0.02

    def test_abs_draws_match_cdf(self):
        n = 100_000
        draws = np.abs(sample_standard_cauchy(make_generator(SEED), size=n))
        assert ks_statistic(draws, cdf_abs) < ks_critical_value(n, 0.01)

    def test_stream_is_the_inverse_cdf_of_the_uniforms(self):
        # The reference transform the byte-identical contract rests on.
        n = 100_000
        draws = sample_standard_cauchy(make_generator(SEED), size=n)
        reference = np.tan(np.pi * (make_generator(SEED).random(n) - 0.5))
        assert np.array_equal(draws.view(np.uint64), reference.view(np.uint64))

    def test_zero_uniform_maps_in_place(self):
        class StubGenerator:
            # Fills the buffer it is given from one fixed uniform block and
            # records the sizes asked for.
            def __init__(self, block):
                self.block = np.array(block)
                self.sizes = []

            def random(self, *, out):
                self.sizes.append(out.size)
                out[...] = self.block
                return out

        # A zero uniform is not redrawn: tan(-pi/2 rounded) is finite, so
        # draw i depends on uniform i alone and no extra uniform is taken.
        uniforms = [0.25, 0.0, 0.7, 0.0, 0.9]
        rng = StubGenerator(uniforms)
        draws = sample_standard_cauchy(rng, size=5)
        assert rng.sizes == [5]
        assert draws[1] == draws[3] == -1.633123935319537e16
        reference = np.tan(np.pi * (np.array(uniforms) - 0.5))
        assert np.array_equal(draws.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("size", [2.0, (2,), None, -1])
    def test_size_is_a_count(self, size):
        with pytest.raises(ValueError, match="size must be an integer >= 0"):
            sample_standard_cauchy(make_generator(SEED), size)

    def test_large_draw_holds_one_array(self):
        rng = make_generator(SEED)
        tracemalloc.start()
        try:
            draws = sample_standard_cauchy(rng, size=1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * draws.nbytes


class TestDistributionFunctions:
    def test_known_points(self):
        assert cdf_abs(1.0) == pytest.approx(0.5, abs=1e-15)  # arctan(1) = pi/4
        assert cdf_abs(0.0) == 0.0

    def test_array_input(self):
        t = np.array([0.5, 1.0, 2.0])
        assert np.array_equal(cdf_abs(t), [cdf_abs(float(x)) for x in t])

    def test_domains(self):
        with pytest.raises(ValueError):
            cdf_abs(-0.1)
        with pytest.raises(ValueError):
            cdf_abs(np.array([1.0, -1.0]))


class TestStableCombination:
    def test_scalar_matches_manual_dot(self):
        v = np.array([1.0, -2.0, 0.5])
        draws = sample_standard_cauchy(make_generator(SEED), size=3)
        (one,) = stable_combination(v, make_generator(SEED), size=1)
        assert one == pytest.approx(float(draws @ v), rel=1e-15)

    def test_vector_consumes_rows(self):
        # Each combination uses len(v) consecutive draws of the stream.
        v = np.array([1.0, -2.0, 0.5])
        draws = sample_standard_cauchy(make_generator(SEED), size=6).reshape(2, 3)
        batch = stable_combination(v, make_generator(SEED), size=2)
        assert batch.shape == (2,)
        assert np.allclose(batch, draws @ v, rtol=1e-15)

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize(
        "size, dim, step",
        [
            (100_000, 23, 45_590),  # 45,590 rows of 23 fill one 2^20-draw block
            (12_345, 64, 333),
            (100_000, 23, 30_001),  # pieces straddle the whole call's block edges
            (2 * (2**20 // 49) + 3, 49, 2**20 // 49 + 1),
            (2**20 + 7, 1, 2**19 + 1),
        ],
    )
    def test_sums_do_not_depend_on_the_call_size(self, monkeypatch, lanes, size, dim, step):
        # Each sum is a function of its own draws alone: calls of `step`
        # sums from one generator give the bits of one call of `size`
        # sums, so the first m sums of a call equal a call of size m, and
        # the stream goes on from the same state.
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        weights = make_generator(RngSeed(dim, 9))
        v = weights.standard_normal(dim) * np.exp(weights.uniform(-2.0, 2.0, size=dim))
        rng = make_generator(SEED)
        whole = stable_combination(v, rng, size)
        after = rng.random(7)
        rng = make_generator(SEED)
        pieces = [stable_combination(v, rng, min(step, size - lo)) for lo in range(0, size, step)]
        np.testing.assert_array_equal(np.concatenate(pieces).view(np.uint64), whole.view(np.uint64))
        np.testing.assert_array_equal(rng.random(7), after)

    def test_one_stability(self):
        # sum v_j X_j / ||v||_1 is again standard Cauchy.
        n = 50_000
        v = np.array([3.0, -1.0, 0.25, 2.0])
        samples = stable_combination(v, make_generator(SEED), size=n)
        normalized = np.abs(samples) / np.sum(np.abs(v))
        assert ks_statistic(normalized, cdf_abs) < ks_critical_value(n, 0.01)

    def test_validation(self):
        rng = make_generator(SEED)
        with pytest.raises(ValueError):
            stable_combination([], rng, size=1)
        with pytest.raises(ValueError):
            stable_combination([1.0, math.nan], rng, size=1)
        with pytest.raises(ValueError):
            stable_combination([1.0], rng, size=0)
        with pytest.raises(ValueError):
            stable_combination([1.0], rng, size=2.5)


class TestKolmogorovSmirnov:
    def test_statistic_exact_small_sample(self):
        # Uniform cdf, samples {0.2, 0.6}: sup gap is |1/2 - 0.6| at the
        # left limit of the second jump... enumerate: D = 0.4.
        samples = np.array([0.2, 0.6])
        d = ks_statistic(samples, lambda t: np.clip(t, 0.0, 1.0))
        assert d == pytest.approx(0.4, abs=1e-15)

    def test_statistic_of_an_empty_sample_raises(self):
        with pytest.raises(ValueError, match="non-empty sample"):
            ks_statistic([], cdf_abs)

    def test_statistic_perfect_fit_is_small(self):
        # Plug-in quantiles: D = 1/(2n) exactly at the midpoint offsets.
        n = 1000
        u = (np.arange(n) + 0.5) / n
        samples = np.tan(np.pi * u / 2.0)  # quantiles of |X|
        assert ks_statistic(samples, cdf_abs) == pytest.approx(0.5 / n, abs=1e-12)

    def test_critical_value_table(self):
        # c(level) = sqrt(-ln(level/2)/2): the tabulated 1.6276 at 1% and
        # 1.3581 at 5%, and any other level in (0, 1)
        assert ks_critical_value(10_000, 0.01) == pytest.approx(1.6276 / 100.0, rel=5e-5)
        assert ks_critical_value(2_500, 0.05) == pytest.approx(1.3581 / 50.0, rel=5e-5)
        level = 0.01 / 11
        assert ks_critical_value(100_000, level) == pytest.approx(
            math.sqrt(-math.log(level / 2.0) / 2.0) / math.sqrt(100_000), rel=1e-15
        )
        assert ks_critical_value(100_000, level) == pytest.approx(0.00620, abs=1e-5)
        for bad in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(ValueError):
                ks_critical_value(100, bad)
        with pytest.raises(ValueError):
            ks_critical_value(0, 0.01)

    def test_statistic_keeps_the_bits_of_the_plain_formula(self):
        rng = make_generator(RngSeed(3, 1))
        for _ in range(20):
            n = int(rng.integers(1, 5000))
            samples = np.abs(sample_standard_cauchy(rng, n)) * rng.uniform(0.1, 10.0)
            x = np.sort(samples)
            f = (2.0 / np.pi) * np.arctan(x)
            grid = np.arange(1, n + 1) / n
            plain = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
            assert ks_statistic(samples, cdf_abs) == plain

    def test_statistic_of_a_cdf_returning_its_input(self):
        # the gaps cannot go into the sorted copy when cdf returns it
        samples = np.array([0.6, 0.2])
        assert ks_statistic(samples, lambda t: t) == pytest.approx(0.4, abs=1e-15)

    def test_statistic_holds_three_arrays_of_the_sample(self):
        # the sorted copy (which takes the gaps), the cdf values and the
        # grid; cdf_abs scales its arctan in place
        n = 100_000
        samples = np.abs(sample_standard_cauchy(make_generator(SEED), n))
        tracemalloc.start()
        try:
            ks_statistic(samples, cdf_abs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * samples.nbytes + 100_000

    @given(st.integers(2, 50))
    def test_statistic_bounds(self, n):
        rng = make_generator(RngSeed(n, 5))
        samples = np.abs(sample_standard_cauchy(rng, size=n))
        d = ks_statistic(samples, cdf_abs)
        assert 0.0 <= d <= 1.0


class TestCountArguments:
    def test_check_count(self):
        for value in (5, np.int64(5), np.uint64(5), np.int8(5)):
            count = _check_count("n", value, 1)
            assert count == 5 and type(count) is int
        for bad in (True, False, np.True_, 5.0, "5", None, 0, -3):
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                _check_count("n", bad, 1)

    # Every count argument of the package, called with a valid Python int.
    SITES = {
        "RngSeed seed": (lambda n: RngSeed(n, 0), 7),
        "RngSeed stream_id": (lambda n: RngSeed(0, n), 7),
        "stable_combination size": (
            lambda n: stable_combination([1.0, -2.0], make_generator(SEED), n).tolist(),
            3,
        ),
        "ks_critical_value n": (lambda n: ks_critical_value(n), 100),
        "sample_standard_cauchy size": (
            lambda n: sample_standard_cauchy(make_generator(SEED), n).tolist(),
            5,
        ),
        "plan_dimension n_points": (lambda n: plan_dimension(0.25, n, 3.0), 10),
        "max_abs_plan k": (lambda n: max_abs_plan(n, 0.25, 10, 3.0), 64),
        "sketch_dataset k": (lambda n: sketch_dataset(np.ones((2, 3)), n, SEED).tolist(), 4),
        "build_projection d": (lambda n: build_projection(2, n, SEED), 3),
        "run_concentration_trial k": (lambda n: run_concentration_trial(1.0, 0.25, n, 20, SEED), 8),
        "run_concentration_trial trials": (
            lambda n: run_concentration_trial(1.0, 0.25, 8, n, SEED),
            20,
        ),
        "empirical_k_search trials": (
            lambda n: empirical_k_search(2.0, 0.25, 0.1, SEED, trials=n),
            50,
        ),
        "verify_max_bound k": (lambda n: verify_max_bound(n, 1.0, 0.5, 50, SEED), 10),
        "verify_max_bound trials": (lambda n: verify_max_bound(10, 1.0, 0.5, n, SEED), 50),
        "run_suite trials": (
            lambda n: run_suite("maxbound", SEED, trials=n).to_jsonl_lines(),
            20,
        ),
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_numpy_integer_same_as_int_and_bool_rejected(self, site):
        call, value = self.SITES[site]
        # repr tells a Python int from a numpy integer holding the same value
        assert repr(call(np.int64(value))) == repr(call(value))
        with pytest.raises(ValueError):
            call(True)


class TestLanes:
    """_split_stream draws a PCG64 stream in two halves by jump-ahead, on
    one lane or two; the bits and the stream after the draw are those of
    one serial draw. The row map splits nothing: it draws on its caller's
    thread."""

    @staticmethod
    def _draw(rng, size):
        # size rows of one draw each
        out = np.empty((size, 1))
        _map_rows(rng, 1, out, lambda draws, dst: np.copyto(dst, draws))
        return out.ravel()

    @pytest.mark.parametrize("size", [2**18 - 1, 2**18, 2**18 + 1, 3 * 2**16 + 5, 4_000_000])
    def test_lanes_change_no_bits(self, monkeypatch, started_threads, size):
        # A split of ``size`` draws on one lane and on two (from 2^18 draws
        # on, with a thread) against one serial draw.
        cut = size // 2
        results = []
        for lanes in (None, 1, 2):  # None: the serial draw
            monkeypatch.setattr(cauchy_module, "_LANES", lanes or 1)
            started_threads.clear()
            rng = make_generator(SEED)
            rng.integers(0, 10, dtype=np.uint32)  # leaves half a 64-bit output buffered
            draws = np.empty(size)
            if lanes:
                _split_stream(
                    rng,
                    cut,
                    lambda g: _fill_cauchy(g, draws[:cut]),
                    lambda g: _fill_cauchy(g, draws[cut:]),
                    size,
                )
            else:
                _fill_cauchy(rng, draws)
            assert len(started_threads) == (lanes == 2 and size >= 2**18)
            results.append((draws, rng.bit_generator.state, sample_standard_cauchy(rng, 77)))
        serial, serial_state, serial_next = results[0]
        for split, state, after in results[1:]:
            assert np.array_equal(serial.view(np.uint64), split.view(np.uint64))
            assert state == serial_state
            assert np.array_equal(serial_next.view(np.uint64), after.view(np.uint64))

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_other_bit_generators_draw_in_one_lane(self, monkeypatch, bit_generator):
        # None of these jumps ahead by draws (Philox advances by blocks of
        # four outputs); the row map draws their streams in order, as it
        # does every stream, even with two lanes from one draw on.
        monkeypatch.setattr(cauchy_module, "_LANES", 2)
        monkeypatch.setattr(cauchy_module, "_LANE_MIN_ELEMENTS", 1)
        size = 2**18 + 3
        rng = np.random.Generator(bit_generator(11))
        draws = self._draw(rng, size)
        uniforms = np.random.Generator(bit_generator(11)).random(size)
        reference = np.tan(np.pi * (uniforms - 0.5))
        assert np.array_equal(draws.view(np.uint64), reference.view(np.uint64))


class TestLaneNesting:
    """Lanes start one level deep and leave nothing behind: the caller
    gets a lane's exception, and the lane count stays as it was."""

    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_lane_count_comes_back_after_an_exception(self, monkeypatch, failing):
        monkeypatch.setattr(cauchy_module, "_LANES", 2)

        def lane(name):
            def run():
                if name == failing:
                    raise ArithmeticError(name)
            return run

        with pytest.raises(ArithmeticError, match=failing):
            _in_two_lanes(lane("first"), lane("second"))
        assert _lanes(2**20) == 2


class TestInTwoLanes:
    """_in_two_lanes runs first() and then second() on the caller when the
    work takes one lane, and second() on one worker thread otherwise;
    first()'s exception surfaces either way."""

    @staticmethod
    def _run(monkeypatch, lanes, elements, first=None, second=None):
        # The halves, each with the thread it ran on, in the order they
        # started.
        ran = []

        def half(name, fail):
            def run():
                ran.append((name, threading.current_thread()))
                if fail is not None:
                    raise fail
            return run

        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        _in_two_lanes(half("first", first), half("second", second), elements)
        return ran

    @pytest.mark.parametrize("lanes, elements", [(1, None), (1, 2**20), (2, 2**18 - 1), (2, 0)])
    def test_one_lane_runs_both_halves_on_the_caller(self, monkeypatch, started_threads, lanes, elements):
        ran = self._run(monkeypatch, lanes, elements)
        caller = threading.current_thread()
        assert ran == [("first", caller), ("second", caller)]
        assert started_threads == []

    @pytest.mark.parametrize("elements", [None, 2**18, 2**20])
    def test_two_lanes_start_one_thread(self, monkeypatch, started_threads, elements):
        ran = self._run(monkeypatch, 2, elements)
        assert len(started_threads) == 1
        assert dict(ran) == {"first": threading.current_thread(), "second": started_threads[0]}

    @pytest.mark.parametrize("lanes, elements", [(1, None), (2, 0), (2, None)])
    def test_first_exception_surfaces(self, monkeypatch, lanes, elements):
        with pytest.raises(ArithmeticError, match="first"):
            self._run(monkeypatch, lanes, elements, ArithmeticError("first"), LookupError("second"))
        with pytest.raises(LookupError, match="second"):
            self._run(monkeypatch, lanes, elements, None, LookupError("second"))


class TestMapRows:
    """_map_rows draws tiles of whole rows in one pass on the caller's
    thread; every row holds the draws of one serial draw whatever the tile
    size and the lanes the program may use, and the stream goes on from
    the same state."""

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize(
        "tile, rows, width",
        [
            (2**16, 1000, 64),  # 1,024 rows a tile: one partial tile
            (100, 37, 9),  # 11 rows a tile, the last tile partial
            (64, 13, 100),  # a row wider than a tile: one row a tile
            (7, 2, 7),  # one row a tile
            (5, 1, 3),  # one row
        ],
    )
    def test_rows_are_the_serial_draw(self, monkeypatch, lanes, tile, rows, width):
        rng = make_generator(SEED)
        rng.integers(0, 10, dtype=np.uint32)  # leaves half a 64-bit output buffered
        expected = sample_standard_cauchy(rng, rows * width).reshape(rows, width)
        expected_state, expected_next = rng.bit_generator.state, rng.random(5)
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        monkeypatch.setattr(cauchy_module, "_LANE_MIN_ELEMENTS", 1)
        monkeypatch.setattr(cauchy_module, "_TILE", tile)
        shapes = []

        def copy(draws, dst):
            shapes.append(draws.shape)
            np.copyto(dst, draws)

        rng = make_generator(SEED)
        rng.integers(0, 10, dtype=np.uint32)
        out = np.empty((rows, width))
        _map_rows(rng, width, out, copy)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
        assert rng.bit_generator.state == expected_state
        assert np.array_equal(rng.random(5), expected_next)
        per_tile = max(1, tile // width)
        assert shapes == [(min(per_tile, rows - lo), width) for lo in range(0, rows, per_tile)]
