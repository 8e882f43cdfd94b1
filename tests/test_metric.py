"""The bounded coordinate map xi, the sketch-space metric rho, and the
small-argument envelope."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cauchysketch.cauchy as cauchy_module
import cauchysketch.metric as metric_module
from cauchysketch.cauchy import RngSeed, make_generator, sample_standard_cauchy
from cauchysketch.metric import _xi_small_envelope, rho, rho_blocks, xi
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
        low, high = _xi_small_envelope(a)
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
            _xi_small_envelope(1.0 / 6.0)
        with pytest.raises(ValueError):
            _xi_small_envelope(0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            xi(-1e-9)

    def test_out_takes_the_same_bits(self, monkeypatch):
        # Several tiles, into a separate array and in place, and one that
        # holds no result: the wrong shape, dtype or layout.
        monkeypatch.setattr(metric_module, "_TILE", 100)
        a = np.geomspace(1e-12, 1e12, 1001).reshape(7, 143)
        expected = _xi_reference(a)
        out = np.empty_like(a)
        assert xi(a, out=out) is out
        assert np.array_equal(out, expected)
        in_place = a.copy()
        assert xi(in_place, out=in_place) is in_place
        assert np.array_equal(in_place, expected)
        for bad in (np.empty(a.size), np.empty(a.shape, np.float32), np.empty((143, 7)).T):
            with pytest.raises(ValueError, match="out"):
                xi(a, out=bad)

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


def _xi_reference(a):
    # The whole-array ufunc expression xi's tiles must reproduce.
    return np.log1p(np.sqrt(a)) + 0.5 * np.log1p(a)


class TestXiLanes:
    """xi runs tile by tile on the caller's thread: neither the tile size
    nor the number of lanes the program may use changes a bit or the
    memory it holds."""

    @staticmethod
    def _inputs():
        # |Cauchy| draws over many scales, with 0, a subnormal and inf.
        rng = make_generator(RngSeed(20240817, 21))
        a = np.abs(sample_standard_cauchy(rng, 600_000)) * np.exp(rng.uniform(-40, 40, 600_000))
        a[[0, 65_536, 300_001]] = [0.0, 5e-324, np.inf]
        return {
            "1-d": a[: 2**18 + 12_345],
            "2-d": a.reshape(600, 1000)[:, :500].copy(),
            "non-contiguous": a.reshape(600, 1000)[:, ::2],
        }

    @pytest.mark.parametrize("shape", ["1-d", "2-d", "non-contiguous"])
    def test_lanes_change_no_bits(self, monkeypatch, shape):
        a = self._inputs()[shape]
        reference = _xi_reference(a)
        for tile in (2**16, 1000):
            monkeypatch.setattr(metric_module, "_TILE", tile)
            out = xi(a)
            assert out.shape == a.shape
            assert np.array_equal(out.view(np.uint64), reference.view(np.uint64))
        # and element by element, at tile edges and at random
        flat, flat_out = np.ravel(a), np.ravel(out)
        picks = [0, 1, 999, 1000, 65_535, 65_536, 131_072, flat.size // 2, flat.size - 1]
        picks += make_generator(RngSeed(20240817, 22)).integers(0, flat.size, 100).tolist()
        for index in picks:
            one = np.float64(xi(float(flat[index])))
            assert one.view(np.uint64) == flat_out[index].view(np.uint64)

    @pytest.mark.parametrize("bad", [-1e-300, math.nan])
    @pytest.mark.parametrize("tile", [2**16, 1000])
    def test_bad_value_in_last_tile_raises(self, monkeypatch, tile, bad):
        monkeypatch.setattr(metric_module, "_TILE", tile)
        a = np.ones(2**20)
        a[-1] = bad
        with pytest.raises(ValueError, match=r"xi requires a >= 0"):
            xi(a)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_holds_output_and_two_tiles_per_lane(self, monkeypatch, lanes):
        # xi starts no lane, so on any CPU count it holds its output, one
        # tile of roots and one tile of sign checks.
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        a = np.linspace(0.0, 1e6, 1 << 20)
        tracemalloc.start()
        try:
            out = xi(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * metric_module._TILE * 8


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

    def test_overflowing_difference_raises(self):
        # 1e308 - (-1e308) is past the largest float; no inf mean comes back
        with pytest.raises(ValueError, match="finite"):
            rho([1e308, 0.0], [-1e308, 0.0])
        stack = np.array([[1.0, 0.0], [1e308, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            rho(stack, np.array([-1e308, 0.0]))
        assert rho([1e308, 0.0], [0.0, 0.0]) > 0.0


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
    def test_estimates_are_symmetric(self, case):
        # |u - v| and |v - u| round alike, so both directions share their bits.
        stack, v = case
        there = rho(stack, v)
        back = np.array([rho(v, u) for u in stack])
        assert np.array_equal(there.view(np.uint64), back.view(np.uint64))
        assert np.array_equal(mu_inverse(there).view(np.uint64), mu_inverse(back).view(np.uint64))

    @given(_stack_and_row())
    def test_estimate_zero_exactly_on_equal_rows(self, case):
        stack, v = case
        estimates = mu_inverse(rho(stack, v))
        assert ((estimates == 0.0) == (stack == v).all(axis=1)).all()


def _cauchy_coords(n: int, k: int) -> np.ndarray:
    rng = make_generator(RngSeed(20240817, 31))
    return sample_standard_cauchy(rng, n * k).reshape(n, k)


# Bytes a rho_blocks lane or a rho call may hold: its two scratch tiles and
# the 8192-element buffer numpy's ufunc machinery allocates for a
# subtraction that broadcasts v over rows shorter than that buffer.
def _lane_bytes(k: int) -> int:
    return (2 * max(metric_module._TILE, k) + np.getbufsize()) * 8


# Array headers, views and a lane's thread.
_OBJECTS = 16_384


def _pair_calls(coords) -> np.ndarray:
    n = len(coords)
    return np.array([rho(coords[j], coords[i]) for i in range(n) for j in range(i + 1, n)])


class TestRhoPairs:
    """rho_blocks(coords) yields rho of every pair i < j of rows, row-major,
    a block at a time."""

    @pytest.mark.parametrize("k", [1, 5000, 2**16 + 3])
    @pytest.mark.parametrize("n", [2, 3, 70])
    def test_same_bits_as_pair_calls(self, monkeypatch, n, k):
        # At k = 5000 a block of 13 rows ends inside a row's pairs; past
        # k = 2^16 a block is one row. At n = 70 and k >= 5000 two lanes
        # run when the program may use them.
        coords = _cauchy_coords(n, k)
        reference = _pair_calls(coords)
        for lanes in (1, 2):
            monkeypatch.setattr(cauchy_module, "_LANES", lanes)
            values = np.concatenate([block.copy() for _, _, block in rho_blocks(coords)])
            assert values.shape == (n * (n - 1) // 2,)
            assert np.array_equal(values.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_overflow_in_second_lane_rows_raises(self, monkeypatch, lanes):
        # 4,950 pairs x k = 64 are a first block of 4,096 pairs, cut at
        # pair 2,048 (row 23) and run on two lanes when it may, and
        # a second block of 854 pairs. Pair (40, 41) is pair 3,180, in the
        # first block's second half; pair (98, 99) is the last pair.
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        assert cauchy_module._lanes(4096 * 64) == lanes
        for i, yielded in ((40, 0), (98, 1)):
            coords = _cauchy_coords(100, 64)
            coords[i, 0], coords[i + 1, 0] = 1e308, -1e308
            blocks = rho_blocks(coords)
            for _ in range(yielded):
                next(blocks)
            with pytest.raises(ValueError, match="rho needs rows whose differences are finite"):
                next(blocks)

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("n, k", [(30, 5000), (9, 2**16 + 3)])
    def test_blocks_are_pieces_of_rho_pairs(self, monkeypatch, n, k, block, lanes):
        # The blocks of any size, on any lanes, are pieces of the per-pair
        # values. At k = 5000 blocks of 7 pairs end inside rows, and the
        # one block of all 435 pairs is cut inside row 8. At k = 2^16 + 3
        # a block of 7 or more pairs is cut inside a row.
        coords = _cauchy_coords(n, k)
        whole = _pair_calls(coords)
        monkeypatch.setattr(metric_module, "_BLOCK_PAIRS", block)
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        starts, pieces = [], []
        for i, j, values in rho_blocks(coords):
            starts.append((i, j))
            pieces.append(values.copy())
        assert [len(piece) for piece in pieces[:-1]] == [block] * (len(pieces) - 1)
        assert 0 < len(pieces[-1]) <= block
        assert starts == pairs[::block]
        assert np.array_equal(np.concatenate(pieces).view(np.uint64), whole.view(np.uint64))

    @pytest.mark.parametrize(
        "coords",
        [np.zeros(4), np.zeros((2, 2, 2)), np.zeros((1, 4)), np.zeros((0, 4)), np.zeros((3, 0))],
        ids=["1-d", "3-d", "one row", "no rows", "empty rows"],
    )
    def test_rejects_shapes(self, coords):
        with pytest.raises(ValueError, match="rho_blocks needs an"):
            next(rho_blocks(coords))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_coordinates(self, bad):
        coords = _cauchy_coords(5, 3)
        coords[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            next(rho_blocks(coords))

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("n, k", [(2, 5000), (70, 5000), (400, 64), (800, 64), (5, 2**16 + 3)])
    def test_holds_output_and_two_tiles_per_lane(self, monkeypatch, lanes, n, k):
        # The output is one block buffer, reused, so the bound does not
        # grow with N: at k = 64, N = 400 and 800 give 79,800 and 319,600
        # pairs, 20 and 79 blocks, under the same bound.
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        coords = _cauchy_coords(n, k)
        used = cauchy_module._lanes(min(metric_module._BLOCK_PAIRS, n * (n - 1) // 2) * k)
        tracemalloc.start()
        try:
            for _ in rho_blocks(coords):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * metric_module._BLOCK_PAIRS + used * _lane_bytes(k) + _OBJECTS

    def test_stack_holds_its_values_and_two_tiles(self):
        # rho(U, v) holds no (m, k) array of differences.
        coords = _cauchy_coords(1000, 1000)
        tracemalloc.start()
        try:
            values = rho(coords[1:], coords[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= values.nbytes + _lane_bytes(1000) + _OBJECTS
