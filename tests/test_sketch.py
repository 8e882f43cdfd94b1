"""Projection construction, sketching, distance estimation, regime tags,
and the dataset file formats."""

import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cauchysketch import cauchy as cauchy_module
from cauchysketch import sketch as sketch_module
from cauchysketch.cauchy import RngSeed, make_generator, sample_standard_cauchy
from cauchysketch.cli import main
from cauchysketch.concentration import max_abs_plan
from cauchysketch.metric import rho
from cauchysketch.moments import mu_inverse
from cauchysketch.sketch import (
    MAX_ENTRIES,
    DatasetFormatError,
    ProjectionMatrix,
    build_projection,
    read_binary_matrix,
    read_csv_matrix,
    read_points,
    regime_tag,
    sketch_dataset,
    write_binary_matrix,
)
from dispatch import assert_frozen

SEED = RngSeed(20240817, 0)


class TestProjection:
    def test_shape_and_determinism(self):
        m1 = build_projection(8, 3, SEED)
        m2 = build_projection(8, 3, SEED)
        assert m1.entries.shape == (8, 3)
        assert np.array_equal(m1.entries, m2.entries)
        assert not np.array_equal(m1.entries, build_projection(8, 3, RngSeed(1, 0)).entries)

    def test_row_major_stream_order(self):
        # entry (i, j) is draw number i*d + j of the stream
        m = build_projection(4, 5, SEED)
        draws = sample_standard_cauchy(make_generator(SEED), size=20)
        assert np.array_equal(m.entries, draws.reshape(4, 5))
        assert m.entries[2, 3] == draws[2 * 5 + 3]

    def test_entries_are_frozen(self):
        # The bytes of a seeded projection, as 0.4.0 drew them, by the
        # kernel numpy runs tan on: the AVX-512 one and the baseline.
        entries = build_projection(64, 48, SEED).entries
        assert_frozen(
            entries.tobytes(),
            {
                "tan:X86_V4": "a36eb6f28954285a8bb7566516d7f1f910c133ede5b710befa052674f87a5967",
                "tan:baseline(X86_V2)": "6451ea1c52f858bdc6664963048620c6b845d75c236729c15adce6f42b24c26d",
            },
            "tan",
        )

    def test_large_projection_holds_one_matrix(self):
        # The isfinite mask of the entry check is the only other allocation.
        tracemalloc.start()
        try:
            entries = build_projection(1024, 1024, SEED).entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * entries.nbytes

    def test_entries_read_only(self):
        m = build_projection(2, 2, SEED)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 7.0

    def test_entry_budget(self):
        with pytest.raises(ValueError):
            build_projection(2**16, 2**16, SEED)  # 2^32 > MAX_ENTRIES
        assert MAX_ENTRIES == 2**31

    def test_validation(self):
        with pytest.raises(ValueError):
            build_projection(0, 3, SEED)
        with pytest.raises(ValueError):
            ProjectionMatrix(k=2, d=2, entries=np.ones((2, 3)), seed=SEED)


class TestProjectAndEstimate:
    def test_project_is_matrix_vector(self):
        # One product X F^T; each row equals the matrix-vector product F x
        # up to the rounding of a differently ordered sum.
        rng = make_generator(RngSeed(5, 12))
        points = rng.standard_normal((8, 300))
        coords = sketch_dataset(points, 200, SEED)
        entries = build_projection(200, 300, SEED).entries
        for row, x in zip(coords, points):
            scale = np.abs(entries) @ np.abs(x)
            assert np.all(np.abs(row - entries @ x) <= 1e-14 * scale)

    def test_project_validation(self):
        with pytest.raises(ValueError):
            sketch_dataset([[1.0, math.nan, 0.0], [0.0, 0.0, 0.0]], 6, SEED)
        with pytest.raises(ValueError):
            sketch_dataset(np.ones((2, 3)), 0, SEED)
        # finite points whose sketch overflows float64
        with pytest.raises(ValueError):
            sketch_dataset([[1e308, 1e308], [0.0, 0.0]], 64, SEED)

    def test_identical_points_estimate_zero(self):
        v = [0.3, -2.0, 1.0]
        coords = sketch_dataset([v, v], 16, SEED)
        assert mu_inverse(rho(coords[0], coords[1])) == 0.0

    def test_estimate_near_truth_at_large_k(self):
        # one seeded pair at k = 4000: the estimate should sit well inside
        # the eps = 0.25 band around the true l1 distance
        x = np.array([1.0, 0.0, -2.0, 0.5])
        y = np.array([0.0, 1.0, 0.0, 0.0])
        coords = sketch_dataset([x, y], 4000, SEED)
        truth = float(np.sum(np.abs(x - y)))
        estimate = mu_inverse(rho(coords[0], coords[1]))
        assert abs(estimate - truth) / truth < 0.1

    def test_sketch_dataset_order_and_shared_matrix(self):
        points = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
        coords = sketch_dataset(points, 32, SEED)
        assert coords.shape == (3, 32) and coords.dtype == np.float64
        np.testing.assert_array_equal(coords, points @ build_projection(32, 2, SEED).entries.T)

    def test_sketch_dataset_ragged_rows(self):
        with pytest.raises(ValueError):
            sketch_dataset([[1.0, 2.0], [3.0]], 8, SEED)

    @given(st.data())
    def test_sketch_is_linear(self, data):
        # sketch(X) - sketch(Y) = sketch(X - Y) up to the rounding of the
        # products and of X - Y, both within 1e-9 of (|X| + |Y|) |F|^T.
        n, d, k = (data.draw(st.integers(1, high)) for high in (5, 6, 64))
        floats = st.floats(-1e6, 1e6, allow_subnormal=False)
        x, y = (data.draw(arrays(np.float64, (n, d), elements=floats)) for _ in range(2))
        gap = sketch_dataset(x, k, SEED) - sketch_dataset(y, k, SEED) - sketch_dataset(x - y, k, SEED)
        scale = (np.abs(x) + np.abs(y)) @ np.abs(build_projection(k, d, SEED).entries).T
        assert np.all(np.abs(gap) <= 1e-9 * scale)


class TestBlockedSketch:
    """sketch_dataset draws F a block of rows at a time."""

    @pytest.mark.parametrize("d, k", [(7, 50), (3, 200), (64, 9), (300, 5)])
    def test_blocks_are_rows_of_the_projection(self, monkeypatch, d, k):
        # 256-entry blocks: 7 does not divide the block, 300 exceeds it.
        points = make_generator(RngSeed(5, 14)).standard_normal((6, d))
        entries = build_projection(k, d, SEED).entries
        sizes = []

        def recording(rng, out):
            sizes.append(out.size)
            return fill_cauchy(rng, out)

        fill_cauchy = sketch_module._fill_cauchy
        monkeypatch.setattr(sketch_module, "_BLOCK_DRAWS", 256)
        monkeypatch.setattr(sketch_module, "_fill_cauchy", recording)
        coords = sketch_dataset(points, k, SEED)
        assert len(sizes) >= 2 and all(size % d == 0 and size <= max(256, d) for size in sizes)
        bounds = np.cumsum([0] + [size // d for size in sizes])
        assert bounds[-1] == k
        # Each block is one product with rows lo..hi of build_projection's F,
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            np.testing.assert_array_equal(coords[:, lo:hi], points @ entries[lo:hi].copy().T)
        # so the sketch is X F^T up to the rounding of a differently split product.
        scale = np.abs(points) @ np.abs(entries).T
        assert np.all(np.abs(coords - points @ entries.T) <= 1e-14 * scale)

    def test_sketch_holds_coords_and_one_block(self):
        # k = 8192 rows of d = 1024 in 8 blocks; the 64 MB F never exists.
        points = make_generator(RngSeed(5, 15)).standard_normal((8, 1024))
        tracemalloc.start()
        try:
            coords = sketch_dataset(points, 8192, SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= coords.nbytes + 1.25 * sketch_module._BLOCK_DRAWS * 8

    @given(st.data())
    def test_duplicate_points_estimate_zero_really_small(self, data):
        # The library pair path: rho of a stack, one mu_inverse, one regime_tag.
        n, d, k = (data.draw(st.integers(low, high)) for low, high in ((2, 6), (1, 5), (1, 48)))
        points = data.draw(arrays(np.float64, (n, d), elements=st.floats(-1e6, 1e6)))
        copies = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        points = points[copies]
        coords = sketch_dataset(points, k, SEED)
        lambda0 = max_abs_plan(k, 0.25, n, 3.0).lambda0
        for i in range(n - 1):
            estimates = mu_inverse(rho(coords[i + 1 :], coords[i]))
            tags = regime_tag(estimates, 0.25, lambda0)
            same = np.array([copies[j] == copies[i] for j in range(i + 1, n)])
            assert (estimates[same] == 0.0).all()
            assert (tags[same] == "really-small").all()


needs_cap = pytest.mark.skipif(
    sketch_module._openblas() is None,
    reason="numpy's bundled OpenBLAS was not found, so sketch products run uncapped",
)


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test
    and put back after it."""
    get, set_ = sketch_module._openblas()
    before = get()
    set_(2)
    yield get
    set_(before)


class TestBlasCap:
    """sketch_dataset holds numpy's OpenBLAS at one thread while it runs and
    cuts each block of F in two, one product a half, over the lanes."""

    @pytest.mark.parametrize("rows, cut", [(1, 0), (2, 1), (40, 20), (128, 64), (129, 64),
                                           (256, 128), (320, 192), (1000, 512)])
    def test_cut_is_the_half_or_a_tile_edge(self, rows, cut):
        assert sketch_module._cut(rows) == cut

    @needs_cap
    def test_count_is_restored_after_return_and_error(self, blas_threads, monkeypatch):
        seen = []
        fill = sketch_module._fill_cauchy

        def recording(rng, out):
            seen.append(blas_threads())
            return fill(rng, out)

        monkeypatch.setattr(sketch_module, "_fill_cauchy", recording)
        sketch_dataset(np.ones((3, 5)), 8, SEED)
        assert set(seen) == {1}
        assert blas_threads() == 2
        with pytest.raises(ValueError, match="overflow float64"):
            sketch_dataset(np.full((2, 1), 1e308), 64, SEED)
        assert blas_threads() == 2

    @needs_cap
    def test_count_is_restored_after_two_sketches_at_once(self, blas_threads, monkeypatch):
        # "first" finishes while "second" still runs, so a save and restore
        # per sketch would uncap "second" and leave the count it found (1).
        first_in, second_in, first_done = (threading.Event() for _ in range(3))
        seen, failures = [], []
        fill = sketch_module._fill_cauchy

        def pacing(rng, out):
            if threading.current_thread().name == "first":
                first_in.set()
                second_in.wait(10)
            else:
                second_in.set()
                first_done.wait(10)
                seen.append(blas_threads())
            return fill(rng, out)

        def sketch(after):
            try:
                after.wait(10)
                sketch_dataset(np.ones((3, 5)), 8, SEED)
            except BaseException as exc:  # re-raised in the test below
                failures.append(exc)

        monkeypatch.setattr(sketch_module, "_fill_cauchy", pacing)
        started = threading.Event()
        started.set()
        threads = [threading.Thread(target=sketch, args=(started,), name="first"),
                   threading.Thread(target=sketch, args=(first_in,), name="second")]
        for thread in threads:
            thread.start()
        threads[0].join(10)
        first_done.set()
        threads[1].join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert seen and set(seen) == {1}
        assert blas_threads() == 2

    @needs_cap
    def test_count_survives_many_sketches_at_once(self, blas_threads, monkeypatch):
        # More threads than CPUs, switching often: a lost update of the
        # number of sketches running would uncap a running sketch or leave
        # the cap on after the last.
        seen, failures = [], []
        fill = sketch_module._fill_cauchy

        def recording(rng, out):
            seen.append(blas_threads())
            return fill(rng, out)

        def sketches():
            try:
                for _ in range(50):
                    sketch_dataset(np.ones((2, 3)), 4, SEED)
            except BaseException as exc:  # re-raised in the test below
                failures.append(exc)

        monkeypatch.setattr(sketch_module, "_fill_cauchy", recording)
        threads = [threading.Thread(target=sketches) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert len(seen) == 4 * 50 * 2 and set(seen) == {1}
        assert blas_threads() == 2

    @needs_cap
    @pytest.mark.parametrize("n, d, k, splits", [
        (6, 4096, 512, 2),   # two blocks of 256 rows, each cut at 128
        (5, 3000, 1000, 3),  # blocks of 320 rows cut at 192, a last one of 40 on one lane
        (7, 4000, 100, 1),   # k < 128: one block cut at 50
    ])
    def test_lanes_change_no_bytes(self, monkeypatch, n, d, k, splits):
        points = make_generator(RngSeed(5, 16)).standard_normal((n, d))
        calls = []
        split = sketch_module._split_stream

        def counting(*args):
            calls.append(1)
            split(*args)

        monkeypatch.setattr(sketch_module, "_split_stream", counting)
        sketches = []
        for lanes in (1, 2):
            monkeypatch.setattr(cauchy_module, "_LANES", lanes)
            calls.clear()
            sketches.append(sketch_dataset(points, k, SEED))
            assert len(calls) == (splits if lanes == 2 else 0)
        assert sketches[0].tobytes() == sketches[1].tobytes()
        # Each lane multiplies the rows of F its half covers.
        entries = build_projection(k, d, SEED).entries
        scale = np.abs(points) @ np.abs(entries).T
        assert np.all(np.abs(sketches[1] - points @ entries.T) <= d * np.finfo(float).eps * scale)

    @needs_cap
    def test_overflow_in_the_second_lane_raises(self, monkeypatch):
        # The second lane's rows of F are set to 1e306, so only its half of
        # the product overflows. np.errstate holds per thread: a lane that
        # did not enter its own would warn, and the RuntimeWarning (an error
        # under this suite's filter) would surface in place of ValueError.
        monkeypatch.setattr(cauchy_module, "_LANES", 2)
        fill = sketch_module._fill_cauchy

        def second_lane_huge(rng, out):
            fill(rng, out)
            if threading.current_thread() is not threading.main_thread():
                out.fill(1e306)
            return out

        monkeypatch.setattr(sketch_module, "_fill_cauchy", second_lane_huge)
        with pytest.raises(ValueError, match="overflow float64"):
            sketch_dataset(np.ones((3, 4000)), 100, SEED)

    def test_without_openblas_the_halves_run_on_one_lane(self, monkeypatch):
        monkeypatch.setattr(cauchy_module, "_LANES", 2)
        monkeypatch.setattr(sketch_module, "_openblas", lambda: None)
        calls = []
        monkeypatch.setattr(sketch_module, "_split_stream", lambda *args: calls.append(1))
        points = make_generator(RngSeed(5, 17)).standard_normal((4, 4000))
        coords = sketch_dataset(points, 100, SEED)
        assert not calls
        entries = build_projection(100, 4000, SEED).entries
        scale = np.abs(points) @ np.abs(entries).T
        assert np.all(np.abs(coords - points @ entries.T) <= 4000 * np.finfo(float).eps * scale)


class TestSketchConfig:
    def test_target_dimension_override(self, tmp_path):
        # --k replaces the planned dimension (338846 at eps = 0.25, N = 100, c = 3)
        rng = make_generator(RngSeed(5, 13))
        dataset = tmp_path / "points.bin"
        write_binary_matrix(str(dataset), rng.standard_normal((100, 3)))
        out = str(tmp_path / "sk.bin")
        code = main(
            ["sketch", "--input", str(dataset), "--format", "bin", "--output", out,
             "--epsilon", "0.25", "--c", "3", "--k", "77"]
        )
        assert code == 0
        assert read_binary_matrix(out).shape == (100, 77)
        assert json.loads(open(out + ".json").read())["k"] == 77


class TestRegimeTag:
    def test_tags(self):
        eps, lambda0 = 0.25, 1e-12
        assert regime_tag(2.0, eps, lambda0) == "large"
        assert regime_tag(math.sqrt(1.25), eps, lambda0) == "large"  # sqrt(1+eps) included
        assert regime_tag(1.0, eps, lambda0) == "small"
        assert regime_tag(0.51, eps, lambda0) == "small"
        assert regime_tag(0.5, eps, lambda0) == "unproven-upper"  # 8 eps^2 included
        assert regime_tag(0.0, eps, lambda0) == "really-small"
        # at or below the max-of-iid cutoff the two-sided band is proven
        assert regime_tag(1e-13, eps, lambda0) == "really-small"
        assert regime_tag(1e-12, eps, lambda0) == "really-small"
        # between the cutoff and 8 eps^2 the upper tail is an open case
        assert regime_tag(0.4, eps, lambda0) == "unproven-upper"

    def test_array_matches_scalar(self):
        estimates = np.array([[2.0, 1.0, 0.0], [1e-13, 0.4, 1e-11]])
        tags = regime_tag(estimates, 0.25, lambda0=1e-12)
        assert tags.shape == (2, 3)
        assert tags.tolist() == [
            [regime_tag(e, 0.25, lambda0=1e-12) for e in row] for row in estimates.tolist()
        ]
        assert tags.tolist() == [
            ["large", "small", "really-small"], ["really-small", "unproven-upper", "unproven-upper"]
        ]
        with pytest.raises(ValueError):
            regime_tag(np.array([1.0, math.nan]), 0.25, 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            regime_tag(-1.0, 0.25, 1e-12)
        with pytest.raises(ValueError):
            regime_tag(1.0, 0.3, 1e-12)

    def test_lambda0_must_be_finite_and_nonnegative(self):
        for lambda0 in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError):
                regime_tag(1e-3, 0.25, lambda0)
        # a plan's lambda0 can underflow to 0, which stays valid
        assert regime_tag(0.0, 0.25, 0.0) == "really-small"


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "m.bin")
        arr = np.arange(12.0).reshape(3, 4)
        write_binary_matrix(path, arr)
        back = read_binary_matrix(path)
        assert np.array_equal(back, arr)
        assert back.dtype == np.float64

    def test_layout(self, tmp_path):
        # two little-endian uint64 (rows, cols), then row-major float64
        path = str(tmp_path / "m.bin")
        write_binary_matrix(path, np.array([[1.5, -2.0]]))
        raw = open(path, "rb").read()
        assert len(raw) == 16 + 16
        assert np.frombuffer(raw[:16], dtype="<u8").tolist() == [1, 2]
        assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [1.5, -2.0]

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "m.bin")
        write_binary_matrix(path, np.ones((2, 2)))
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-8])
        with pytest.raises(DatasetFormatError):
            read_binary_matrix(path)

    def test_trailing_garbage(self, tmp_path):
        path = str(tmp_path / "m.bin")
        write_binary_matrix(path, np.ones((2, 2)))
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 8)
        with pytest.raises(DatasetFormatError):
            read_binary_matrix(path)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"", "truncated header"),
            (np.array([2], dtype="<u8").tobytes(), "truncated header"),
            (np.array([0, 3], dtype="<u8").tobytes(), r"empty dataset \(0 x 3\)"),
        ],
    )
    def test_short_or_empty_header(self, tmp_path, raw, message):
        path = tmp_path / "m.bin"
        path.write_bytes(raw)
        with pytest.raises(DatasetFormatError, match=message):
            read_binary_matrix(str(path))

    def test_write_takes_only_a_matrix(self, tmp_path):
        path = tmp_path / "m.bin"
        for array in (np.ones(3), np.ones((1, 2, 3))):
            with pytest.raises(ValueError, match="expected a 2-d array"):
                write_binary_matrix(str(path), array)
        assert not path.exists()

    def test_absurd_header(self, tmp_path):
        path = str(tmp_path / "m.bin")
        with open(path, "wb") as handle:
            handle.write(np.array([2**40, 2**40], dtype="<u8").tobytes())
        with pytest.raises(DatasetFormatError):
            read_binary_matrix(path)

    def test_header_larger_than_the_file_allocates_nothing(self, tmp_path):
        # 32,768 x 65,536 entries is within the entry budget, and reading
        # that payload would allocate 16 GiB; the 48-byte file is rejected
        # from its size first.
        path = str(tmp_path / "m.bin")
        with open(path, "wb") as handle:
            handle.write(np.array([32_768, 65_536], dtype="<u8").tobytes())
            handle.write(np.ones(4, dtype="<f8").tobytes())
        tracemalloc.start()
        try:
            with pytest.raises(DatasetFormatError, match="payload has 4 values"):
                read_binary_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_nonfinite_payload(self, tmp_path):
        path = str(tmp_path / "m.bin")
        with open(path, "wb") as handle:
            handle.write(np.array([1, 1], dtype="<u8").tobytes())
            handle.write(np.array([math.inf], dtype="<f8").tobytes())
        with pytest.raises(DatasetFormatError):
            read_binary_matrix(path)


class TestCsvFormat:
    def test_plain_rows(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n3.0,4.5\n")
        assert np.array_equal(read_csv_matrix(str(path)), [[1.0, 2.0], [3.0, 4.5]])

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.5\n")
        assert np.array_equal(read_csv_matrix(str(path)), [[1.0, 2.0], [3.0, 4.5]])

    def test_byte_order_mark_before_data_keeps_the_first_row(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2,3\n4,5,6\n7,8,9\n")
        assert np.array_equal(read_csv_matrix(str(path)), [[1, 2, 3], [4, 5, 6], [7, 8, 9]])

    def test_byte_order_mark_before_header_skips_only_the_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\n1.0,2.0\n3.0,4.5\n")
        assert np.array_equal(read_csv_matrix(str(path)), [[1.0, 2.0], [3.0, 4.5]])

    def test_quoted_header_spanning_lines(self, tmp_path):
        # loadtxt skips every line the header takes, blank lines around it too
        path = tmp_path / "pts.csv"
        path.write_text('\n"x\nunit",y\n\n1.0,2.0\n3.0,4.5\n')
        assert np.array_equal(read_csv_matrix(str(path)), [[1.0, 2.0], [3.0, 4.5]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n\n3.0,4.5\n\n")
        assert read_csv_matrix(str(path)).shape == (2, 2)

    def test_scientific_notation(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1e-3,2E+4\n-0.5,+1.25\n")
        assert np.allclose(read_csv_matrix(str(path)), [[1e-3, 2e4], [-0.5, 1.25]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DatasetFormatError):
            read_csv_matrix(str(path))

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n3.0,abc\n")
        with pytest.raises(DatasetFormatError):
            read_csv_matrix(str(path))

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n3.0,nan\n")
        with pytest.raises(DatasetFormatError):
            read_csv_matrix(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError):
            read_csv_matrix(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n")
        with pytest.raises(DatasetFormatError):
            read_csv_matrix(str(path))

    def test_header_and_blank_lines_only_rejected_without_warning(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("\n\nx,y\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError, match="no data rows"):
                read_csv_matrix(str(path))

    def test_grammar_matches_float(self, tmp_path):
        # Padded, quoted, signed and dot-edged fields, CRLF, a quoted numeric
        # first row (data, not a header) and a subnormal.
        path = tmp_path / "pts.csv"
        rows = ['"1","2",-0,.5', " 5. , +1.25 ,1e-320,4.9e-324", "\n", "-1.5E3,2e+0,0,7"]
        path.write_bytes("\r\n".join(rows).encode())
        data = read_csv_matrix(str(path))
        fields = [f.strip().strip('"') for row in rows if row.strip() for f in row.split(",")]
        expected = np.array([float(f) for f in fields]).reshape(3, 4)
        assert np.array_equal(data.view(np.uint64), expected.view(np.uint64))

    def test_parse_is_float_bit_for_bit(self, tmp_path):
        # Random bit patterns (all exponents), subnormals and -0, written as
        # %.17g and as the shortest repr; loadtxt reads what float() reads.
        rng = np.random.default_rng(9)
        values = rng.integers(0, 2**64, size=2000, dtype=np.uint64).view(np.float64)
        subnormals = rng.integers(1, 2**52, size=200, dtype=np.uint64).view(np.float64)
        values = np.concatenate([values[np.isfinite(values)], subnormals, -subnormals, [0.0, -0.0]])
        fields = [f"{v:.17g}" for v in values.tolist()] + [repr(v) for v in values.tolist()]
        fields = fields[: len(fields) // 8 * 8]
        path = tmp_path / "pts.csv"
        path.write_text("".join(",".join(fields[i : i + 8]) + "\n" for i in range(0, len(fields), 8)))
        data = read_csv_matrix(str(path))
        expected = np.array([float(f) for f in fields]).reshape(-1, 8)
        assert np.array_equal(data.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize(
        "row", ["1_000,2", "\u0661,2", "\uff11,2", "0x10,2", "1,2,", "#1,2", "1e309,2", "inf,2"]
    )
    def test_outside_grammar_rejected(self, tmp_path, row):
        # float() reads the first three (underscore, Arabic-Indic and
        # fullwidth digits); loadtxt does not. Hex, a trailing comma and '#'
        # fail to parse; an overflowing or infinite value is not finite.
        path = tmp_path / "pts.csv"
        path.write_text(f"x,y\n3,4\n{row}\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError):
            read_csv_matrix(str(path))

    @pytest.mark.parametrize(
        "content",
        [b"3,\xff\n", b"1,2\n" * 5000 + b"3,\xff\n", b'"' + b"1" * 200_000 + b'",2\n'],
        ids=["undecodable-first-row", "undecodable-later-row", "overlong-field"],
    )
    def test_unreadable_bytes_rejected(self, tmp_path, content):
        # Undecodable in the rows the header scan reads or past them, and a
        # field past the csv module's 131,072-character limit.
        path = tmp_path / "pts.csv"
        path.write_bytes(content)
        with pytest.raises(DatasetFormatError):
            read_csv_matrix(str(path))

    def test_read_points_dispatch(self, tmp_path):
        csv_path = tmp_path / "pts.csv"
        csv_path.write_text("1.0,2.0\n3.0,4.0\n")
        bin_path = str(tmp_path / "pts.bin")
        write_binary_matrix(bin_path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(read_points(str(csv_path), "csv"), read_points(bin_path, "bin"))
        with pytest.raises(ValueError):
            read_points(str(csv_path), "json")


class TestEndToEndAccuracy:
    def test_pairwise_estimates_within_band(self):
        # Planned-k behavior is exercised statistically in the acceptance
        # suite; here a fixed k = 2000 run must land within the eps band
        # for a seeded draw (failure probability at this k is ~1e-3).
        rng = make_generator(RngSeed(5, 11))
        points = rng.standard_normal((4, 6)) * 3.0
        coords = sketch_dataset(points, 2000, SEED)
        for i in range(4):
            for j in range(i + 1, 4):
                truth = float(np.sum(np.abs(points[i] - points[j])))
                estimate = mu_inverse(rho(coords[i], coords[j]))
                assert (1.0 - 0.25) * truth <= estimate <= (1.0 + 0.25) * truth

    def test_rho_symmetric_across_dataset(self):
        coords = sketch_dataset(np.eye(3), 64, SEED)
        assert rho(coords[0], coords[1]) == pytest.approx(rho(coords[1], coords[0]), abs=1e-15)


class TestCancellationLimit:
    """Each sketch coordinate is rounded to about 2^-53 of its size, so a
    difference u_i - v_i of two rows is off by about 2e-16 ||x||_1 /
    ||x - y||_1 of itself (README, "Precision limit")."""

    D, K = 32, 1024

    def _pair(self, ratio):
        # x of l1 norm 1 and y = x + ratio z, z of l1 norm 1
        rng = make_generator(RngSeed(5, 12))
        x = rng.standard_normal(self.D)
        x /= np.sum(np.abs(x))
        z = rng.standard_normal(self.D)
        z /= np.sum(np.abs(z))
        return x, x + ratio * z

    def _estimates(self, x, y):
        # (sketch differences, the differences sketched directly, the
        # estimate from each, the true distance)
        coords = sketch_dataset(np.stack([x, y]), self.K, SEED)
        exact = (x - y) @ build_projection(self.K, self.D, SEED).entries.T
        sketched = coords[0] - coords[1]
        zeros = np.zeros(self.K)
        return (
            sketched,
            exact,
            float(mu_inverse(rho(sketched, zeros))),
            float(mu_inverse(rho(exact, zeros))),
            float(np.sum(np.abs(x - y))),
        )

    @pytest.mark.parametrize("ratio", [1e-8, 1e-12, 1e-14])
    def test_difference_error_follows_the_stated_limit(self, ratio):
        sketched, exact, estimate, cancellation_free, _ = self._estimates(*self._pair(ratio))
        error = float(np.median(np.abs(sketched - exact) / np.abs(exact)))
        assert 2e-17 / ratio <= error <= 1e-15 / ratio
        # the mean of xi averages the rounding: down to 1e-14 it moves the
        # estimate by under 1%
        assert estimate == pytest.approx(cancellation_free, rel=0.01)

    def test_a_last_bit_difference_is_rounding_alone(self):
        # y differs from x in the last bit of one coordinate: most sketch
        # differences round to 0 and the estimate says nothing.
        x, _ = self._pair(0.0)
        y = x.copy()
        y[0] = np.nextafter(x[0], np.inf)
        sketched, exact, estimate, cancellation_free, truth = self._estimates(x, y)
        assert np.count_nonzero(sketched == 0.0) > self.K // 2
        assert cancellation_free == pytest.approx(truth, rel=0.25)
        assert estimate < 0.5 * truth
