"""Projection construction, sketching, distance estimation, regime tags,
and the dataset file formats."""

import json
import math

import numpy as np
import pytest

from cauchysketch.cauchy import RngSeed, make_generator, sample_standard_cauchy
from cauchysketch.cli import main
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
        eps = 0.25
        assert regime_tag(2.0, eps) == "large"
        assert regime_tag(1.0, eps) == "small"
        assert regime_tag(0.0, eps) == "really-small"
        # at or below the max-of-iid cutoff the two-sided band is proven
        assert regime_tag(1e-13, eps, lambda0=1e-12) == "really-small"
        # between the cutoff and 8 eps^2 the upper tail is an open case
        assert regime_tag(0.4, eps, lambda0=1e-12) == "unproven-upper"
        # without a cutoff the conservative tag applies
        assert regime_tag(1e-13, eps) == "unproven-upper"

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
            regime_tag(np.array([1.0, math.nan]), 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            regime_tag(-1.0, 0.25)
        with pytest.raises(ValueError):
            regime_tag(1.0, 0.3)


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

    def test_absurd_header(self, tmp_path):
        path = str(tmp_path / "m.bin")
        with open(path, "wb") as handle:
            handle.write(np.array([2**40, 2**40], dtype="<u8").tobytes())
        with pytest.raises(DatasetFormatError):
            read_binary_matrix(path)

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
