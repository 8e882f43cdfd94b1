"""The command-line surface: exit codes, file contracts, determinism."""

import argparse
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cauchysketch.cauchy as cauchy_module
import cauchysketch.cli as cli_module
import cauchysketch.metric as metric_module
import cauchysketch.sketch as sketch_module
from cauchysketch.cli import cmd_estimate, main
from cauchysketch.concentration import max_abs_plan, plan_dimension
from cauchysketch.metric import rho
from cauchysketch.moments import mu, mu_inverse
from cauchysketch.sketch import _product_threads, read_binary_matrix, regime_tag, write_binary_matrix
from cauchysketch.verify import SUITES
from dispatch import assert_frozen
from test_metric import _OBJECTS, _lane_bytes

SRC = str(Path(__file__).resolve().parent.parent / "src")

POINTS_CSV = "0.0,0.0\n1.0,2.5\n-0.5,1.0\n4.0,-1.0\n"


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(POINTS_CSV)
    return str(path)


def run_sketch(dataset, tmp_path, *extra):
    out = str(tmp_path / "sk.bin")
    code = main(
        ["sketch", "--input", dataset, "--output", out, "--epsilon", "0.25",
         "--k", "400", "--seed", "7", *extra]
    )
    assert code == 0
    return out


class TestPlan:
    def test_prints_regimes_and_k(self, capsys):
        assert main(["plan", "--epsilon", "0.25", "--n", "100"]) == 0
        out = capsys.readouterr().out
        assert "large-upper" in out
        assert "<- binding" in out
        assert out.strip().endswith("= 338846")

    def test_json_output(self, tmp_path, capsys):
        out = str(tmp_path / "plan.json")
        assert main(["plan", "--epsilon", "0.25", "--n", "100", "--output", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["type"] == "chernoff-plan"
        assert payload["k"] == 338846
        assert payload["binding_regime"] == "large-upper"
        assert set(payload["regimes"]) == {
            "large-upper", "large-lower", "small-upper", "small-lower",
            "really-small-lower",
        }

    def test_output_bytes_are_frozen(self, tmp_path, capsys):
        # sha256 of the stdout and the --output JSON as 0.13.0 wrote them
        out = tmp_path / "plan.json"
        assert main(["plan", "--epsilon", "0.25", "--n", "100", "--output", str(out)]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "1071b86b430bf57eb92ddf2ec4385803755295a1c29c07c914edc989fd55c00c"
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e1927161610d9295afa0f4d660126406077294da25843d135e493c51d1d5d93f"
        )

    def test_infeasible_exits_2(self, capsys):
        assert main(["plan", "--epsilon", "0.5", "--n", "100"]) == 2
        for c in ("400.0", "310"):
            assert main(["plan", "--epsilon", "0.25", "--n", "10", "--c", c]) == 2
            assert "N^(-c) underflows" in capsys.readouterr().err

    @pytest.mark.parametrize("n, c", [(10, "305"), (2, "998")])
    def test_plan_refuses_what_sketch_refuses(self, tmp_path, capsys, n, c):
        # The planned k (42,105,977 and 40,879,716) makes k e N^c overflow;
        # sketch stops at that gate before it draws a projection.
        path = tmp_path / "points.csv"
        path.write_text("".join(f"{i},0\n" for i in range(n)))
        assert main(["plan", "--epsilon", "0.25", "--n", str(n), "--c", c]) == 2
        assert main(["sketch", "--input", str(path), "--output", str(tmp_path / "sk.bin"),
                     "--epsilon", "0.25", "--c", c]) == 2
        assert capsys.readouterr().err.count("k e N^c overflows") == 2
        assert not os.path.exists(tmp_path / "sk.bin")


class TestSketch:
    def test_writes_matrix_and_sidecar(self, dataset, tmp_path):
        out = run_sketch(dataset, tmp_path)
        matrix = read_binary_matrix(out)
        assert matrix.shape == (4, 400)
        meta = json.loads(open(out + ".json").read())
        assert meta["k"] == 400
        assert meta["d"] == 2
        assert meta["n_points"] == 4
        assert meta["seed"] == 7
        assert meta["generator"] == "pcg64-seedseq"

    def test_rerun_byte_identical(self, dataset, tmp_path):
        a = run_sketch(dataset, tmp_path)
        blob_a = open(a, "rb").read()
        meta_a = open(a + ".json", "rb").read()
        b = run_sketch(dataset, tmp_path)
        assert open(b, "rb").read() == blob_a
        assert open(b + ".json", "rb").read() == meta_a

    def test_stream_changes_output(self, dataset, tmp_path):
        a = open(run_sketch(dataset, tmp_path), "rb").read()
        b = open(run_sketch(dataset, tmp_path, "--stream", "1"), "rb").read()
        assert a != b

    def test_binary_input_roundtrip(self, dataset, tmp_path):
        bin_in = str(tmp_path / "points.bin")
        write_binary_matrix(bin_in, np.array([[0.0, 0.0], [1.0, 2.5], [-0.5, 1.0], [4.0, -1.0]]))
        out = str(tmp_path / "sk2.bin")
        code = main(
            ["sketch", "--input", bin_in, "--format", "bin", "--output", out,
             "--epsilon", "0.25", "--k", "400", "--seed", "7"]
        )
        assert code == 0
        csv_out = run_sketch(dataset, tmp_path)
        assert open(out, "rb").read() == open(csv_out, "rb").read()

    def test_io_failures_exit_3(self, tmp_path, capsys):
        assert main(
            ["sketch", "--input", str(tmp_path / "missing.csv"),
             "--output", str(tmp_path / "x.bin"), "--epsilon", "0.25", "--k", "4"]
        ) == 3
        # float() reads "1_000" as 1000; the CSV grammar does not
        underscored = tmp_path / "underscored.csv"
        underscored.write_text("1_000,2\n3,4\n")
        assert main(
            ["sketch", "--input", str(underscored), "--output", str(tmp_path / "z.bin"),
             "--epsilon", "0.25", "--k", "4"]
        ) == 3
        lonely = tmp_path / "one.csv"
        lonely.write_text("1.0,2.0\n")
        assert main(
            ["sketch", "--input", str(lonely), "--output", str(tmp_path / "y.bin"),
             "--epsilon", "0.25", "--k", "4"]
        ) == 3

    @pytest.mark.parametrize("first", ["1,2,3,", "1,,3", '"1", "2",3'], ids=["trailing", "empty", "spaced"])
    def test_first_row_with_an_empty_or_malformed_field_exits_3(self, tmp_path, capsys, first):
        # Stripped of spaces and quotes, each field is a number or empty,
        # so the row is data, not a header, and fails as a later row would.
        path = tmp_path / "points.csv"
        path.write_text(f"{first}\n4,5,6\n7,8,9\n")
        out = tmp_path / "sk.bin"
        assert main(["sketch", "--input", str(path), "--output", str(out), "--epsilon", "0.25",
                     "--k", "4"]) == 3
        assert "at row 0, column" in capsys.readouterr().err
        assert not out.exists()

    def test_header_with_an_empty_field_is_skipped(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x,,z\n1,2,3\n4,5,6\n")
        out = tmp_path / "sk.bin"
        assert main(["sketch", "--input", str(path), "--output", str(out), "--epsilon", "0.25",
                     "--k", "4"]) == 0
        assert json.loads((tmp_path / "sk.bin.json").read_text())["n_points"] == 2

    @pytest.mark.parametrize("failing_replace", [1, 2])
    def test_interrupted_write_leaves_no_stale_sidecar(
        self, dataset, tmp_path, monkeypatch, capsys, failing_replace
    ):
        # Replacing the matrix (1) or the sidecar (2) fails on a rerun with
        # another seed, after the old sidecar is gone: the old or the new
        # matrix is left without a sidecar, which estimate refuses.
        out = run_sketch(dataset, tmp_path)
        old_matrix = open(out, "rb").read()
        real_replace = os.replace
        calls = []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == failing_replace:
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert main(
            ["sketch", "--input", dataset, "--output", out, "--epsilon", "0.25",
             "--k", "400", "--seed", "8"]
        ) == 3
        monkeypatch.undo()
        assert calls == [out, out + ".json"][:failing_replace]
        assert sorted(os.listdir(tmp_path)) == ["points.csv", "sk.bin"]
        assert (open(out, "rb").read() == old_matrix) == (failing_replace == 1)
        assert main(["estimate", "--input", out]) == 3

    def test_bad_epsilon_exits_2(self, dataset, tmp_path):
        assert main(
            ["sketch", "--input", dataset, "--output", str(tmp_path / "z.bin"),
             "--epsilon", "0.5"]
        ) == 2

    def test_rejected_parameters_exit_2(self, dataset, tmp_path):
        # --k skips the planner, not the parameter ranges; a repeated flag
        # overrides the value given before it
        out = tmp_path / "r.bin"
        for flags in (["--epsilon", "0.3"], ["--epsilon", "0"], ["--c", "2.5"], ["--c", "nan"],
                      ["--k", "0"], ["--k", "-3"]):
            assert main(["sketch", "--input", dataset, "--output", str(out),
                         "--epsilon", "0.25", "--k", "16", *flags]) == 2, flags
            assert not out.exists()

    def test_unestimable_c_exits_2(self, tmp_path):
        # For N = 10, N^(-c) underflows at c = 400, and k e N^c overflows
        # at c = 307 with k = 16: estimate could not plan lambda0, so the
        # sketch is refused
        path = tmp_path / "ten.csv"
        path.write_text("".join(f"{i}.0,{i % 3}.0\n" for i in range(10)))
        out = tmp_path / "c.bin"
        for c in ("400", "307"):
            assert main(["sketch", "--input", str(path), "--output", str(out), "--epsilon", "0.25",
                         "--k", "16", "--c", c]) == 2, c
            assert not out.exists()

    def test_sketch_rows_too_far_apart_exit_2(self, tmp_path):
        # each sketch coordinate is finite, but the two rows differ by
        # more than the largest float: refused at sketch, not at estimate
        path = tmp_path / "far.csv"
        path.write_text("1e308,0.0\n-1e308,0.0\n")
        out = tmp_path / "far.bin"
        assert main(["sketch", "--input", str(path), "--output", str(out), "--epsilon", "0.25",
                     "--k", "1", "--seed", "6"]) == 2
        assert not out.exists()

    def test_planned_k_without_flag(self, dataset, tmp_path):
        out = str(tmp_path / "planned.bin")
        assert main(["sketch", "--input", dataset, "--output", out, "--epsilon", "0.25"]) == 0
        k = plan_dimension(0.25, 4, 3.0).k
        assert read_binary_matrix(out).shape == (4, k)
        assert json.loads(open(out + ".json").read())["k"] == k

    def test_blas_thread_count_does_not_change_bytes(self, tmp_path):
        # N x d times d x k is large enough for BLAS to split the product
        # over threads; these bytes agreed under 1 and 2 BLAS threads at
        # 0.18.0 too.
        blobs = _sketch_under_blas_threads(tmp_path, 64, 1024, 1024)
        assert blobs[0] == blobs[1]

    def test_capped_products_keep_bytes_that_threads_changed(self, tmp_path):
        # 0.18.0 wrote other bytes here under 1 and 2 BLAS threads; every
        # product of a sketch now runs on one.
        if _product_threads() is None:
            pytest.skip("numpy's bundled OpenBLAS was not found, so sketch products "
                        "run on BLAS's own thread count")
        blobs = _sketch_under_blas_threads(tmp_path, 57, 3000, 1000)
        assert blobs[0] == blobs[1]

    def test_sidecar_records_the_blas_thread_count(self, dataset, tmp_path, monkeypatch):
        meta = json.loads(open(run_sketch(dataset, tmp_path) + ".json").read())
        assert meta["blas_threads"] == _product_threads()
        # Without numpy's OpenBLAS the products run on BLAS's own count.
        monkeypatch.setattr(sketch_module, "_openblas", lambda: None)
        meta = json.loads(open(run_sketch(dataset, tmp_path) + ".json").read())
        assert meta["blas_threads"] is None


def _sketch_under_blas_threads(tmp_path, n, d, k):
    """The bytes `sketch` writes for n x d normal points at k, in a process
    with OPENBLAS_NUM_THREADS=1 and one with 2."""
    points = str(tmp_path / "points.bin")
    write_binary_matrix(points, np.random.default_rng(3).standard_normal((n, d)))
    blobs = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"sk{threads}.bin")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run(
            [sys.executable, "-m", "cauchysketch.cli", "sketch", "--input", points,
             "--format", "bin", "--output", out, "--epsilon", "0.25", "--k", str(k),
             "--seed", "11"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        blobs.append(open(out, "rb").read())
    return blobs


class TestEstimate:
    def test_all_pairs_with_regime_tags(self, dataset, tmp_path, capsys):
        sk = run_sketch(dataset, tmp_path)
        capsys.readouterr()  # drop the sketch status line
        assert main(["estimate", "--input", sk]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "i,j,rho,estimate,regime"
        assert len(lines) == 1 + 4 * 3 // 2
        first = lines[1].split(",")
        assert (int(first[0]), int(first[1])) == (0, 1)
        float(first[2]), float(first[3])
        assert first[4] in {"large", "small", "really-small", "unproven-upper"}

    def test_output_file_matches_stdout(self, dataset, tmp_path, capsys):
        sk = run_sketch(dataset, tmp_path)
        capsys.readouterr()
        main(["estimate", "--input", sk])
        stdout = capsys.readouterr().out
        out = str(tmp_path / "pairs.csv")
        assert main(["estimate", "--input", sk, "--output", out]) == 0
        assert open(out).read() == stdout

    def test_identical_points_estimate_zero(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("3.0,4.0\n3.0,4.0\n")
        sk = run_sketch(str(path), tmp_path)
        capsys.readouterr()
        main(["estimate", "--input", sk])
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[2]) == 0.0
        assert float(row[3]) == 0.0

    def test_missing_or_broken_sidecar_exits_3(self, dataset, tmp_path, capsys):
        sk = run_sketch(dataset, tmp_path)
        meta = sk + ".json"
        os.remove(meta)
        assert main(["estimate", "--input", sk]) == 3
        with open(meta, "w") as fh:
            fh.write("{not json")
        assert main(["estimate", "--input", sk]) == 3
        with open(meta, "w") as fh:
            json.dump({"k": 400}, fh)
        assert main(["estimate", "--input", sk]) == 3
        good = {"k": 400, "n_points": 4, "epsilon": 0.25, "c": 3.0}
        # 4^-600 underflows; at c = 510, k e 4^c overflows for k = 400
        for broken in ({"k": "abc"}, {"k": None}, {"k": 400.0}, {"k": True}, {"k": 0}, {"k": 10**400},
                       {"n_points": 2.5}, {"n_points": 1}, {"c": "x"}, {"c": 2.0},
                       {"c": math.nan}, {"c": 600.0}, {"c": 510.0}, {"epsilon": 0.9},
                       {"epsilon": "0.25"}, {"epsilon": 0}):
            with open(meta, "w") as fh:
                json.dump({**good, **broken}, fh)
            assert main(["estimate", "--input", sk]) == 3, broken
        for not_an_object in ("5", "[1, 2]", '"k"'):
            with open(meta, "w") as fh:
                fh.write(not_an_object)
            assert main(["estimate", "--input", sk]) == 3, not_an_object
        # a well-formed sidecar that describes another matrix
        for other in ({"n_points": 5}, {"k": 401}):
            with open(meta, "w") as fh:
                json.dump({**good, **other}, fh)
            capsys.readouterr()
            assert main(["estimate", "--input", sk]) == 3, other
            assert "sketch shape (4, 400) does not match metadata" in capsys.readouterr().err
        with open(meta, "w") as fh:
            json.dump(good, fh)
        assert main(["estimate", "--input", sk]) == 0

    def test_pair_table_matches_per_pair_definitions(self, tmp_path):
        # k = 5000 does not divide the 65,536-element block, so each of the
        # first rows spans several blocks; the scales give all four tags.
        rng = np.random.default_rng(4)
        scales = np.repeat([1e-13, 1e-3, 0.05, 1.0], 10)[:, None]
        path = tmp_path / "mixed.csv"
        np.savetxt(path, rng.standard_normal((40, 3)) * scales, delimiter=",")
        sk, out = str(tmp_path / "mixed.bin"), str(tmp_path / "pairs.csv")
        assert main(["sketch", "--input", str(path), "--output", sk, "--epsilon", "0.25",
                     "--k", "5000", "--seed", "3"]) == 0
        assert main(["estimate", "--input", sk, "--output", out]) == 0
        coords = read_binary_matrix(sk)
        lambda0 = max_abs_plan(5000, 0.25, 40, 3.0).lambda0
        rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
        pairs = [(i, j) for i in range(40) for j in range(i + 1, 40)]
        assert [(int(r[0]), int(r[1])) for r in rows] == pairs
        rhos = np.array([float(r[2]) for r in rows])
        estimates = np.array([float(r[3]) for r in rows])
        assert {r[4] for r in rows} == {"large", "small", "really-small", "unproven-upper"}
        assert np.array_equal(mu_inverse(rhos), estimates)
        for (i, j), r, e, row in zip(pairs, rhos.tolist(), estimates.tolist(), rows):
            assert r == rho(coords[i], coords[j])
            assert abs(mu(e) - r) <= 1e-12 * r
            assert row[4] == regime_tag(e, 0.25, lambda0)
            assert e == mu_inverse(r)

    @pytest.mark.parametrize("scale", ["1e160", "1e200"])
    def test_distances_past_lambda_squared_overflow(self, tmp_path, capsys, scale):
        path = tmp_path / "far.csv"
        path.write_text(f"0.0,0.0\n{scale},-{scale}\n")
        sk = run_sketch(str(path), tmp_path)
        capsys.readouterr()
        assert main(["estimate", "--input", sk]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        estimate = float(row[3])
        assert math.isfinite(estimate)
        assert abs(estimate / (2.0 * float(scale)) - 1.0) < 0.25
        assert row[4] == "large"


class TestEstimateLanes:
    """estimate cuts every block at its middle pair and runs the halves of
    a block of 2^18 or more differences on two lanes."""

    @pytest.fixture
    def sketch(self, tmp_path):
        # 4,950 pairs at k = 64: the first block of 4,096 pairs is 2^18
        # differences; the scales give all four tags.
        rng = np.random.default_rng(8)
        path = tmp_path / "points.csv"
        scales = np.repeat([1e-13, 1e-3, 0.05, 1.0], 25)[:, None]
        np.savetxt(path, rng.standard_normal((100, 5)) * scales, delimiter=",")
        sk = str(tmp_path / "sk.bin")
        assert main(["sketch", "--input", str(path), "--output", sk, "--epsilon", "0.25",
                     "--k", "64", "--seed", "3"]) == 0
        return sk

    def test_lanes_change_no_bytes(self, sketch, tmp_path, monkeypatch):
        tables = []
        for lanes in (1, 2):
            monkeypatch.setattr(cauchy_module, "_LANES", lanes)
            assert cauchy_module._lanes(metric_module._BLOCK_PAIRS * 64) == lanes
            out = str(tmp_path / f"pairs{lanes}.csv")
            assert main(["estimate", "--input", sketch, "--output", out]) == 0
            tables.append(open(out, "rb").read())
        assert tables[0] == tables[1]
        assert {line.split(b",")[-1] for line in tables[0].splitlines()[1:]} == {
            b"large", b"small", b"really-small", b"unproven-upper"
        }

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_overflow_in_second_lane_rows_exits_2(self, sketch, monkeypatch, capsys, lanes):
        # Only the last pair, (98, 99), overflows. The spread of column 0
        # is then not finite, so on one lane or two _rho_bound rejects the
        # sketch before rho runs on any block, and no table byte is written.
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        coords = read_binary_matrix(sketch)
        coords[98, 0], coords[99, 0] = 1e308, -1e308
        write_binary_matrix(sketch, coords)
        capsys.readouterr()
        assert main(["estimate", "--input", sketch]) == 2
        captured = capsys.readouterr()
        assert "rho needs rows whose differences are finite" in captured.err
        assert captured.out == ""


class TestOneCpuRunsTheSameHalves:
    """One lane runs the halves two lanes run: the jump-ahead cut of each
    sketch block and the middle-pair cut of each estimate block."""

    def test_one_lane_cuts_what_two_lanes_cut(self, tmp_path, monkeypatch):
        # N = 400, d = 4096, k = 64: the sketch is one block of 2^18 draws,
        # cut at row 32, and the first 19 of the 20 estimate blocks hold
        # 2^18 differences, the last 126,464.
        points = str(tmp_path / "points.bin")
        write_binary_matrix(points, np.random.default_rng(31).standard_normal((400, 4096)))
        spans, cuts = [], []
        rho_span, split_stream = metric_module._rho_span, sketch_module._split_stream

        def recording_span(coords, i, j, out, *scratch):
            spans.append((i, j, out.size))
            rho_span(coords, i, j, out, *scratch)

        def recording_split(rng, cut, *rest):
            cuts.append(cut)
            split_stream(rng, cut, *rest)

        monkeypatch.setattr(metric_module, "_rho_span", recording_span)
        monkeypatch.setattr(sketch_module, "_split_stream", recording_split)
        runs = []
        for lanes in (1, 2):
            monkeypatch.setattr(cauchy_module, "_LANES", lanes)
            spans.clear()
            cuts.clear()
            sk, table = str(tmp_path / f"sk{lanes}.bin"), tmp_path / f"pairs{lanes}.csv"
            assert main(["sketch", "--input", points, "--format", "bin", "--output", sk,
                         "--epsilon", "0.25", "--k", "64", "--seed", "3"]) == 0
            assert main(["estimate", "--input", sk, "--output", str(table)]) == 0
            runs.append((sorted(spans), cuts[:], Path(sk).read_bytes(), table.read_bytes()))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 2 * 20
        assert runs[0][1] == [32 * 4096]


class TestEstimateBytes:
    """The estimate table of a fixed sketch keeps the bytes 0.15.0 wrote."""

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_table_bytes_are_frozen(self, tmp_path, monkeypatch, lanes):
        # The sketch is written directly, so no projection product (and no
        # BLAS) enters. At k = 5000 a stack of 13 rows ends inside a row's
        # pairs, the 4,096 pairs of the first block are cut inside a row
        # (on two lanes, two threads), and the row scales give all four
        # tags. The coordinates are exact multiples of powers of two.
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        rng = np.random.default_rng(16)
        scales = np.repeat(2.0 ** np.array([-43, -6, 1, 4]), 25)[:, None]
        coords = rng.integers(-2**40, 2**40, (100, 5000)) * 2.0**-40 * scales
        sk, out = str(tmp_path / "sk.bin"), tmp_path / "pairs.csv"
        write_binary_matrix(sk, coords)
        with open(sk + ".json", "w") as handle:
            json.dump({"k": 5000, "n_points": 100, "epsilon": 0.25, "c": 3.0}, handle)
        assert cauchy_module._lanes(4950 * 5000) == lanes
        assert main(["estimate", "--input", sk, "--output", str(out)]) == 0
        table = out.read_bytes()
        assert {line.split(b",")[-1] for line in table.splitlines()[1:]} == {
            b"large", b"small", b"really-small", b"unproven-upper"
        }
        # By the kernels numpy runs xi's log1p and mu_inverse's expm1 and
        # exp on: the AVX-512 ones, and those of a CPU without AVX-512.
        assert_frozen(
            table,
            {
                "log1p:X86_V4 expm1:X86_V4 exp:X86_V4":
                    "f7c9b68a8093af2a846c936c3c36cff27a3b38ab0db92b1512172278dbf4bd8c",
                "log1p:baseline(X86_V2) expm1:baseline(X86_V2) exp:X86_V3":
                    "752161dfa1ebfa532ac9d559f5f303ab249df6dd3ce0a4d2f0a3a12a549d69ba",
            },
            "log1p",
            "expm1",
            "exp",
        )


def _write_sketch(path, coords, epsilon=0.25, c=3.0) -> str:
    n, k = coords.shape
    write_binary_matrix(path, coords)
    with open(f"{path}.json", "w") as handle:
        json.dump({"k": k, "n_points": n, "epsilon": epsilon, "c": c}, handle)
    return str(path)


class TestEstimateBlocks:
    """estimate solves, tags and writes a block of at most _BLOCK_PAIRS
    pairs at a time."""

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_pieces_equal_the_whole(self, tmp_path, monkeypatch, block, lanes):
        # 435 pairs at k = 5000: blocks of 7 end inside rows, and on two
        # lanes every block of two or more pairs is cut at its middle pair,
        # for blocks of 7 and the one block of 4,096 inside a row; a
        # one-pair block is cut before its only pair. The row scales give
        # all four tags.
        rng = np.random.default_rng(19)
        scales = np.repeat(2.0 ** np.array([-43, -6, 1, 4]), [8, 8, 7, 7])[:, None]
        sk = _write_sketch(tmp_path / "sk.bin", rng.standard_normal((30, 5000)) * scales)
        whole, pieces = tmp_path / "whole.csv", tmp_path / "pieces.csv"
        assert main(["estimate", "--input", sk, "--output", str(whole)]) == 0
        monkeypatch.setattr(metric_module, "_BLOCK_PAIRS", block)
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        monkeypatch.setattr(cauchy_module, "_LANE_MIN_ELEMENTS", 1)
        assert main(["estimate", "--input", sk, "--output", str(pieces)]) == 0
        table = pieces.read_bytes()
        assert table == whole.read_bytes()
        assert {line.split(b",")[-1] for line in table.splitlines()[1:]} == {
            b"large", b"small", b"really-small", b"unproven-upper"
        }

    @pytest.mark.parametrize(
        "bad, message",
        [
            # Column 0 of the last pair differs by more than the largest float.
            ((1e308, -1e308), "rho needs rows whose differences are finite"),
            # Every column of the last pair differs by exactly the largest
            # float, and the mean of 51 copies of xi(float max) rounds above
            # mu(float max), so that pair has no finite estimate.
            ((np.finfo(float).max / 2, -np.finfo(float).max / 2), "above mu(float max)"),
        ],
        ids=["overflow", "past mu max"],
    )
    def test_rejects_before_the_first_byte(self, tmp_path, monkeypatch, capsys, bad, message):
        coords = np.zeros((5, 51))
        coords[:3] = np.arange(3 * 51).reshape(3, 51)
        if message.startswith("rho needs"):
            coords[3, 0], coords[4, 0] = bad
        else:
            coords[3], coords[4] = bad
        sk = _write_sketch(tmp_path / "sk.bin", coords)
        monkeypatch.setattr(metric_module, "_BLOCK_PAIRS", 1)
        out = tmp_path / "pairs.csv"
        capsys.readouterr()
        for argv in (["--output", str(out)], []):
            assert main(["estimate", "--input", sk, *argv]) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""
            assert not out.exists()

    @pytest.mark.parametrize("n", [150, 400])
    def test_memory_does_not_grow_with_n(self, tmp_path, n):
        # k = 8 keeps every block on one lane. Besides the sketch and the
        # lane's scratch tiles, estimate holds at most 48 floats a pair of
        # one block, counted in block-sized float arrays from the code: the
        # rho values (1) and, while mu_inverse runs, its working arrays
        # (about 5: the estimates, E = e^m - 1, the closed form's
        # temporaries and its boolean masks); or, after it, the estimates
        # and tags (2) and the rows of a row segment, which may be the
        # whole block (about 33: float lists of 4 and 4, a tag list of 1,
        # ~110 B a pair of row strings and the list that joins them, and
        # the ~55 B a pair joined string), plus that string encoded on
        # write (7). That is at most 43; 48 leaves a margin.
        rng = np.random.default_rng(23)
        coords = rng.standard_cauchy((n, 8)) * np.resize([1e-9, 1e-3, 1.0], n)[:, None]
        sk = _write_sketch(tmp_path / "sk.bin", coords)
        args = argparse.Namespace(input=sk, output=str(tmp_path / "pairs.csv"))
        assert cauchy_module._lanes(metric_module._BLOCK_PAIRS * 8) == 1
        tracemalloc.start()
        try:
            assert cmd_estimate(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= coords.nbytes + _lane_bytes(8) + 48 * metric_module._BLOCK_PAIRS * 8 + _OBJECTS


class TestOutputFiles:
    """--output files are written beside their resolved target and renamed
    over it once complete; a target that is not a regular file is written
    in place."""

    @staticmethod
    def _fail_in_block_3(sk, out, monkeypatch, capsys):
        # 200 points give 19,900 pairs in 5 blocks; writing the third
        # block's second row segment fails.
        real_rows = cli_module._table_rows
        blocks = []

        def rows(*args):
            blocks.append(args[1:3])
            for number, segment in enumerate(real_rows(*args)):
                if len(blocks) == 3 and number == 1:
                    raise OSError("No space left on device")
                yield segment

        monkeypatch.setattr(cli_module, "_table_rows", rows)
        capsys.readouterr()
        assert main(["estimate", "--input", sk, "--output", str(out)]) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert len(blocks) == 3

    def test_failed_estimate_leaves_the_old_table(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(29)
        sk = _write_sketch(tmp_path / "sk.bin", rng.standard_normal((200, 64)))
        out = tmp_path / "pairs.csv"
        assert main(["estimate", "--input", sk, "--output", str(out)]) == 0
        old = out.read_bytes()
        self._fail_in_block_3(sk, out, monkeypatch, capsys)
        assert out.read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == ["pairs.csv", "sk.bin", "sk.bin.json"]

    def test_failed_estimate_through_a_link_leaves_the_old_target(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(29)
        sk = _write_sketch(tmp_path / "sk.bin", rng.standard_normal((200, 64)))
        target, link = tmp_path / "pairs.csv", tmp_path / "pairs.link"
        assert main(["estimate", "--input", sk, "--output", str(target)]) == 0
        old = target.read_bytes()
        link.symlink_to(target)
        self._fail_in_block_3(sk, link, monkeypatch, capsys)
        assert link.is_symlink()
        assert target.read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == ["pairs.csv", "pairs.link", "sk.bin", "sk.bin.json"]

    def test_sketch_through_a_link_replaces_the_target(self, dataset, tmp_path, capsys):
        # The link is kept and its target gets a plain run's bytes; the
        # sidecar sits beside the link's name, where estimate looks.
        plain = Path(run_sketch(dataset, tmp_path))
        (tmp_path / "out").mkdir()
        target, link = tmp_path / "out" / "target.bin", tmp_path / "link.bin"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert main(["sketch", "--input", dataset, "--output", str(link), "--epsilon", "0.25",
                     "--k", "400", "--seed", "7"]) == 0
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == plain.read_bytes()
        assert Path(f"{link}.json").read_bytes() == Path(f"{plain}.json").read_bytes()
        assert sorted(os.listdir(tmp_path)) == [
            "link.bin", "link.bin.json", "out", "points.csv", "sk.bin", "sk.bin.json"
        ]
        assert os.listdir(target.parent) == ["target.bin"]
        assert main(["estimate", "--input", str(link)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [["plan", "--epsilon", "0.25", "--n", "100"],
         ["verify", "--suite", "specfun", "--trials", "0"]],
        ids=["plan", "verify"],
    )
    def test_fifo_is_written_in_place(self, tmp_path, capsys, argv):
        regular, fifo = tmp_path / "out.txt", tmp_path / "out.fifo"
        assert main([*argv, "--output", str(regular)]) == 0
        os.mkfifo(fifo)
        # A reader opened first lets the write open at once; the output
        # fits in the pipe's buffer.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main([*argv, "--output", str(fifo)]) == 0
            written = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert written == regular.read_bytes()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["out.fifo", "out.txt"]

    @pytest.mark.parametrize(
        "argv",
        [["plan", "--epsilon", "0.25", "--n", "100"],
         ["verify", "--suite", "specfun", "--trials", "0"]],
        ids=["plan", "verify"],
    )
    def test_symlink_is_written_through(self, tmp_path, capsys, argv):
        # As /dev/stdout redirected to a file: the link stays a link and
        # its regular target gets the bytes.
        regular, target, link = (tmp_path / name for name in ("out.txt", "target.txt", "out.link"))
        assert main([*argv, "--output", str(regular)]) == 0
        target.write_text("old\n")
        link.symlink_to(target)
        assert main([*argv, "--output", str(link)]) == 0
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == regular.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["out.link", "out.txt", "target.txt"]

    @pytest.mark.parametrize("command", ["plan", "sketch", "estimate", "verify"])
    def test_missing_directory_names_the_output(self, tmp_path, monkeypatch, capsys, command):
        # The temp file beside a target in a missing directory cannot be
        # opened; the error names the path given, not the temp.
        monkeypatch.chdir(tmp_path)
        np.savetxt("points.csv", np.random.default_rng(31).standard_normal((5, 3)), delimiter=",")
        sketch = ["sketch", "--input", "points.csv", "--epsilon", "0.25", "--k", "8"]
        assert main([*sketch, "--output", "sk.bin"]) == 0
        argv = {
            "plan": ["plan", "--epsilon", "0.25", "--n", "100"],
            "sketch": sketch,
            "estimate": ["estimate", "--input", "sk.bin"],
            "verify": ["verify", "--suite", "specfun", "--trials", "0"],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--output", "nodir/out"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] ")
        assert err.endswith(": 'nodir/out'\n")
        assert ".tmp" not in err
        assert sorted(os.listdir(tmp_path)) == ["points.csv", "sk.bin", "sk.bin.json"]

    def test_directory_target_names_the_output(self, tmp_path, monkeypatch, capsys):
        # The sketch's temp is written, then cannot replace a directory.
        monkeypatch.chdir(tmp_path)
        np.savetxt("points.csv", np.random.default_rng(31).standard_normal((5, 3)), delimiter=",")
        os.mkdir("out")
        argv = ["sketch", "--input", "points.csv", "--epsilon", "0.25", "--k", "8", "--output", "out"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: [Errno 21] Is a directory: 'out'\n"
        assert sorted(os.listdir(tmp_path)) == ["out", "points.csv"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
class TestOutputToOwnStdout:
    """--output /dev/stdout gets the bytes of --output to a file, and the
    command prints nothing else there: the output goes through fd 1 itself,
    whatever it has open, and stdout is block-buffered."""

    ARGV = {
        "plan": ["plan", "--epsilon", "0.25", "--n", "100"],
        "estimate": ["estimate", "--input", "sk.bin"],
        "verify": ["verify", "--suite", "specfun", "--trials", "0"],
    }

    @pytest.fixture
    def plain(self, command, tmp_path, monkeypatch):
        # The command's bytes through --output to a plain file, run in
        # process, beside a sketch for estimate.
        monkeypatch.chdir(tmp_path)
        np.savetxt("points.csv", np.random.default_rng(31).standard_normal((40, 3)), delimiter=",")
        assert main(["sketch", "--input", "points.csv", "--output", "sk.bin", "--epsilon", "0.25",
                     "--k", "16"]) == 0
        assert main([*self.ARGV[command], "--output", "plain.out"]) == 0
        return Path("plain.out").read_bytes()

    def _fresh(self, command, **streams):
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, "-m", "cauchysketch.cli", *self.ARGV[command], "--output", "/dev/stdout"]
        done = subprocess.run(argv, env=env, timeout=120, **streams)
        assert done.returncode == 0, done.stderr
        return done

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_redirected_to_a_file(self, command, plain):
        with open("redirected.out", "w") as stdout:
            self._fresh(command, stdout=stdout)
        assert Path("redirected.out").read_bytes() == plain
        assert not any(name.endswith(".tmp") for name in os.listdir())

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_piped(self, command, plain):
        assert self._fresh(command, capture_output=True).stdout == plain

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_appended_log_keeps_its_lines(self, command, plain):
        # As a script's `exec >> run.log`: the lines before the command,
        # its output and what the script writes after it all stay.
        Path("run.log").write_text("before\n")
        with open("run.log", "a") as stdout:
            self._fresh(command, stdout=stdout)
            stdout.write("after\n")
        assert Path("run.log").read_bytes() == b"before\n" + plain + b"after\n"

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_unlinked_file_is_read_through_the_parents_handle(self, command, plain):
        # An unlinked stdout resolves to a name like '#12 (deleted)',
        # which must not be created.
        with tempfile.TemporaryFile(dir=".") as stdout:
            self._fresh(command, stdout=stdout)
            stdout.seek(0)
            assert stdout.read() == plain
        assert sorted(os.listdir()) == ["plain.out", "points.csv", "sk.bin", "sk.bin.json"]

    @pytest.mark.parametrize("command", ["plan"])
    def test_unlinked_stderr_is_written_in_place(self, command, plain):
        # --output /dev/stderr, an unlinked file: its resolved name does
        # not exist, so the output goes to the file itself.
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-m", "cauchysketch.cli", *self.ARGV[command], "--output", "/dev/stderr"]
        with tempfile.TemporaryFile(dir=".") as stderr:
            assert subprocess.run(argv, env=env, timeout=120, stdout=subprocess.DEVNULL, stderr=stderr).returncode == 0
            stderr.seek(0)
            assert stderr.read() == plain
        assert sorted(os.listdir()) == ["plain.out", "points.csv", "sk.bin", "sk.bin.json"]


class TestVerifyCommand:
    def test_single_suite_pass(self, capsys):
        assert main(["verify", "--suite", "specfun"]) == 0
        out = capsys.readouterr().out
        assert "suite specfun:" in out
        assert "pass" in out

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "--suite", "astrology"]) == 2

    def test_out_of_memory_exits_2(self, capsys):
        # 10^18 trial means need 6.9 EiB, more than any address space, so
        # the allocation fails at once and touches nothing
        assert main(["verify", "--suite", "concentration", "--trials", str(10**18)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_gated_failure_exits_1(self, capsys):
        # seed 0 at 2000 trials puts one KS statistic just over its
        # critical value; a deterministic stand-in for a genuine failure
        assert main(["verify", "--suite", "stability", "--trials", "2000",
                     "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "FAIL 1-stability KS" in out

    def test_all_suites_with_report(self, tmp_path, capsys):
        out = str(tmp_path / "report.jsonl")
        # at 2000 trials the KS gates run near their critical values, so
        # pin a seed known to clear them; full-size runs use the default
        code = main(
            ["verify", "--suite", "all", "--trials", "2000",
             "--seed", "20240817", "--output", out]
        )
        assert code == 0
        suites = {json.loads(line)["suite"] for line in open(out)}
        assert len(suites) == 7

    def test_report_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        args = ["verify", "--suite", "tails", "--trials", "2000", "--seed", "5"]
        assert main([*args, "--output", a]) == 0
        assert main([*args, "--output", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_largest_stream_runs(self, tmp_path, capsys):
        # Suites draw from streams at offsets of up to 803 from --stream,
        # which wrap past 2^64 - 1 instead of naming a stream out of range.
        stream = str(2**64 - 1)
        assert main(["verify", "--suite", "moments", "--trials", "0", "--stream", stream]) == 0
        assert capsys.readouterr().err == ""
        out = tmp_path / "report.jsonl"
        code = main(["verify", "--suite", "all", "--trials", "10", "--stream", stream, "--output", str(out)])
        assert code in (0, 1)
        assert capsys.readouterr().err == ""
        summaries = [line for line in map(json.loads, out.read_text().splitlines()) if line.get("summary")]
        assert len(summaries) == len(SUITES)
        assert {line["stream"] for line in summaries} == {2**64 - 1}


class TestVerifySuiteLanes:
    """verify --suite all runs whole suites over two lanes, one level deep,
    and prints and writes what one lane does, apart from the (N ms) of
    each suite."""

    @staticmethod
    def _verify(monkeypatch, capsys, started_threads, lanes, *argv):
        # Both lane counts run the same two lanes; two CPUs start the
        # second as the one thread.
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        started_threads.clear()
        code = main(["verify", "--suite", "all", *argv])
        captured = capsys.readouterr()
        assert len(started_threads) == (lanes == 2)
        return code, re.sub(r"\(\d+ ms\)", "", captured.out), captured.err

    def test_lanes_keep_report_and_stdout(self, tmp_path, monkeypatch, capsys, started_threads):
        # seed 0 at 2000 trials fails one KS gate, so the FAIL lines and
        # the exit code are compared too
        results = []
        for lanes in (1, 2):
            out = tmp_path / f"{lanes}.jsonl"
            argv = ["--trials", "2000", "--seed", "0", "--output", str(out)]
            results.append((*self._verify(monkeypatch, capsys, started_threads, lanes, *argv), out.read_bytes()))
        assert results[0] == results[1]
        code, stdout, err, _ = results[0]
        assert code == 1 and err == ""
        assert [line.split(":")[0] for line in stdout.splitlines() if line.startswith("suite")] == [
            f"suite {name}" for name in sorted(SUITES)
        ]

    def test_all_suites_start_one_thread(self, monkeypatch, capsys, started_threads):
        # The second lane is the only thread: nothing a suite runs starts
        # one, though its Monte Carlo calls draw millions of values.
        monkeypatch.setattr(cauchy_module, "_LANES", 2)
        assert main(["verify", "--suite", "all", "--trials", "2000", "--seed", "20240817"]) == 0
        assert len(started_threads) == 1

    def test_first_failing_suite_in_name_order_raises(self, tmp_path, monkeypatch, capsys, started_threads):
        # Two suites raise, on either lane. moments comes first in name
        # order, so both lane counts print the two suites before it and
        # exit on its error.
        def broken(exc):
            def suite(seed, n=0):
                raise exc

            return suite

        monkeypatch.setitem(SUITES, "moments", broken(ValueError("moments broke")))
        monkeypatch.setitem(SUITES, "tails", broken(OSError("tails broke")))
        results = []
        for lanes in (1, 2):
            out = tmp_path / f"{lanes}.jsonl"
            argv = ["--trials", "2000", "--seed", "5", "--output", str(out)]
            results.append(self._verify(monkeypatch, capsys, started_threads, lanes, *argv))
            assert not out.exists()
        assert results[0] == results[1]
        code, stdout, err = results[0]
        assert code == 2 and err == "error: moments broke\n"
        assert [line.split(":")[0] for line in stdout.splitlines()] == [
            "suite concentration",
            "suite maxbound",
        ]


    def test_every_suite_runs_once_under_stress(self, monkeypatch):
        # Two runs of 500 stand-in suites at once (four lanes on at most
        # two CPUs) and a thread switch every microsecond: a suite taken
        # twice or lost by the shared iterator shows in the calls.
        monkeypatch.setattr(cauchy_module, "_LANES", 2)
        calls = []
        monkeypatch.setattr(cli_module, "run_suite", lambda name, seed, trials: calls.append(name) or name)
        names = [[f"{run}-{i}" for i in range(500)] for run in range(2)]
        outcomes = [None, None]

        def run(index):
            outcomes[index] = cli_module._run_suites(names[index], None, None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(index,)) for index in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(calls) == sorted(names[0] + names[1])
        for index in range(2):
            assert outcomes[index] == {name: name for name in names[index]}


class TestColdStart:
    """plan, sketch and estimate never load the verifier or its oracles;
    the package root and verify still reach them."""

    VERIFIER = ("cauchysketch.verify", "cauchysketch.quadrature", "cauchysketch.specfun")

    @staticmethod
    def _fresh(*argv, cwd):
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        return subprocess.run(
            [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
        )

    def test_path_commands_load_no_verifier(self, tmp_path):
        (tmp_path / "points.csv").write_text("0,0\n1,2\n3,-1\n")
        script = f"""
import sys
import cauchysketch.cli as cli
assert cli.main(["plan", "--epsilon", "0.25", "--n", "20"]) == 0
assert cli.main(["sketch", "--input", "points.csv", "--output", "sk.bin",
                 "--epsilon", "0.25", "--k", "16"]) == 0
assert cli.main(["estimate", "--input", "sk.bin", "--output", "pairs.csv"]) == 0
print(sorted(set({self.VERIFIER!r}) & set(sys.modules)))
import cauchysketch, cauchysketch.verify as verify
print(cauchysketch.SUITES is verify.SUITES, cauchysketch.run_suite is verify.run_suite)
"""
        done = self._fresh("-c", script, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-2:] == ["[]", "True True"]

    def test_unknown_suite_lists_the_suites(self, tmp_path):
        done = self._fresh("-m", "cauchysketch.cli", "verify", "--suite", "nosuch", cwd=tmp_path)
        assert done.returncode == 2
        assert done.stderr == (
            "error: unknown suite 'nosuch'; available: "
            "concentration, maxbound, moments, planner, specfun, stability, tails\n"
        )


class TestSeedResolution:
    def test_env_seed_honored(self, dataset, tmp_path, monkeypatch):
        out_env = str(tmp_path / "env.bin")
        monkeypatch.setenv("CAUCHY_SKETCH_SEED", "7")
        assert main(
            ["sketch", "--input", dataset, "--output", out_env,
             "--epsilon", "0.25", "--k", "400"]
        ) == 0
        monkeypatch.delenv("CAUCHY_SKETCH_SEED")
        explicit = run_sketch(dataset, tmp_path)
        assert open(out_env, "rb").read() == open(explicit, "rb").read()

    def test_flag_overrides_env(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUCHY_SKETCH_SEED", "9999")
        out = run_sketch(dataset, tmp_path)  # passes --seed 7
        meta = json.loads(open(out + ".json").read())
        assert meta["seed"] == 7

    def test_invalid_env_seed_exits_2(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUCHY_SKETCH_SEED", "banana")
        assert main(
            ["sketch", "--input", dataset, "--output", str(tmp_path / "w.bin"),
             "--epsilon", "0.25", "--k", "4"]
        ) == 2

    @pytest.mark.parametrize("raw", ["banana", "-1"])
    def test_commands_without_seed_ignore_env(self, dataset, tmp_path, monkeypatch, capsys, raw):
        sk = run_sketch(dataset, tmp_path)  # passes --seed 7
        monkeypatch.setenv("CAUCHY_SKETCH_SEED", raw)
        assert main(["plan", "--epsilon", "0.25", "--n", "200"]) == 0
        assert main(["estimate", "--input", sk]) == 0
        capsys.readouterr()
        assert main(
            ["sketch", "--input", dataset, "--output", str(tmp_path / "w.bin"),
             "--epsilon", "0.25", "--k", "4"]
        ) == 2
        assert "must be an integer" in capsys.readouterr().err
