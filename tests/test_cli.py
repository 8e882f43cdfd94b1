"""The command-line surface: exit codes, file contracts, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cauchysketch.cauchy as cauchy_module
from cauchysketch.cli import main
from cauchysketch.concentration import max_abs_plan, plan_dimension
from cauchysketch.metric import rho
from cauchysketch.moments import mu, mu_inverse
from cauchysketch.sketch import read_binary_matrix, regime_tag, write_binary_matrix

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
        # over threads. The bytes agree at this 64 x 1024, k = 1024 shape
        # only: other shapes (57 x 3000 at k = 1000) differ between 1 and
        # 2 BLAS threads, which the byte contract leaves out.
        points = str(tmp_path / "wide.bin")
        rng = np.random.default_rng(3)
        write_binary_matrix(points, rng.standard_normal((64, 1024)))
        blobs = []
        for threads in ("1", "2"):
            out = str(tmp_path / f"sk{threads}.bin")
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
            done = subprocess.run(
                [sys.executable, "-m", "cauchysketch.cli", "sketch", "--input", points,
                 "--format", "bin", "--output", out, "--epsilon", "0.25", "--k", "1024",
                 "--seed", "11"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            blobs.append(open(out, "rb").read())
        assert blobs[0] == blobs[1]


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

    def test_missing_or_broken_sidecar_exits_3(self, dataset, tmp_path):
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
    """Past 2^18 differences, estimate splits the rows i over two lanes."""

    @pytest.fixture
    def sketch(self, tmp_path):
        # 4,950 pairs x k = 64 is 316,800 differences; the scales give
        # all four tags.
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
            assert cauchy_module._lanes(4950 * 64) == lanes
            out = str(tmp_path / f"pairs{lanes}.csv")
            assert main(["estimate", "--input", sketch, "--output", out]) == 0
            tables.append(open(out, "rb").read())
        assert tables[0] == tables[1]
        assert {line.split(b",")[-1] for line in tables[0].splitlines()[1:]} == {
            b"large", b"small", b"really-small", b"unproven-upper"
        }

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_overflow_in_second_lane_rows_exits_2(self, sketch, monkeypatch, capsys, lanes):
        # Only the pair (98, 99) overflows; the second lane takes rows i
        # from 30 on.
        monkeypatch.setattr(cauchy_module, "_LANES", lanes)
        coords = read_binary_matrix(sketch)
        coords[98, 0], coords[99, 0] = 1e308, -1e308
        write_binary_matrix(sketch, coords)
        capsys.readouterr()
        assert main(["estimate", "--input", sketch]) == 2
        assert "rho needs rows whose differences are finite" in capsys.readouterr().err


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
