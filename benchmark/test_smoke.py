"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest -q benchmark/test_smoke.py
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "pairs": Workload("pairs", n=12, d=4, k=256, plan=True),
    "wide": Workload("wide", n=8, d=64, k=256),
    "verify": Workload("verify", verify=True, trials=2000),
}

# Names the traced CLI commands call with no wrapped caller above them.
TOP_LEVEL = (
    "concentration.plan_dimension_s", "concentration.max_abs_plan_s", "sketch.read_points_s",
    "sketch.build_projection_s", "sketch.project_s", "sketch.binary_io_s", "metric.rho_s",
    "moments.mu_inverse_s", "sketch.regime_tag_s",
)


def bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)], TINY
        )
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert list(result["metrics"]) == [name for name, *_ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_every_layer_metric(workload):
    result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, *_ in run.PER_LAYER]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "pairs":
        n = TINY["pairs"].n
        assert values["metric.rho_calls"] == values["sketch.regime_tag_calls"] == n * (n - 1) / 2
        assert values["tags.really-small"] == 10
        commands = values["cli.plan_s"] + values["cli.sketch_s"] + values["cli.estimate_s"]
        covered = values["cli.self_s"] + sum(values[name] for name in TOP_LEVEL)
        assert covered == pytest.approx(commands, rel=1e-9)
    if workload == "verify":
        assert values["verify.quadrature_mean_calls"] > 0 and values["verify.gated_cases"] > 0


def test_end_to_end_times_are_rescaled_by_the_reference_kernel():
    # A machine at half the reference speed: the kernel takes twice REF_NOMINAL_S.
    # Pass 0 is a warm-up and does not count.
    passes = [
        {"traced": False, "commands": [{"name": "estimate", "wall_s": wall, "cpu_s": wall}]}
        for wall in (50.0, 1.0, 2.0, 9.0)
    ]
    result = {
        "passes": passes,
        "setup_s": [0.2, 0.4, 0.1, 0.2],
        "ref_s": [2 * run.REF_NOMINAL_S] * 4,
        "first_pass_maxrss_kb": 2048,
    }
    metrics, _ = run.end_to_end(result)
    assert metrics == {"pass_norm_s": pytest.approx(1.0), "setup_s": pytest.approx(0.1), "peak_rss_mb": 2.0}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry[:3]) for entry in run.PER_LAYER
    ]


def test_checks_catch_a_perturbed_rho_and_a_wrong_verdict(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from cauchysketch.cli import main
    from cauchysketch.moments import mu

    from workloads import make_points, write_points

    points = make_points(1, 10, 3)
    write_points(tmp_path / "points.csv", points)
    sketch = str(tmp_path / "sketch.bin")
    with redirect_stdout(io.StringIO()):
        main(["sketch", "--input", str(tmp_path / "points.csv"), "--output", sketch,
              "--epsilon", "0.25", "--k", "256", "--seed", "3"])
        main(["estimate", "--input", sketch, "--output", str(tmp_path / "pairs.csv")])
    assert checks.check_estimate(tmp_path, points, 4, 0.25, mu)[0] == []
    table = (tmp_path / "pairs.csv").read_text().splitlines()
    i, j, rho, estimate, tag = table[20].split(",")
    table[20] = ",".join([i, j, repr(float(rho) * (1 + 1e-11)), estimate, tag])
    (tmp_path / "pairs.csv").write_text("\n".join(table) + "\n")
    assert any("rho" in p for p in checks.check_estimate(tmp_path, points, 4, 0.25, mu)[0])

    report = tmp_path / "report.jsonl"
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--suite", "specfun", "--output", str(report)]) == 0
    names = {(c["suite"], c["case"]) for c in checks.read_report(report)[0]}
    assert checks.check_verify(tmp_path, 0, names, {"specfun"}) == ([], 0)
    assert checks.check_verify(tmp_path, 1, names, {"specfun"})[0]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "pairs", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_points_are_a_pure_function_of_the_seed():
    from workloads import make_points

    a, b = make_points(7, 20, 5), make_points(7, 20, 5)
    assert np.array_equal(a, b) and not np.array_equal(a, make_points(8, 20, 5))
    assert np.array_equal(a[-1], a[0])
