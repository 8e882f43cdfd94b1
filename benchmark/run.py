"""Benchmark of the cauchysketch CLI: plan -> sketch -> estimate, and verify.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload pairs --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from --seed, then starts one worker
process that runs passes of the workload's commands through
`cauchysketch.cli.main` for --seconds seconds and measures set-up time
between them (see worker.py). Afterwards it checks every
output file, and prints a machine-context line, a summary line and, last,
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are END_TO_END; with --trace 1 the worker
alternates untraced and traced passes and the metrics are PER_LAYER.
An operation is one CLI command of a pass, plus one byte-identical
comparison per pass pair (traced) or for the rerun of pass 0 (untraced);
it fails on an unexpected exit code or a failed output check.

Passes are CPU-bound (a pass's process time equals its wall time), yet on
a shared machine the same pass runs up to twice as slow while other
tenants load the host, in phases lasting seconds to minutes; no quantile
of one run's pass times steadies that. So the worker times a fixed
reference kernel of the benchmark's own numpy work between consecutive
passes, right before each import (see worker.make_reference). pass_norm_s
is the median, over the passes after the first (a warm-up), of the pass
time over the mean kernel time on either side of it; setup_s is the median
of the import time over the kernel time just before it. Both are scaled by
REF_NOMINAL_S: seconds at the speed where the kernel takes REF_NOMINAL_S.
A change to the program moves the passes, never the kernel. Over ten seeds
per workload on a loaded 2-vCPU x86-64 VM, pass_norm_s spread 2-5%
(interquartile range over median) where the median raw pass time spread
14-21%.
The summary line before the result gives the raw pass, import and
reference times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
from workloads import DUPLICATES, EPSILON, WORKLOADS, make_points, write_points

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 160
# Median reference-kernel time on an idle 2-vCPU x86-64 VM (numpy 2.4).
REF_NOMINAL_S = 0.22

END_TO_END = (
    ("pass_norm_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SUITES = ("concentration", "maxbound", "moments", "planner", "specfun", "stability", "tails")

# (metric, unit, better, the end-to-end metric and workload it should move).
# Times and counts are per traced pass.
PER_LAYER = (
    ("cli.self_s", "s", "lower", "pass_norm_s on pairs: formatting, SketchedPoint wrapping, sidecar"),
    ("cli.plan_s", "s", "lower", "pass_norm_s on pairs"),
    ("cli.sketch_s", "s", "lower", "pass_norm_s on wide"),
    ("cli.estimate_s", "s", "lower", "pass_norm_s on pairs and wide"),
    ("cli.verify_s", "s", "lower", "pass_norm_s on verify"),
    ("trace_overhead_s", "s", "lower", "none: traced minus untraced pass time"),
    ("sketch.read_points_s", "s", "lower", "pass_norm_s on wide"),
    ("sketch.read_points_bytes", "B", "lower", "pass_norm_s on wide"),
    ("sketch.build_projection_s", "s", "lower", "pass_norm_s and peak_rss_mb on wide"),
    ("sketch.projection_entries", "count", "lower", "pass_norm_s and peak_rss_mb on wide"),
    ("sketch.project_s", "s", "lower", "pass_norm_s on wide"),
    ("sketch.project_calls", "count", "lower", "pass_norm_s on wide"),
    ("sketch.project_bytes_computed", "B", "lower", "pass_norm_s on wide (computed, not measured)"),
    ("sketch.binary_io_s", "s", "lower", "pass_norm_s on wide"),
    ("sketch.binary_io_bytes", "B", "lower", "pass_norm_s on wide"),
    ("sketch.regime_tag_s", "s", "lower", "pass_norm_s on pairs"),
    ("sketch.regime_tag_calls", "count", "lower", "pass_norm_s on pairs"),
    ("tags.large", "count", "higher", "none: regime mix of the estimates"),
    ("tags.small", "count", "higher", "none: regime mix of the estimates"),
    ("tags.really-small", "count", "higher", "none: regime mix of the estimates"),
    ("tags.unproven-upper", "count", "lower", "none: regime mix of the estimates"),
    ("cauchy.sample_s", "s", "lower", "pass_norm_s on wide and verify"),
    ("cauchy.draws", "count", "lower", "pass_norm_s on wide and verify"),
    ("metric.rho_s", "s", "lower", "pass_norm_s on pairs and wide"),
    ("metric.rho_calls", "count", "lower", "pass_norm_s on pairs (call overhead)"),
    ("metric.xi_elements", "count", "lower", "pass_norm_s on wide (element cost)"),
    ("metric.ns_per_xi_element", "ns", "lower", "pass_norm_s on pairs and wide"),
    ("metric.xi_s", "s", "lower", "pass_norm_s on verify"),
    ("metric.xi_elements_verify", "count", "lower", "pass_norm_s on verify"),
    ("moments.mu_inverse_s", "s", "lower", "pass_norm_s on pairs"),
    ("moments.mu_inverse_calls", "count", "lower", "pass_norm_s on pairs"),
    ("moments.us_per_mu_inverse", "us", "lower", "pass_norm_s on pairs"),
    ("concentration.plan_dimension_s", "s", "lower", "pass_norm_s on pairs; guards an exact planner"),
    ("concentration.max_abs_plan_s", "s", "lower", "pass_norm_s on pairs and wide"),
    *((f"verify.suite.{name}_s", "s", "lower", "pass_norm_s on verify") for name in SUITES),
    ("verify.quadrature_mean_s", "s", "lower", "pass_norm_s on verify"),
    ("verify.quadrature_mean_calls", "count", "lower", "pass_norm_s on verify"),
    ("verify.mc_s", "s", "lower", "pass_norm_s on verify"),
    ("verify.gated_cases", "count", "higher", "none: checks run"),
    ("verify.mc_gate_failures", "count", "lower", "none: sampling outcomes of the gates"),
    ("median_rel_err", "ratio", "lower", "none: accuracy of estimate on pairs and wide"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("CAUCHY_SKETCH_SEED", None)
    env["PYTHONPATH"] = str(src)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(_nproc())
    return env


def _context(env: dict) -> dict:
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": _nproc(),
        "l3_size": l3.read_text().strip() if l3.is_file() else "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "sketch.project_bytes_computed": "computed from shapes (calls * k * d * 8), not measured",
    }


def _deterministic_cases(work: Path, cli_main) -> tuple[set, set]:
    """(suite, case) names `verify --trials 0` reports, and the suites it covers."""
    path = work / "deterministic.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(["verify", "--suite", "all", "--trials", "0", "--output", str(path)])
    cases, suites = checks.read_report(path)
    return {(c["suite"], c["case"]) for c in cases}, suites


class Outcome:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def _exit_problems(cmd: dict) -> list[str]:
    # verify exits 1 when a gated case fails; check_verify judges the report.
    allowed = (0, 1) if cmd["name"] == "verify" else (0,)
    if cmd["error"]:
        return [cmd["error"]]
    return [] if cmd["rc"] in allowed else [f"exit code {cmd['rc']!r}"]


def check_passes(result: dict, w, points, work: Path, outcome: Outcome) -> dict:
    """Run the output checks over every pass; returns check-derived figures."""
    from cauchysketch.cauchy import RngSeed
    from cauchysketch.cli import main as cli_main
    from cauchysketch.moments import mu
    from cauchysketch.sketch import build_projection

    def projection(k, d, seed):
        return build_projection(k, d, RngSeed(seed)).entries

    deterministic, suites = _deterministic_cases(work, cli_main) if w.verify else (set(), set())
    rel_errors, mc_failures = [], []
    untraced = {}
    for p in result["passes"]:
        out = Path(p["dir"])
        label = f"pass {p['index']}{' traced' if p['traced'] else ''}"
        for cmd in p["commands"]:
            problems = _exit_problems(cmd)
            if problems or p["traced"]:
                outcome.record(f"{label} {cmd['name']}", problems)
                continue
            try:
                if cmd["name"] == "sketch":
                    problems = checks.check_sketch(out, points, w.k, p["seed"], projection)
                elif cmd["name"] == "estimate":
                    problems, err = checks.check_estimate(out, points, DUPLICATES, EPSILON, mu)
                    rel_errors.append(err)
                elif cmd["name"] == "verify":
                    problems, mc = checks.check_verify(out, cmd["rc"], deterministic, suites)
                    mc_failures.append(mc)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            outcome.record(f"{label} {cmd['name']}", problems)
        if p["traced"]:
            same = checks.same_files(Path(untraced[p["index"]]), out)
            outcome.record(f"{label} vs untraced", [] if same else ["outputs differ"])
        else:
            untraced[p["index"]] = p["dir"]
    if result["rerun"] is not None:
        rerun = result["rerun"]
        problems = [f"{c['name']}: {e}" for c in rerun["commands"] for e in _exit_problems(c)]
        if not checks.same_files(Path(untraced[0]), Path(rerun["dir"])):
            problems.append("outputs differ from pass 0")
        outcome.record("rerun of pass 0", problems)
    return {
        "median_rel_err": statistics.median(rel_errors) if rel_errors else 0.0,
        "mc_gate_failures": statistics.mean(mc_failures) if mc_failures else 0.0,
    }


def _pass_wall(p: dict) -> float:
    return sum(c["wall_s"] for c in p["commands"])


def end_to_end(result: dict) -> tuple[dict, dict]:
    walls = [_pass_wall(p) for p in result["passes"] if not p["traced"]]
    stages = {}
    for p in result["passes"]:
        for c in p["commands"]:
            stages.setdefault(f"{c['name']}_s", []).append(c["wall_s"])
    refs = result["ref_s"]
    # Pass i > 0 ran between kernels i - 1 and i; pass 0 is a warm-up.
    paced = [wall / ((refs[i - 1] + refs[i]) / 2) for i, wall in enumerate(walls) if i]
    metrics = {
        "pass_norm_s": REF_NOMINAL_S * statistics.median(paced),
        "setup_s": REF_NOMINAL_S * statistics.median(s / r for s, r in zip(result["setup_s"], refs)),
        "peak_rss_mb": result["first_pass_maxrss_kb"] / 1024.0,
    }
    info = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "ref_s": result["ref_s"],
        "pass_cpu_s": [sum(c["cpu_s"] for c in p["commands"]) for p in result["passes"] if not p["traced"]],
        "wall_s_median": statistics.median(walls),
        "wall_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "stage_median_s": {name: statistics.median(v) for name, v in stages.items()},
        "setup_samples_s": result["setup_s"],
    }
    return metrics, info


def per_layer(result: dict, figures: dict) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    n = len(traced)
    trace = result["trace"]
    values = {name: 0.0 for name, *_ in PER_LAYER}
    for key, busy in trace["busy_s"].items():
        values[f"{key}_s"] = busy / n
    for key, calls in trace["calls"].items():
        values[f"{key}_calls"] = calls / n
    for key, count in trace["counts"].items():
        values[key] = count / n
    self_s = 0.0
    for p in traced:
        for c in p["commands"]:
            values[f"cli.{c['name']}_s"] += c["wall_s"] / n
            self_s += c["wall_s"] - c["covered_s"]
    values["cli.self_s"] = self_s / n
    untraced = {p["index"]: _pass_wall(p) for p in result["passes"] if not p["traced"]}
    values["trace_overhead_s"] = statistics.median(_pass_wall(p) - untraced[p["index"]] for p in traced)
    if values["metric.xi_elements"]:
        values["metric.ns_per_xi_element"] = values["metric.rho_s"] / values["metric.xi_elements"] * 1e9
    if values["moments.mu_inverse_calls"]:
        values["moments.us_per_mu_inverse"] = (
            values["moments.mu_inverse_s"] / values["moments.mu_inverse_calls"] * 1e6
        )
    values["median_rel_err"] = figures["median_rel_err"]
    values["verify.mc_gate_failures"] = figures["mc_gate_failures"]
    return {name: values[name] for name, *_ in PER_LAYER}


def main(argv=None, workloads=WORKLOADS) -> int:
    args = _parse(argv)
    w = workloads[args.workload]
    src = ROOT / "src"
    if not (src / "cauchysketch" / "cli.py").is_file():
        print(f"error: no cauchysketch sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cauchysketch

    if Path(cauchysketch.__file__).resolve().parent != (src / "cauchysketch").resolve():
        print(f"error: imported cauchysketch from {cauchysketch.__file__}, not {src}", file=sys.stderr)
        return 2

    env = _child_env(src)
    work = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    outcome = Outcome()
    try:
        work.mkdir(parents=True)
        points = make_points(args.seed, w.n, w.d) if w.sketches else None
        if points is not None:
            write_points(work / "points.csv", points)
        job = {
            "src": str(src),
            "workload": {f: getattr(w, f) for f in w.__dataclass_fields__},
            "points": str(work / "points.csv"),
            "work": str(work),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
        }
        (work / "job.json").write_text(json.dumps(job))
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "job.json"), str(work / "result.json")],
            env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=False,
        )
        if worker.returncode != 0:
            print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())
        figures = check_passes(result, w, points, work, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(result, figures)
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        metrics, info = end_to_end(result)
        units = {name: unit for name, unit, _ in END_TO_END}
        info.update(figures, error_rate=outcome.failed / outcome.attempted)
        print(json.dumps({"workload": w.name, "seed": args.seed, **info}))
    print(json.dumps({"context": _context(env)}))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
