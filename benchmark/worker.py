"""Run a workload's timed passes through `cauchysketch.cli.main`, in-process.

Usage: python3 worker.py JOB.json RESULT.json

run.py writes the job and starts this as its own process, so the peak
resident memory reported here is the workload's, not that of the
benchmark's input generation and output checks. Passes run until the
job's seconds are spent (at least MIN_PASSES). A traced job alternates an
untraced and a traced pass on the same seed; the difference is the
tracing overhead and the two must write byte-identical files. An untraced
job reruns pass 0 after timing for the byte-identical rerun check.

An untraced job also times, after each pass (and at least SETUP_SAMPLES
times), a fixed reference kernel and then set-up, a fresh interpreter
importing cauchysketch.cli, so these samples spread over the run like the
passes do. The reference kernel does only the benchmark's own
numpy work, so its time tracks the speed the shared machine gives the run,
not the program; run.py divides by it. Peak memory is taken after the
first pass, before the reference kernel exists: a CLI user runs one pass
per process.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

MIN_PASSES = 3
MAX_PASSES = 500
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import time; start = time.perf_counter(); import cauchysketch.cli; "
    "print(time.perf_counter() - start)"
)


def measure_setup() -> float:
    """Seconds a fresh interpreter spends importing cauchysketch.cli."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout)


def make_reference():
    """A timer of a fixed mix of the kinds of work the workloads do.

    In roughly equal parts: Python-level calls on short rows (as estimate
    makes per pair), Cauchy draws and xi on fresh 4M-element arrays (as
    verify's chunks and sketch's draw) and matrix-vector products streaming
    64 MB from memory (as sketch's projection). It takes ~0.22 s on an idle
    2-vCPU x86-64 VM. Returns a function that runs the kernel once and
    gives its wall time.
    """
    rng = np.random.default_rng(20190607)
    rows = rng.standard_normal((64, 32))
    matrix = rng.standard_normal((2048, 4096))
    vector = rng.standard_normal(4096)

    def reference() -> float:
        start = time.perf_counter()
        for i in range(8000):
            a = np.abs(rows[i & 63] - rows[(i * 7) & 63])
            np.mean(np.log1p(np.sqrt(a)) + 0.5 * np.log1p(a))
        draws = np.tan(np.pi * (np.random.default_rng(i).random(1 << 22) - 0.5))
        np.log1p(np.sqrt(np.abs(draws))).sum()
        for _ in range(32):
            matrix @ vector
        return time.perf_counter() - start

    return reference


def run_pass(main, commands, tracer=None) -> list[dict]:
    records = []
    for name, argv in commands:
        covered = tracer.covered_s if tracer else 0.0
        error = None
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        records.append(
            {
                "name": name,
                "rc": rc,
                "error": error,
                "wall_s": wall,
                "cpu_s": cpu,
                "covered_s": (tracer.covered_s - covered) if tracer else 0.0,
            }
        )
    return records


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    from cauchysketch.cli import main as cli_main

    from probes import Tracer
    from workloads import Workload, pass_commands, pass_seed

    workload = Workload(**job["workload"])
    points, work = Path(job["points"]), Path(job["work"])
    tracer = Tracer() if job["trace"] else None

    def one_pass(index: int, label: str, traced: bool) -> dict:
        seed = pass_seed(job["seed"], index)
        out = work / f"{label}{index}"
        out.mkdir(parents=True, exist_ok=True)
        if traced:
            tracer.install()
        try:
            commands = run_pass(cli_main, pass_commands(workload, points, out, seed), tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
        return {"index": index, "seed": seed, "dir": str(out), "traced": traced, "commands": commands}

    passes, setup, ref = [], [], []
    reference = None
    deadline = time.perf_counter() + job["seconds"]
    index = 0
    while index < MAX_PASSES and (index < MIN_PASSES or time.perf_counter() < deadline):
        passes.append(one_pass(index, "p", False))
        if index == 0:
            first_pass_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            passes.append(one_pass(index, "t", True))
        else:
            reference = reference or make_reference()
            ref.append(reference())
            setup.append(measure_setup())
        index += 1
    rerun = None
    if tracer is None:
        for _ in range(SETUP_SAMPLES - len(setup)):
            ref.append(reference())
            setup.append(measure_setup())
        rerun = one_pass(0, "rerun", False)

    result = {
        "passes": passes,
        "rerun": rerun,
        "setup_s": setup,
        "ref_s": ref,
        "first_pass_maxrss_kb": first_pass_maxrss_kb,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
