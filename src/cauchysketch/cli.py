"""Command-line surface: plan dimensions, sketch datasets, estimate
distances, run verification suites.

Every command is a pure function of its flags, its input files, and the
seed, so reruns are byte-identical. Exit codes are a stable contract:

    0  success / all gated verification cases pass
    1  a gated verification case failed
    2  usage error, infeasible parameters, or out of memory
    3  I/O or data-format trouble

sketch and verify take their default seed from the CAUCHY_SKETCH_SEED
environment variable (an integer); --seed overrides it, and both default
to 0. plan and estimate take no seed and ignore the variable.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .cauchy import GENERATOR_NAME, _TILE, RngSeed, _in_two_lanes, _lanes
from .concentration import max_abs_plan, plan_dimension
from .metric import rho
from .moments import mu_inverse
from .sketch import (
    DatasetFormatError,
    read_binary_matrix,
    read_points,
    regime_tag,
    sketch_dataset,
    write_binary_matrix,
)
from .verify import SUITES, run_suite

__all__ = ["main"]


def cmd_plan(args: argparse.Namespace) -> int:
    plan = plan_dimension(args.epsilon, args.n, args.c)
    # Refuse a k that sketch would refuse.
    max_abs_plan(plan.k, args.epsilon, args.n, args.c)
    print(
        f"epsilon = {plan.epsilon:g}, N = {args.n}, c = {args.c:g}, "
        f"delta = N^-c = {plan.delta_fail:.6e}"
    )
    for name, rate in plan.regimes.items():
        marker = "  <- binding" if name == plan.binding_regime else ""
        print(f"  rate reciprocal {name:<22} {rate:18.4f}{marker}")
    print(f"  exponent optimizers u* = {plan.u_star_upper:.6g} (upper), {plan.u_star_lower:.6g} (lower)")
    print(f"  really-small cutoff lambda0 = {plan.lambda0:.6e}")
    print(f"k = ceil(ln(2/delta) * max rate reciprocal) = {plan.k}")
    if args.output:
        payload = {"type": "chernoff-plan", **dataclasses.asdict(plan)}
        with open(args.output, "w") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def cmd_sketch(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    points = read_points(args.input, args.format)
    n = points.shape[0]
    if n < 2:
        raise DatasetFormatError(f"need at least 2 points to sketch, got {n}")
    k = args.k if args.k is not None else plan_dimension(args.epsilon, n, args.c).k
    max_abs_plan(k, args.epsilon, n, args.c)
    coords = sketch_dataset(points, k, seed)
    metadata = {
        "generator": GENERATOR_NAME,
        "version": __version__,
        "k": coords.shape[1],
        "d": points.shape[1],
        "n_points": coords.shape[0],
        "seed": seed.seed,
        "stream": seed.stream_id,
        "epsilon": float(args.epsilon),
        "c": float(args.c),
    }
    _write_sketch(args.output, coords, metadata)
    print(
        f"sketched {n} points, d = {points.shape[1]} -> k = {k}; "
        f"wrote {args.output} and {args.output}.json"
    )
    return 0


def _write_sketch(path, coords, metadata) -> None:
    """Write the sketch matrix to ``path`` and its sidecar to ``path``.json.

    Both go to temp files in the output directory first. The old sidecar
    is unlinked before the matrix replaces the old one, and the new
    sidecar comes last, so a crash leaves the old pair, the new pair, or
    a matrix without a sidecar (which estimate rejects), never a new
    matrix beside a stale sidecar. Temp files do not outlive an error.
    """
    sidecar = path + ".json"
    matrix_tmp, sidecar_tmp = (f"{name}.{os.getpid()}.tmp" for name in (path, sidecar))
    try:
        write_binary_matrix(matrix_tmp, coords)
        with open(sidecar_tmp, "w") as handle:
            handle.write(json.dumps(metadata, sort_keys=True) + "\n")
        with contextlib.suppress(FileNotFoundError):
            os.unlink(sidecar)
        os.replace(matrix_tmp, path)
        os.replace(sidecar_tmp, sidecar)
    finally:
        for name in (matrix_tmp, sidecar_tmp):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(name)


def cmd_estimate(args: argparse.Namespace) -> int:
    metadata_path = args.input + ".json"
    try:
        with open(metadata_path) as handle:
            metadata = json.load(handle)
    except FileNotFoundError:
        raise DatasetFormatError(f"missing metadata sidecar {metadata_path}") from None
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"unreadable metadata sidecar {metadata_path}: {exc}") from None
    if not isinstance(metadata, dict):
        raise DatasetFormatError(f"metadata sidecar {metadata_path} is not a JSON object")
    for key in ("k", "n_points", "epsilon", "c"):
        if key not in metadata:
            raise DatasetFormatError(f"metadata sidecar {metadata_path} lacks {key!r}")
    n, k, epsilon, c = (metadata[key] for key in ("n_points", "k", "epsilon", "c"))
    try:
        lambda0 = max_abs_plan(k, epsilon, n, c).lambda0
    except ValueError as exc:
        raise DatasetFormatError(f"metadata sidecar {metadata_path}: {exc}") from None
    coords = read_binary_matrix(args.input)
    if coords.shape != (n, k):
        raise DatasetFormatError(
            f"sketch shape {coords.shape} does not match metadata (n_points={n}, k={k})"
        )
    # Row i against rows i+1.. in blocks of at most _TILE differences, one xi
    # tile per rho call (at 16K, two lanes ran slower than one: per-call Python
    # work under the GIL dominated). Pairs (i, j) of rows i in `rows` fill
    # their own slice of rhos, so two lanes can share it.
    block_rows = max(1, _TILE // k)
    rhos = np.empty(n * (n - 1) // 2)

    def fill(rows: range) -> None:
        done = rows.start * (2 * n - 1 - rows.start) // 2
        for i in rows:
            for j in range(i + 1, n, block_rows):
                block = rho(coords[j : j + block_rows], coords[i])
                rhos[done : done + block.size] = block
                done += block.size

    if _lanes(rhos.size * k) == 1:
        fill(range(n - 1))
    else:
        # The first row whose pairs start at or past half the pairs.
        cut = next(i for i in range(n) if i * (2 * n - 1 - i) >= rhos.size)
        _in_two_lanes(lambda: fill(range(cut)), lambda: fill(range(cut, n - 1)))
    estimates = mu_inverse(rhos)
    tags = regime_tag(estimates, epsilon, lambda0)
    table = _pair_table(n, rhos, estimates, tags)
    if args.output:
        with open(args.output, "w") as handle:
            handle.writelines(table)
        print(f"wrote {n * (n - 1) // 2} pair estimates to {args.output}")
    else:
        sys.stdout.writelines(table)
    return 0


def _pair_table(n, rhos, estimates, tags):
    """The CSV pair table, one chunk per row i, from the pair arrays in
    row-major i < j order; one chunk at a time holds its strings."""
    yield "i,j,rho,estimate,regime\n"
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        columns = (rhos[start:stop].tolist(), estimates[start:stop].tolist(), tags[start:stop].tolist())
        yield "".join(
            f"{i},{j},{r!r},{e!r},{tag}\n" for j, r, e, tag in zip(range(i + 1, n), *columns)
        )
        start = stop


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    lines: list[str] = []
    all_pass = True
    for name in names:
        report = run_suite(name, seed, args.trials)
        lines.extend(report.to_jsonl_lines())
        gated = [case for case in report.cases if case.get("gated", True)]
        passed = sum(1 for case in gated if case["pass"])
        verdict = "pass" if report.gated_pass else "FAIL"
        print(
            f"suite {name}: {passed}/{len(gated)} gated cases pass, "
            f"{len(report.cases) - len(gated)} informational ({report.runtime_ms} ms) [{verdict}]"
        )
        if not report.gated_pass:
            all_pass = False
            for case in gated:
                if not case["pass"]:
                    print(f"  FAIL {case['case']}: value {case['oracle']!r} vs {case['closed_form']!r}")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    return 0 if all_pass else 1


def _add_seed_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=None, help="RNG seed (default: $CAUCHY_SKETCH_SEED or 0)"
    )
    parser.add_argument("--stream", type=int, default=0, help="RNG stream id (default 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchysketch",
        description="Cauchy projections for l1 distances: plan, sketch, estimate, verify.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser("plan", help="plan the sketch dimension for a dataset size")
    plan.add_argument("--epsilon", type=float, required=True, help="relative accuracy, in (0, 1/4]")
    plan.add_argument("--n", type=int, required=True, help="number of points the union bound covers")
    plan.add_argument("--c", type=float, default=3.0, help="failure exponent, delta = N^-c (default 3)")
    plan.add_argument("--output", default=None, help="also serialize the plan as JSON")
    plan.set_defaults(handler=cmd_plan)

    sketch = commands.add_parser("sketch", help="sketch a dataset with a Cauchy projection")
    sketch.add_argument("--input", required=True, help="dataset file, one point per row")
    sketch.add_argument(
        "--format", choices=("csv", "bin"), default="csv", help="input format (default csv)"
    )
    sketch.add_argument("--output", required=True, help="sketch output path (binary matrix)")
    sketch.add_argument("--epsilon", type=float, required=True, help="relative accuracy, in (0, 1/4]")
    sketch.add_argument("--c", type=float, default=3.0, help="failure exponent (default 3)")
    sketch.add_argument("--k", type=int, default=None, help="override the planned dimension")
    _add_seed_flags(sketch)
    sketch.set_defaults(handler=cmd_sketch)

    estimate = commands.add_parser("estimate", help="estimate pairwise l1 distances from a sketch")
    estimate.add_argument("--input", required=True, help="sketch file written by the sketch command")
    estimate.add_argument("--output", default=None, help="write the pair table here instead of stdout")
    estimate.set_defaults(handler=cmd_estimate)

    verify = commands.add_parser("verify", help="run oracle verification suites")
    verify.add_argument(
        "--suite",
        default="all",
        help=f"suite to run: one of {', '.join(sorted(SUITES))}, or 'all' (default)",
    )
    verify.add_argument(
        "--trials",
        type=int,
        default=None,
        help="Monte Carlo size per suite (0 = deterministic cases only; default: suite-specific)",
    )
    verify.add_argument("--output", default=None, help="write the JSONL report here")
    _add_seed_flags(verify)
    verify.set_defaults(handler=cmd_verify)
    return parser


def _resolve_seed(args: argparse.Namespace) -> RngSeed:
    """The seed of a command that takes --seed: the flag, else
    $CAUCHY_SKETCH_SEED, else 0. Commands without --seed never read it."""
    seed = args.seed
    if seed is None:
        raw = os.environ.get("CAUCHY_SKETCH_SEED")
        if raw is not None:
            try:
                seed = int(raw)
            except ValueError:
                raise ValueError(f"CAUCHY_SKETCH_SEED must be an integer, got {raw!r}") from None
        else:
            seed = 0
    return RngSeed(seed, args.stream)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
