"""Command-line surface: plan dimensions, sketch datasets, estimate
distances, run verification suites.

Every command is a pure function of its flags, its input files, and the
seed, so reruns are byte-identical. Exit codes are a stable contract:

    0  success / all gated verification cases pass
    1  a gated verification case failed
    2  usage error or infeasible parameters
    3  I/O or data-format trouble

The default seed comes from the CAUCHY_SKETCH_SEED environment variable
(an integer); --seed overrides it, and both default to 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .cauchy import GENERATOR_NAME, RngSeed
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

# Cap on the pair differences one rho call takes: 128 KB of float64 per
# temporary, which keeps the xi passes in cache.
_BLOCK_ELEMENTS = 16_384

_REGIME_ORDER = ("large-upper", "large-lower", "small-upper", "small-lower", "really-small-lower")


def cmd_plan(args: argparse.Namespace, seed: RngSeed) -> int:
    plan = plan_dimension(args.epsilon, args.n, args.c)
    table = plan.regime_table()
    print(
        f"epsilon = {plan.epsilon:g}, N = {args.n}, c = {args.c:g}, "
        f"delta = N^-c = {plan.delta_fail:.6e}"
    )
    for name in _REGIME_ORDER:
        marker = "  <- binding" if name == plan.binding_regime else ""
        print(f"  rate reciprocal {name:<22} {table[name]:18.4f}{marker}")
    print(f"  exponent optimizers u* = {plan.u_star_upper:.6g} (upper), {plan.u_star_lower:.6g} (lower)")
    print(f"  really-small cutoff lambda0 = {plan.lambda0:.6e}")
    print(f"k = ceil(ln(2/delta) * max rate reciprocal) = {plan.k}")
    if args.output:
        payload = {"type": "chernoff-plan", **dataclasses.asdict(plan), "regimes": table}
        with open(args.output, "w") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _check_sketch_parameters(k, n_points, epsilon, c):
    """Raise ValueError unless k >= 1 and n_points >= 2 are integers,
    epsilon is in (0, 1/4], c >= 3 and the max-bound plan of these values
    is finite: what a sketch may be made with. Returns that plan, whose
    lambda0 the regime tags need."""
    for name, value, low in (("k", k, 1), ("n_points", n_points, 2)):
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    for name, value in (("epsilon", epsilon), ("c", c)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0.0 < epsilon <= 0.25:
        raise ValueError(f"epsilon must be in (0, 1/4], got {epsilon!r}")
    if not c >= 3.0:
        raise ValueError(f"c must be >= 3, got {c!r}")
    return max_abs_plan(k, epsilon, n_points, c)


def cmd_sketch(args: argparse.Namespace, seed: RngSeed) -> int:
    points = read_points(args.input, args.format)
    n = points.shape[0]
    if n < 2:
        raise DatasetFormatError(f"need at least 2 points to sketch, got {n}")
    k = args.k if args.k is not None else plan_dimension(args.epsilon, n, args.c).k
    _check_sketch_parameters(k, n, args.epsilon, args.c)
    coords = sketch_dataset(points, k, seed)
    write_binary_matrix(args.output, coords)
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
    with open(args.output + ".json", "w") as handle:
        handle.write(json.dumps(metadata, sort_keys=True) + "\n")
    print(
        f"sketched {n} points, d = {points.shape[1]} -> k = {k}; "
        f"wrote {args.output} and {args.output}.json"
    )
    return 0


def cmd_estimate(args: argparse.Namespace, seed: RngSeed) -> int:
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
        lambda0 = _check_sketch_parameters(k, n, epsilon, c).lambda0
    except ValueError as exc:
        raise DatasetFormatError(f"metadata sidecar {metadata_path}: {exc}") from None
    coords = read_binary_matrix(args.input)
    if coords.shape != (n, k):
        raise DatasetFormatError(
            f"sketch shape {coords.shape} does not match metadata (n_points={n}, k={k})"
        )
    # Row i against rows i+1.. in blocks of at most _BLOCK_ELEMENTS
    # differences; each block is one rho call.
    block_rows = max(1, _BLOCK_ELEMENTS // k)
    rhos = np.empty(n * (n - 1) // 2)
    done = 0
    for i in range(n - 1):
        for j in range(i + 1, n, block_rows):
            block = rho(coords[j : j + block_rows], coords[i])
            rhos[done : done + block.size] = block
            done += block.size
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


def cmd_verify(args: argparse.Namespace, seed: RngSeed) -> int:
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
    seed = getattr(args, "seed", None)
    if seed is None:
        raw = os.environ.get("CAUCHY_SKETCH_SEED")
        if raw is not None:
            try:
                seed = int(raw)
            except ValueError:
                raise ValueError(f"CAUCHY_SKETCH_SEED must be an integer, got {raw!r}") from None
        else:
            seed = 0
    return RngSeed(int(seed), int(getattr(args, "stream", 0)))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args, _resolve_seed(args))
    except (DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
