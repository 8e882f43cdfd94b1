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
import threading

from . import __version__
from .cauchy import GENERATOR_NAME, RngSeed, _in_two_lanes
from .concentration import max_abs_plan, plan_dimension
from .metric import _rho_bound, _row_segments, rho_blocks
from .moments import _MU_MAX, mu_inverse
from .sketch import (
    DatasetFormatError,
    _product_threads,
    read_binary_matrix,
    read_points,
    regime_tag,
    sketch_dataset,
    write_binary_matrix,
)

__all__ = ["main"]


def run_suite(name, seed, trials):
    """verify.run_suite, imported on the first call: plan, sketch and
    estimate never load the verifier and its oracles."""
    from .verify import run_suite

    return run_suite(name, seed, trials)


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
        with _output(args.output) as handle:
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
        # 1: the products ran on one BLAS thread, so the bytes hold under
        # any thread count; null: on BLAS's own count, which they depend on.
        "blas_threads": _product_threads(),
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
    # _temp_files unlinks the old sidecar before the matrix replaces the
    # old one, and the new sidecar comes last, so a crash leaves the old
    # pair, the new pair, or a matrix without a sidecar (which estimate
    # rejects), never a new matrix beside a stale sidecar.
    with _temp_files(args.output, args.output + ".json") as (matrix_tmp, sidecar_tmp):
        write_binary_matrix(matrix_tmp, coords)
        with open(sidecar_tmp, "w") as handle:
            handle.write(json.dumps(metadata, sort_keys=True) + "\n")
    print(
        f"sketched {n} points, d = {points.shape[1]} -> k = {k}; "
        f"wrote {args.output} and {args.output}.json"
    )
    return 0


@contextlib.contextmanager
def _temp_files(*paths):
    """A temp file name beside the resolved target of each of ``paths``. On
    a clean exit the targets after the first are unlinked, then each temp
    replaces its target in order, so a link stays a link. No temp outlives
    the block, and an OSError on a temp or a target names its path as given."""
    targets = [os.path.realpath(path) for path in paths]
    temps = [f"{target}.{os.getpid()}.tmp" for target in targets]
    given = dict(zip(temps + targets, paths + paths))
    try:
        yield temps
        for target in targets[1:]:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(target)
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    except OSError as exc:
        if exc.filename not in given:
            raise
        # OSError picks the subclass from errno.
        raise OSError(exc.errno, exc.strerror, given[exc.filename]) from exc
    finally:
        for name in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(name)


@contextlib.contextmanager
def _output(path):
    """A text handle on the --output file ``path``: fd 1 when ``path`` is
    the command's stdout; else ``path`` itself when it exists but does not
    resolve to a regular file (a FIFO, a terminal, a deleted file behind
    /dev/stderr); else a temp file that replaces the resolved target once
    complete, so an error leaves the old file whole."""
    if _is_stdout(path):
        with open(1, "w", closefd=False) as handle:
            yield handle
    elif os.path.exists(path) and not os.path.isfile(os.path.realpath(path)):
        with open(path, "w") as handle:
            yield handle
    else:
        with _temp_files(path) as (temp,), open(temp, "w") as handle:
            yield handle


def _is_stdout(path) -> bool:
    """Whether ``path`` is the file the command's stdout (fd 1) has open."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


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
    # The table is written a block at a time, so the data errors a block
    # could raise are checked here, before its first byte: _rho_bound
    # raises on a difference that is not finite, and bounds every pair's
    # rho, which mu_inverse inverts up to _MU_MAX.
    bound = _rho_bound(coords)
    if bound > _MU_MAX:
        raise ValueError(
            f"rho of the column spreads is {bound!r}, above mu(float max) = {_MU_MAX!r}, "
            "so a pair may have no finite estimate; rescale the sketch"
        )
    with _output(args.output) if args.output else contextlib.nullcontext(sys.stdout) as handle:
        handle.write("i,j,rho,estimate,regime\n")
        for i, j, rhos in rho_blocks(coords):
            estimates = mu_inverse(rhos)
            tags = regime_tag(estimates, epsilon, lambda0)
            handle.writelines(_table_rows(n, i, j, rhos, estimates, tags))
    if args.output:
        print(f"wrote {n * (n - 1) // 2} pair estimates to {args.output}")
    return 0


def _table_rows(n, i, j, rhos, estimates, tags):
    """The CSV rows of a block of pairs from pair (i, j) on, in i < j
    row-major order, one string per row segment; one segment at a time
    holds its strings."""
    start = 0
    for row, lo, hi in _row_segments(n, i, j, len(rhos)):
        stop = start + hi - lo
        columns = (rhos[start:stop].tolist(), estimates[start:stop].tolist(), tags[start:stop].tolist())
        yield "".join(f"{row},{j},{r!r},{e!r},{tag}\n" for j, r, e, tag in zip(range(lo, hi), *columns))
        start = stop


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SUITES

    seed = _resolve_seed(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    outcomes = _run_suites(names, seed, args.trials)
    lines: list[str] = []
    all_pass = True
    # In name order, so what is printed before a suite's error, and the
    # error, are those of one suite at a time.
    for name in sorted(names):
        report = outcomes[name]
        if isinstance(report, Exception):
            raise report
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
        with _output(args.output) as handle:
            handle.write("\n".join(lines) + "\n")
    return 0 if all_pass else 1


def _run_suites(names, seed, trials) -> dict:
    """The report of each named suite, or the exception it raised, by name.

    Two lanes each take the next of ``names`` (given heaviest first) as
    they free; nothing a suite runs starts a lane. On two CPUs the second
    lane is a worker thread, which may take a lone suite; on one it runs
    on the caller after the first and finds every suite taken.
    """
    pending = iter(names)
    lock = threading.Lock()
    outcomes: dict = {}

    def lane() -> None:
        while True:
            with lock:
                name = next(pending, None)
            if name is None:
                return
            try:
                outcomes[name] = run_suite(name, seed, trials)
            except Exception as exc:  # raised in its name's turn
                outcomes[name] = exc

    _in_two_lanes(lane, lane)
    return outcomes


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
        help="suite to run, or 'all' (default); an unknown name lists the suites",
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
    # Output to the command's own stdout is all that it prints there.
    quiet = args.output is not None and _is_stdout(args.output)
    try:
        with contextlib.redirect_stdout(None) if quiet else contextlib.nullcontext():
            return args.handler(args)
    except (DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
