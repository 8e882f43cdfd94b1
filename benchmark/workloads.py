"""Benchmark workloads: the generated inputs and the CLI commands of one pass.

The source paper's cost model is what the workloads separate. `estimate`
costs N(N-1)/2 * k evaluations of xi plus one mu_inverse per pair; `sketch`
costs a k x d Cauchy draw and N products with it. Each workload lets one
of pair count, sketch length k and projection size d x k dominate:

- pairs: N=200, d=32, k=1024. 19,900 pairs of short rows, so per-pair call
  overhead in rho, mu_inverse and regime tagging dominates and the sketch
  (~10 ms) is negligible. Shows per-pair and batching changes; bypasses
  projection changes. N is 200 rather than 400 so a pass takes ~0.9 s and
  a run holds ~20 of them.
- wide: N=100, d=4096, k=4096. The 134 MB projection exceeds the last-level
  cache, so CSV parsing, the draw and the per-row products dominate; the
  4,950 long rows make estimate cost per xi element, not per call. Shows
  cauchy, sketch and CSV changes; barely touches moments.
- verify: `verify --suite all` at default trials. The only workload that
  runs the quadrature oracle and the Monte Carlo routines, which call xi and
  the sampler on chunks of up to 4M elements. Never calls project or
  regime_tag, and mu_inverse only in the moments suite's round trip.

Points are Gaussian rows of l1 scale ~1 (standard normal over d), each
multiplied by a factor drawn from SCALES, so pair distances fall in every
regime the estimate table tags; the last DUPLICATES rows repeat row 0, so
zero distances occur too. Each pass sketches with its own seed so no pass
can reuse another's projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPSILON = 0.25
SCALES = (1e-4, 1e-2, 1.0, 100.0)
DUPLICATES = 4


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; n, d and k are 0 when it sketches nothing."""

    name: str
    n: int = 0
    d: int = 0
    k: int = 0
    plan: bool = False
    verify: bool = False
    trials: int | None = None

    @property
    def sketches(self) -> bool:
        return self.n > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pairs", n=200, d=32, k=1024, plan=True),
        Workload("wide", n=100, d=4096, k=4096),
        Workload("verify", verify=True),
    )
}


def make_points(seed: int, n: int, d: int) -> np.ndarray:
    """The (n, d) point set of a workload; a pure function of its arguments."""
    rng = np.random.default_rng([seed, n, d])
    factors = rng.choice(SCALES, size=n)
    points = rng.standard_normal((n, d)) * (factors / d)[:, None]
    points[n - DUPLICATES :] = points[0]
    return points


def write_points(path: Path, points: np.ndarray) -> None:
    """CSV with 17 significant digits, so parsing gives back the same floats."""
    np.savetxt(path, points, delimiter=",", fmt="%.17g")


def pass_seed(seed: int, index: int) -> int:
    """CLI seed of pass `index` in a run started with `seed`."""
    return (seed * 1_000_003 + index) % 2**63


def pass_commands(w: Workload, points: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
    """(command, argv) pairs one pass runs, writing its outputs under `out`."""
    commands = []
    if w.plan:
        commands.append(("plan", ["plan", "--epsilon", str(EPSILON), "--n", str(w.n)]))
    if w.sketches:
        sketch = str(out / "sketch.bin")
        commands.append(
            (
                "sketch",
                ["sketch", "--input", str(points), "--output", sketch, "--epsilon", str(EPSILON),
                 "--k", str(w.k), "--seed", str(seed)],
            )
        )
        commands.append(("estimate", ["estimate", "--input", sketch, "--output", str(out / "pairs.csv")]))
    if w.verify:
        argv = ["verify", "--suite", "all", "--seed", str(seed), "--output", str(out / "report.jsonl")]
        if w.trials is not None:
            argv += ["--trials", str(w.trials)]
        commands.append(("verify", argv))
    return commands
