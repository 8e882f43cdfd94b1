"""Output checks, run after the timed passes on the files they wrote.

Each check returns a list of problems; an empty list means the output is
correct. The references are computed here with plain numpy from the
generated points, except the projection matrix and mu, which come from
the package (rebuilding F is the only way to know it, and mu is the
closed form whose inverse the estimate column is).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SKETCH_RTOL = 1e-9
RHO_RTOL = 1e-12
MU_RTOL = 1e-10
# A Monte Carlo gate fails a correct program at its stated level (each
# 1-stability KS gate at 1%), so a report may carry a few such failures.
# Three or more among the ~40 gates has probability below 1e-3 for a
# correct sampler; a broken one fails most of them.
MC_GATE_FAILURES_ALLOWED = 2


def read_matrix(path: Path) -> np.ndarray:
    """The sketch's binary layout: uint64 LE rows and cols, float64 LE payload."""
    raw = path.read_bytes()
    rows, cols = (int(v) for v in np.frombuffer(raw[:16], dtype="<u8"))
    data = np.frombuffer(raw[16:], dtype="<f8")
    if data.size != rows * cols:
        raise ValueError(f"{path.name}: {data.size} values for a {rows} x {cols} header")
    return data.reshape(rows, cols)


def check_sketch(out: Path, points: np.ndarray, k: int, seed: int, projection) -> list[str]:
    """Sketch rows equal X @ F.T within SKETCH_RTOL of each entry's |X| @ |F|.T
    scale, so a matrix-vector or matrix-matrix product both pass."""
    coords = read_matrix(out / "sketch.bin")
    meta = json.loads((out / "sketch.bin.json").read_text())
    n, d = points.shape
    problems = []
    for key, want in (("k", k), ("d", d), ("n_points", n), ("seed", seed)):
        if meta.get(key) != want:
            problems.append(f"sidecar {key} = {meta.get(key)!r}, expected {want!r}")
    if coords.shape != (n, k):
        return problems + [f"sketch shape {coords.shape}, expected {(n, k)}"]
    f = projection(k, d, seed)
    error = np.abs(coords - points @ f.T)
    scale = np.abs(points) @ np.abs(f).T
    worst = float(np.max(error / scale))
    if not worst <= SKETCH_RTOL:
        problems.append(f"sketch differs from X @ F.T by {worst:.3g} of the row scale")
    return problems


def _xi_means(coords: np.ndarray) -> np.ndarray:
    """rho of every pair i < j, row-major, as log1p(sqrt a) + log1p(a)/2 averaged."""
    out = []
    for i in range(coords.shape[0] - 1):
        a = np.abs(coords[i + 1 :] - coords[i])
        out.append((np.log1p(np.sqrt(a)) + 0.5 * np.log1p(a)).mean(axis=1))
    return np.concatenate(out)


def check_estimate(
    out: Path, points: np.ndarray, duplicates: int, epsilon: float, mu
) -> tuple[list[str], float]:
    """Check the pair table against the sketch it was computed from.

    Returns the problems and the median |estimate / true l1 - 1| over
    pairs at nonzero distance.
    """
    coords = read_matrix(out / "sketch.bin")
    lines = (out / "pairs.csv").read_text().splitlines()
    n = points.shape[0]
    if not lines or lines[0] != "i,j,rho,estimate,regime":
        return [f"pair table header {lines[:1]!r}"], math.nan
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n * (n - 1) // 2 or any(len(r) != 5 for r in rows):
        return [f"pair table has {len(rows)} rows, expected {n * (n - 1) // 2} of 5 fields"], math.nan
    problems = []
    i, j = np.triu_indices(n, 1)
    if not (np.array([int(r[0]) for r in rows]) == i).all() or not (
        np.array([int(r[1]) for r in rows]) == j
    ).all():
        problems.append("pair indices are not i < j in row-major order")
    rho = np.array([float(r[2]) for r in rows])
    estimate = np.array([float(r[3]) for r in rows])
    tags = [r[4] for r in rows]

    want = _xi_means(coords)
    bad = np.abs(rho - want) > RHO_RTOL * want
    if bad.any():
        problems.append(f"{int(bad.sum())} rho values differ from numpy by more than {RHO_RTOL:g}")
    roundtrip = np.array([mu(e) for e in estimate])
    bad = np.abs(roundtrip - rho) > MU_RTOL * rho
    if bad.any():
        problems.append(f"{int(bad.sum())} estimates do not round-trip rho through mu")

    large, small = math.sqrt(1.0 + epsilon), 8.0 * epsilon**2
    for e, tag in zip(estimate, tags):
        if e >= large:
            ok = tag == "large"
        elif e > small:
            ok = tag == "small"
        elif e == 0.0:
            ok = tag == "really-small"
        else:
            ok = tag in ("really-small", "unproven-upper")
        if not ok:
            problems.append(f"estimate {e!r} tagged {tag!r}")
            break

    dup = np.zeros(n, dtype=bool)
    dup[0] = True
    dup[n - duplicates :] = True
    same = dup[i] & dup[j]
    if not ((estimate[same] == 0.0).all() and all(tags[p] == "really-small" for p in np.flatnonzero(same))):
        problems.append("duplicate points do not estimate 0 with tag really-small")

    true = np.abs(points[i] - points[j]).sum(axis=1)
    nonzero = true > 0.0
    median_rel_err = float(np.median(np.abs(estimate[nonzero] / true[nonzero] - 1.0)))
    if not median_rel_err <= epsilon:
        problems.append(f"median relative error {median_rel_err:.4g} exceeds epsilon {epsilon:g}")
    return problems, median_rel_err


def read_report(path: Path) -> tuple[list[dict], set[str]]:
    """Cases and summarised suite names of a verify JSONL report."""
    cases, suites = [], set()
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("summary"):
            suites.add(record["suite"])
        else:
            cases.append(record)
    return cases, suites


def check_verify(out: Path, rc, deterministic: set, suites: set) -> tuple[list[str], int]:
    """Check a verify report; returns the problems and the Monte Carlo gate failures.

    Every deterministic gated case (the ones `--trials 0` runs) must pass,
    the exit code must match the report's verdict, and Monte Carlo gate
    failures may not exceed what sampling explains.
    """
    cases, seen = read_report(out / "report.jsonl")
    problems = []
    if seen != suites:
        problems.append(f"report covers suites {sorted(seen)}, expected {sorted(suites)}")
    names = {(c["suite"], c["case"]) for c in cases}
    if not deterministic <= names:
        problems.append(f"{len(deterministic - names)} deterministic cases missing from the report")
    failing = [c for c in cases if c.get("gated", True) and not c["pass"]]
    if rc != (1 if failing else 0):
        problems.append(f"exit code {rc!r} with {len(failing)} failing gated cases")
    mc_failures = 0
    for case in failing:
        if (case["suite"], case["case"]) in deterministic:
            problems.append(f"deterministic case failed: {case['suite']}: {case['case']}")
        else:
            mc_failures += 1
    if mc_failures > MC_GATE_FAILURES_ALLOWED:
        problems.append(f"{mc_failures} Monte Carlo gates failed, more than sampling explains")
    return problems, mc_failures


def same_files(a: Path, b: Path) -> bool:
    """Whether two pass directories hold the same file names with the same bytes."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / name).read_bytes() == (b / name).read_bytes() for name in names)
