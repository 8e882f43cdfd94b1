"""Per-layer tracing from outside the package.

A traced pass replaces module-level names that cauchysketch modules bind
(for example `cauchysketch.cli.rho`) with wrappers that count calls,
accumulate busy time and record work counters, then puts the originals
back. No source file is edited. Per-pair calls (~20k per call site on the
pairs workload) are aggregated, not recorded one span each.

Busy time of a key counts only its outermost active call, so nested or
recursive calls are not counted twice. Time spent inside any outermost
wrapped call is `covered_s`; a command's wall time minus what it covered
is the CLI's self time. A name a later version no longer binds is skipped:
it reports 0 calls and its time shows up as CLI self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np


def _size(x) -> int:
    return int(np.size(getattr(x, "coords", x)))


def _xi_elements(args, kwargs, result):
    # rho(u, v): one xi evaluation per element of the broadcast difference.
    k = getattr(args[0], "k", None)
    if k is None:
        k = int(np.prod(np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))))
    return {"metric.xi_elements": k}


def _draws(args, kwargs, result):
    return {"cauchy.draws": _size(result)}


def _gated(result):
    return sum(1 for case in result.cases if case.get("gated", True))


# (module, bound name, key, counters). The key names the layer metric
# (`<key>_s` busy time, `<key>_calls`); a callable key derives it from the
# call's arguments. Counters map (args, kwargs, result) to increments.
PROBES = (
    ("cauchysketch.cli", "plan_dimension", "concentration.plan_dimension", None),
    ("cauchysketch.cli", "max_abs_plan", "concentration.max_abs_plan", None),
    ("cauchysketch.cli", "read_points", "sketch.read_points",
     lambda a, k, r: {"sketch.read_points_bytes": os.path.getsize(a[0])}),
    ("cauchysketch.cli", "write_binary_matrix", "sketch.binary_io",
     lambda a, k, r: {"sketch.binary_io_bytes": np.asarray(a[1]).nbytes}),
    ("cauchysketch.cli", "read_binary_matrix", "sketch.binary_io",
     lambda a, k, r: {"sketch.binary_io_bytes": r.nbytes}),
    ("cauchysketch.cli", "rho", "metric.rho", _xi_elements),
    ("cauchysketch.cli", "mu_inverse", "moments.mu_inverse", None),
    ("cauchysketch.cli", "regime_tag", "sketch.regime_tag", lambda a, k, r: {f"tags.{r}": 1}),
    ("cauchysketch.cli", "run_suite", lambda a: f"verify.suite.{a[0]}",
     lambda a, k, r: {"verify.gated_cases": _gated(r)}),
    ("cauchysketch.sketch", "build_projection", "sketch.build_projection",
     lambda a, k, r: {"sketch.projection_entries": r.entries.size}),
    # Computed from the shapes, not measured: k*d float64 entries per call.
    ("cauchysketch.sketch", "project", "sketch.project",
     lambda a, k, r: {"sketch.project_bytes_computed": a[0].entries.size * 8}),
    ("cauchysketch.sketch", "sample_standard_cauchy", "cauchy.sample", _draws),
    ("cauchysketch.cauchy", "sample_standard_cauchy", "cauchy.sample", _draws),
    ("cauchysketch.verify", "sample_standard_cauchy", "cauchy.sample", _draws),
    # xi as verify binds it: the Monte Carlo routines and the xi_squared
    # integrand. The quadrature's own "xi" integrand is bound at import
    # and counts inside verify.quadrature_mean only.
    ("cauchysketch.verify", "xi", "metric.xi",
     lambda a, k, r: {"metric.xi_elements_verify": _size(a[0])}),
    ("cauchysketch.verify", "mu_inverse", "moments.mu_inverse", None),
    ("cauchysketch.verify", "quadrature_mean", "verify.quadrature_mean", None),
    ("cauchysketch.verify", "run_concentration_trial", "verify.mc", None),
    ("cauchysketch.verify", "empirical_k_search", "verify.mc", None),
    ("cauchysketch.verify", "verify_max_bound", "verify.mc", None),
    ("cauchysketch.verify", "stable_combination", "verify.mc", None),
)


class Tracer:
    """Call counts, busy time and counters of the probed names."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0
        self._stats: dict[str, list] = {}  # key -> [calls, busy_s, active calls]
        self._depth = 0
        self._saved: list = []

    def install(self, probes=PROBES) -> None:
        for module_name, attr, key, counters in probes:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, key, counters))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _stat(self, key: str) -> list:
        stat = self._stats.get(key)
        if stat is None:
            stat = self._stats[key] = [0, 0.0, 0]
        return stat

    def _wrap(self, fn, key, counters):
        fixed = None if callable(key) else self._stat(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = fixed or self._stat(key(args))
            self._depth += 1
            stat[2] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._depth -= 1
                stat[0] += 1
                stat[2] -= 1
                if not stat[2]:
                    stat[1] += elapsed
                if not self._depth:
                    self.covered_s += elapsed
            if counters is not None:
                for metric, value in counters(args, kwargs, result).items():
                    self.counts[metric] += value
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {
            "busy_s": {key: stat[1] for key, stat in self._stats.items()},
            "calls": {key: stat[0] for key, stat in self._stats.items()},
            "counts": dict(self.counts),
            "covered_s": self.covered_s,
        }
