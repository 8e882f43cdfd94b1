"""Standard symmetric Cauchy distribution: reproducible sampling, the
distribution of |X|, and 1-stable linear combinations.

The standard Cauchy density is 1/(pi (1+x^2)). Its absolute value has
CDF (2/pi) arctan(t), and linear combinations sum_j v_j X_j of iid
draws are distributed as ||v||_1 X: that 1-stability is what lets a
single projected coordinate carry the l1 norm. The property is about
laws, so it is validated distributionally (Kolmogorov-Smirnov at fixed
n), never per draw.

Sampling is by inverse CDF, tan(pi (u - 1/2)) for u uniform on (0, 1):
one uniform per draw and exactly reproducible, transformed in place in
the buffer the uniforms were drawn into. Generator.random is uniform on
[0, 1), and its u = 0 maps to tan of -pi/2 rounded to float64, the
finite -1.633123935319537e16, so the transform has no pole to avoid and
draw i is a function of uniform i alone: a stream cut into pieces gives
the same values as one draw. That is what lets the sketch draw each
block of its matrix in two halves, at once on two CPUs (see _split_stream).
Streams come from numpy's PCG64 seeded through SeedSequence(entropy=seed,
spawn_key=(stream_id,)), which is documented to be deterministic across
platforms; the generator identity travels with sketch metadata so
experiments can be replayed.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngSeed",
    "GENERATOR_NAME",
    "make_generator",
    "sample_standard_cauchy",
    "cdf_abs",
    "stable_combination",
    "ks_statistic",
    "ks_critical_value",
]

GENERATOR_NAME = "pcg64-seedseq"

_U64_MAX = 2**64 - 1


# Lanes, the threads split work runs on: the CPUs this process may run on,
# at most 2. Work splits in three places, one level deep, each time into
# the same two halves at any lane count: metric.rho_blocks cuts each
# block of pairs at its middle pair, sketch_dataset each block of F's
# rows (each product on one BLAS thread), and `verify` runs its suites on
# two lanes that each take the next suite as it frees. Only _in_two_lanes
# decides whether the second half runs on a worker thread or on the
# caller after the first, so the lane count never changes what is
# computed. Nothing a lane runs starts a lane.
_LANES = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
# Smaller work takes one lane: at 2^16 draws two lanes cost 6.3-7.6 ns a
# draw against 5.4 ns on one.
_LANE_MIN_ELEMENTS = 2**18
# Elements a kernel transforms per step while they sit in cache (512 KB);
# also the draws in one tile of whole rows of the Monte Carlo routines
# (_map_rows), which reuse one tile, so none of them holds a rows x width
# draw array.
_TILE = 2**16


def _lanes(elements: int) -> int:
    """Lanes a loop over this many elements is split over: 1 or 2."""
    return _LANES if elements >= _LANE_MIN_ELEMENTS else 1


def _in_two_lanes(first, second, elements=None) -> None:
    """Run first() and then second() on the caller when ``elements`` take
    one lane (see _lanes; None counts as large work); otherwise run
    second() on a worker thread while the caller runs first(), and wait
    for both. first()'s exception surfaces, or else second()'s.

    numpy's ufuncs, Generator fills and matmul release the GIL, so two
    lanes over disjoint slices of one array use two CPUs. Nothing either
    lane runs starts a lane (see _LANES).
    """
    if _lanes(_LANE_MIN_ELEMENTS if elements is None else elements) == 1:
        first()
        second()
        return
    failure = []

    def run() -> None:
        try:
            second()
        except BaseException as exc:  # re-raised in the caller
            failure.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    try:
        first()
    finally:
        worker.join()
    if failure:
        raise failure[0]


def _split_stream(rng: np.random.Generator, cut: int, first, second, elements: int) -> None:
    """_in_two_lanes(first(rng), second(ahead), elements), where ahead is a
    PCG64 generator at draw ``cut`` of rng's stream.

    ahead is a copy of rng advanced past ``cut`` doubles (PCG64.advance, a
    jump-ahead in O(log cut) steps), on one lane as on two. rng then takes
    the copy's end state, so when first draws ``cut`` values, the values
    of both and the stream after them are those of one serial draw.
    """
    start = rng.bit_generator.state
    ahead = np.random.PCG64()
    ahead.state = start
    ahead.advance(cut)
    _in_two_lanes(lambda: first(rng), lambda: second(np.random.Generator(ahead)), elements)
    # advance drops a buffered 32-bit half; a serial double draw keeps it.
    end = ahead.state
    end["has_uint32"], end["uinteger"] = start["has_uint32"], start["uinteger"]
    rng.bit_generator.state = end


def _check_count(name: str, value, minimum: int) -> int:
    """``value`` as a Python int, after a ValueError unless it is an
    integer of any type ``operator.index`` takes (numpy's included), not a
    bool, and at least ``minimum``."""
    message = f"{name} must be an integer >= {minimum}, got {value!r}"
    if isinstance(value, bool):
        raise ValueError(message)
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(message) from None
    if count < minimum:
        raise ValueError(message)
    return count


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream_id) pair naming one deterministic sample stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = _check_count(name, getattr(self, name), 0)
            if value > _U64_MAX:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
            object.__setattr__(self, name, value)


def make_generator(seed: RngSeed) -> np.random.Generator:
    """Generator for the stream named by ``seed``; same input, same stream."""
    ss = np.random.SeedSequence(entropy=seed.seed, spawn_key=(seed.stream_id,))
    return np.random.Generator(np.random.PCG64(ss))


def sample_standard_cauchy(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` values from Cauchy(1) via tan(pi (u - 1/2)), in
    stream order, holding one array of ``size`` floats.

    Consumes exactly ``size`` uniforms. A uniform of exactly 0 gives
    -1.633123935319537e16, the largest magnitude a draw can have. The
    median of Cauchy(1) is 0 and its quartiles are -+1.
    """
    size = _check_count("size", size, 0)
    return _fill_cauchy(rng, np.empty(size))


def _fill_cauchy(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    # The next out.size draws of rng's stream into the contiguous float64
    # buffer out, one cache-sized tile at a time.
    for lo in range(0, out.size, _TILE):
        tile = out[lo : lo + _TILE]
        rng.random(out=tile)
        tile -= 0.5
        tile *= np.pi
        np.tan(tile, out=tile)
    return out


def _map_rows(rng: np.random.Generator, width: int, out: np.ndarray, fn) -> None:
    """Draw len(out) rows of ``width`` standard Cauchy draws in stream order,
    a tile of whole rows at a time, and call fn(tile, out[lo:hi]) on each
    tile, an (hi - lo, width) array of rows lo..hi-1; fn writes what those
    rows give into its slice of the caller's ``out``.

    A tile holds at most _TILE draws (512 KB), or one row when a row is
    wider, in one buffer that every tile reuses; fn may overwrite the tile.
    It all runs on the caller's thread. When fn computes each row from its
    own draws alone, out has the bits of one pass over all rows whatever
    the tile size.
    """
    per_tile = max(1, _TILE // width)
    buffer = np.empty(min(per_tile, len(out)) * width)
    for lo in range(0, len(out), per_tile):
        dst = out[lo : lo + per_tile]
        fn(_fill_cauchy(rng, buffer[: len(dst) * width]).reshape(len(dst), width), dst)


def cdf_abs(t):
    """P{|X| <= t} = (2/pi) arctan(t) for t >= 0."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0) or np.any(np.isnan(t)):
        raise ValueError("cdf_abs requires t >= 0")
    out = np.arctan(t)
    out *= 2.0 / np.pi
    return float(out) if out.ndim == 0 else out


def stable_combination(v, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` independent sums sum_j v_j X_j with X_j iid Cauchy(1), each
    distributed as ||v||_1 X and consuming len(v) consecutive draws of the
    stream. Each sum is a function of its own draws alone, so the first m
    sums of a call equal a call of size m; the call holds the sums and one
    tile of draws (see _map_rows)."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("stable_combination requires a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("stable_combination requires finite weights")
    size = _check_count("size", size, 1)
    out = np.empty(size)
    # einsum sums each row in an order fixed by the row alone; a BLAS
    # matrix-vector product rounds a row by where it sits in the call.
    _map_rows(rng, v.size, out, lambda rows, dst: np.einsum("ij,j->i", rows, v, out=dst))
    return out


def ks_statistic(samples, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance between a sample and a CDF.

    max over the sample of |F_hat - F| evaluated on both sides of each
    jump of the empirical CDF. The 1% critical value at size n is about
    1.63/sqrt(n) for large n.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("ks_statistic requires a non-empty sample")
    f = np.asarray(cdf(x), dtype=np.float64)
    grid = np.arange(1, n + 1, dtype=np.float64)
    grid /= n
    # The gaps go into the sorted copy, unless cdf returned a view of it.
    gaps = np.empty(n) if np.may_share_memory(f, x) else x
    d_plus = np.max(np.subtract(grid, f, out=gaps))
    grid -= 1.0 / n
    d_minus = np.max(np.subtract(f, grid, out=gaps))
    return float(max(d_plus, d_minus))


def ks_critical_value(n: int, level: float = 0.01) -> float:
    """Asymptotic KS critical value c(level)/sqrt(n).

    c(level) = sqrt(-ln(level/2)/2) solves 2 exp(-2 c^2) = level, the
    Kolmogorov tail sum 2 sum_j (-1)^(j-1) exp(-2 j^2 c^2) cut after its
    first term; the dropped terms are below 1e-6 for levels up to 5%.
    That gives 1.6276 at 1% and 1.3581 at 5%.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"ks_critical_value requires 0 < level < 1, got {level!r}")
    n = _check_count("n", n, 1)
    return math.sqrt(-math.log(level / 2.0) / 2.0) / math.sqrt(n)
