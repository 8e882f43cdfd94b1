"""Adaptive Gauss-Kronrod quadrature, the oracle of every moment formula.

quadrature_mean evaluates E g(lambda |X|) for X standard Cauchy by
splitting at 1 and inverting the outer leg:

    E g(lambda |X|) = (2/pi) [ int_0^1 g(lambda x)/(1+x^2) dx
                             + int_0^1 g(lambda/u)/(1+u^2) du ].

Both legs get geometric panels piled toward 0 before adaptive refinement:
g = xi has a square-root cusp at the origin, the inverted leg grows like
ln(1/u), and plain polynomial quadrature on [0, 1] loses seven digits on
the cusp. Panels use the Gauss-7/Kronrod-15 pair; the Kronrod value is
the estimate and the difference to the embedded Gauss value the error.

One engine integrates f(p, x) over [0, 1] for a vector of parameters p in
lockstep. Each integral keeps its own panel heap and running sums and
takes exactly the steps it would take alone, while each round sends the
panels of all of them through one call of f. So an array of lambda gives,
element by element, the bits of one call per lambda.

The module imports nothing of the package but the lambda check of
`moments`, so every other module, the planners included, can import it.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .moments import _check_lambda

__all__ = ["QuadratureError", "quadrature_mean"]

# Gauss-7 / Kronrod-15 pair on [-1, 1], to the digits of QUADPACK's
# dqk15 (rounded to float64 as read): Kronrod nodes by descending
# magnitude; the odd-indexed ones carry the embedded Gauss rule.
_KRONROD_NODES = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_KRONROD_WEIGHTS = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_GAUSS_WEIGHTS = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

_NODES = np.concatenate([-_KRONROD_NODES[:-1], _KRONROD_NODES[::-1]])
_W_KRONROD = np.concatenate([_KRONROD_WEIGHTS[:-1], _KRONROD_WEIGHTS[::-1]])
_W_GAUSS = np.zeros_like(_W_KRONROD)
_W_GAUSS[1::2] = np.concatenate([_GAUSS_WEIGHTS[:-1], _GAUSS_WEIGHTS[::-1]])

# Geometric ladder 1, 1/2, ..., 2^-48 resolving the origin on both legs.
_LADDER_DEPTH = 48
_PANEL_BUDGET = 4096


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the tolerance within budget,
    or an integral's value or error estimate is not finite."""


def _panels(f, p, a, b) -> tuple[list[float], list[float]]:
    # Kronrod values and error estimates of f(p[i], .) over the panels
    # [a[i], b[i]], from one call of f on all their nodes. np.vecdot
    # reduces each row with the dot kernel of that row's own w @ row, so
    # a panel's numbers do not depend on the panels beside it. Neither
    # ys @ w (gemv) nor einsum may replace it: they sum in another order,
    # and on rows of like magnitudes about half of their results differ
    # from the row-by-row bits.
    p = np.asarray(p, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    half = 0.5 * (b - a)
    ys = f(p[:, None], (0.5 * (a + b))[:, None] + half[:, None] * _NODES)
    kronrod = half * np.vecdot(ys, _W_KRONROD)
    gauss = half * np.vecdot(ys, _W_GAUSS)
    return kronrod.tolist(), np.abs(kronrod - gauss).tolist()


def _unit_integrals(f, params, tol: float, name: str) -> list[float]:
    """The integral of f(p, x) over x in [0, 1] for each p in params.

    Each starts from panels seeded geometrically toward 0 and bisects its
    worst panel until its error sum is at most tol; QuadratureError names
    the p (as name=p) whose sums are not finite or whose panels exceed
    _PANEL_BUDGET.
    """
    params = [float(p) for p in params]
    edges = [0.0] + [2.0**-j for j in range(_LADDER_DEPTH, -1, -1)]
    lows, highs = edges[:-1], edges[1:]
    rungs = len(lows)
    values, errors = _panels(f, np.repeat(params, rungs), lows * len(params), highs * len(params))
    totals, errs, heaps = [], [], []
    for i in range(len(params)):
        rows = range(i * rungs, (i + 1) * rungs)
        total = err = 0.0
        for r in rows:
            total += values[r]
            err += errors[r]
        # keys (-e, count) are unique, so heapify pops as pushing did
        heap = [
            (-errors[r], count, a, b, values[r])
            for count, (r, a, b) in enumerate(zip(rows, lows, highs))
        ]
        heapq.heapify(heap)
        totals.append(total)
        errs.append(err)
        heaps.append(heap)
    counts = [rungs] * len(params)

    def unconverged(i: int) -> bool:
        if not (math.isfinite(totals[i]) and math.isfinite(errs[i])):
            raise QuadratureError(
                f"integral not finite at {name}={params[i]!r} "
                f"(value={totals[i]!r}, err={errs[i]!r})"
            )
        return errs[i] > tol

    open_ = [i for i in range(len(params)) if unconverged(i)]
    while open_:
        p, lo, hi, popped = [], [], [], []
        for i in open_:
            if counts[i] > _PANEL_BUDGET:
                raise QuadratureError(
                    f"no convergence within {_PANEL_BUDGET} panels at {name}={params[i]!r} "
                    f"(err={errs[i]:.3e}, tol={tol:.3e})"
                )
            neg_e, _, a, b, value = heapq.heappop(heaps[i])
            mid = 0.5 * (a + b)
            p += (params[i], params[i])
            lo += (a, mid)
            hi += (mid, b)
            popped.append((neg_e, a, mid, b, value))
        values, errors = _panels(f, p, lo, hi)
        for j, (i, (neg_e, a, mid, b, value)) in enumerate(zip(open_, popped)):
            left, right = values[2 * j], values[2 * j + 1]
            e_left, e_right = errors[2 * j], errors[2 * j + 1]
            totals[i] += left + right - value
            errs[i] += e_left + e_right + neg_e
            heapq.heappush(heaps[i], (-e_left, counts[i], a, mid, left))
            heapq.heappush(heaps[i], (-e_right, counts[i] + 1, mid, b, right))
            counts[i] += 2
        open_ = [i for i in open_ if unconverged(i)]
    return totals


def quadrature_mean(g, lam):
    """E g(lambda |X|) by adaptive split-and-invert quadrature.

    g is the integrand, a function of a float64 array applied elementwise
    (xi, np.log1p, _xi_squared, or any parameterised one such as
    lambda a: np.power(a, u)). A float lambda gives a float, an array of
    lambda an array of its shape, each element with the bits of its own
    float call. The estimated error of each result is at most 1e-12;
    QuadratureError names the lambda whose integral is not finite or
    does not converge. This oracle shares no code with the closed forms
    it is used to check.
    """
    lam = _check_lambda(lam, positive=True)
    lams = np.ravel(lam)
    # each leg gets half the 1e-12 error bound
    inner = _unit_integrals(lambda p, x: g(p * x) / (1.0 + x * x), lams, 0.5e-12, "lambda")
    outer = _unit_integrals(lambda p, u: g(p / u) / (1.0 + u * u), lams, 0.5e-12, "lambda")
    means = [2.0 / math.pi * (a + b) for a, b in zip(inner, outer)]
    return means[0] if np.ndim(lam) == 0 else np.reshape(means, np.shape(lam))
