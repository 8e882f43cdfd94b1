"""Cauchy projections for l1 distances.

Sketch an (N, d) point set X into the (N, k) array X F^T, where F is a
seeded k x d matrix of iid standard Cauchy entries. Compare two sketch
rows in the bounded metric rho (the mean of xi(|difference|) across
coordinates), and invert the mean map mu to recover their l1 distance
within a factor 1 +- epsilon: mu_inverse(rho(u, v)). plan_dimension picks
the k that makes this hold for all pairs of an N-point set
simultaneously, and run_suite checks every closed form against
independent quadrature and Monte Carlo oracles.

The root exports the plan -> sketch -> estimate -> verify path; the
bounds, oracles and helpers behind it live in the submodules.
"""

from .cauchy import RngSeed
from .concentration import InfeasibleParameterError, max_abs_plan, plan_dimension
from .metric import rho, rho_pairs, xi
from .moments import mu, mu_inverse
from .sketch import (
    DatasetFormatError,
    build_projection,
    read_binary_matrix,
    read_points,
    regime_tag,
    sketch_dataset,
    write_binary_matrix,
)
from .verify import SUITES, run_suite

__version__ = "0.22.0"

__all__ = [
    "__version__",
    "RngSeed",
    "DatasetFormatError",
    "InfeasibleParameterError",
    "plan_dimension",
    "max_abs_plan",
    "build_projection",
    "sketch_dataset",
    "read_points",
    "read_binary_matrix",
    "write_binary_matrix",
    "xi",
    "rho",
    "rho_pairs",
    "mu",
    "mu_inverse",
    "regime_tag",
    "SUITES",
    "run_suite",
]
