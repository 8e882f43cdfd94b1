"""The calibration curve mu and its inverse.

mu(lambda) is the expected coordinate value of a sketch at true l1
distance lambda. It is strictly increasing, behaves like sqrt(2*lambda)
near zero and like ln(lambda) at infinity, and inverting it turns an
observed sketch average back into a distance estimate.
"""

import math

import numpy as np

from cauchysketch.metric import xi
from cauchysketch.moments import expected_log1p, mu, mu_inverse, mu_small_envelope
from cauchysketch.quadrature import quadrature_mean

print("mu across thirteen decades, checked against adaptive quadrature:")
print(f"{'lambda':>9} {'mu':>12} {'quadrature':>14} {'|diff|':>9}")
for j in range(-6, 7, 2):
    lam = 10.0**j
    closed = mu(lam)
    quad = quadrature_mean(xi, lam)
    print(f"{lam:>9.0e} {closed:>12.8f} {quad:>14.10f} {abs(closed - quad):>9.1e}")
print()

print("small-scale envelope: sqrt(2 lam)/(1+lam) brackets mu up to lam = 1")
print(f"{'lambda':>9} {'lower':>10} {'mu':>10} {'upper':>10}")
for lam in (1e-6, 1e-3, 0.1, 0.5, 1.0):
    lo, hi = mu_small_envelope(lam)
    assert lo <= mu(lam) <= hi
    print(f"{lam:>9.0e} {lo:>10.6f} {mu(lam):>10.6f} {hi:>10.6f}")
print()

print("large-scale drift: mu(lambda) - ln(lambda) -> 0 like sqrt(2/lambda)")
for lam in (1e2, 1e4, 1e6):
    drift = mu(lam) - math.log(lam)
    print(f"  lambda = {lam:>7.0e}: drift = {drift:.6f}, sqrt(2/lam) = {math.sqrt(2 / lam):.6f}")
print()

print("the companion curve E ln(1 + lambda |X|) never exceeds 2 mu:")
for lam in (0.01, 0.5, 2.0, 50.0):
    print(f"  lambda = {lam:>5}: elog1p = {expected_log1p(lam):.6f}, 2 mu = {2 * mu(lam):.6f}")
print()

rng = np.random.default_rng(11)
lams = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=1000))
round_trip = mu_inverse(mu(lams))
worst = float(np.max(np.abs(round_trip - lams) / lams))
print(f"inverse round trip over 1000 random scales: worst rel error {worst:.2e}")
