"""Sketch a small dataset and recover its l1 distances.

Projects a handful of points through a seeded Cauchy matrix in one
product, averages the nonlinear coordinate map over pairs of sketch rows
to get rho (each row against all later rows at once), then inverts the
calibration curve to estimate each true l1 distance. At desk-scale k
the estimates land within a few percent; the planner's k for eps = 0.25
would be far larger because it must also survive a union bound over all
pairs.
"""

import numpy as np

from cauchysketch import RngSeed, mu_inverse, rho, sketch_dataset

rng = np.random.default_rng(7)
points = rng.uniform(-3.0, 3.0, size=(6, 40))
print(f"dataset: {points.shape[0]} points in R^{points.shape[1]}")

k = 4000
sketched = sketch_dataset(points, k, RngSeed(2024, 0))
print(f"sketched down to k = {k} coordinates per point: one {sketched.shape} array")
print()

print(f"{'pair':>6} {'true l1':>9} {'estimate':>9} {'rel err':>8}")
worst = 0.0
for i in range(len(sketched) - 1):
    # row i against rows i+1.. in one call each: one estimate per pair
    estimates = mu_inverse(rho(sketched[i + 1 :], sketched[i]))
    for j, estimate in enumerate(estimates.tolist(), start=i + 1):
        truth = float(np.sum(np.abs(points[i] - points[j])))
        rel = abs(estimate - truth) / truth
        worst = max(worst, rel)
        print(f"({i},{j}) {truth:>9.3f} {estimate:>9.3f} {rel:>8.2%}")
print()
print(f"worst relative error across all pairs: {worst:.2%}")

# the estimator is deterministic given (seed, stream): rerunning the
# sketch reproduces every coordinate, hence every estimate, bit for bit
again = sketch_dataset(points, k, RngSeed(2024, 0))
assert np.array_equal(sketched, again)
print("rerun with the same seed: identical sketch, bit for bit")
