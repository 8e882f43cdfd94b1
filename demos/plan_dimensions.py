"""How many sketch coordinates do you need?

Sweeps the accuracy target and the dataset size, prints the planned
dimension k together with the regime whose Chernoff rate drives it.
The headline: k grows like 1/epsilon^2 but only logarithmically in N.
"""

from cauchysketch import plan_dimension

print("k = planned sketch dimension so that every pairwise distance of an")
print("N-point dataset lands in its (1 +/- eps) band, failure mass N^-(c-2).")
print()

print(f"{'eps':>6} {'N':>8} {'c':>3} {'delta':>10} {'k':>9}  binding regime")
for eps in (0.25, 0.1, 0.05):
    for n_points in (100, 10_000, 1_000_000):
        plan = plan_dimension(eps, n_points, 3.0)
        print(
            f"{eps:>6} {n_points:>8} {3:>3} {plan.delta_fail:>10.2e}"
            f" {plan.k:>9}  {plan.binding_regime}"
        )
print()

# the per-regime rate reciprocals behind one of those rows
plan = plan_dimension(0.25, 100, 3.0)
print("per-regime rate reciprocals at eps = 0.25, N = 100:")
for name, value in plan.regimes.items():
    marker = "  <- binding" if name == plan.binding_regime else ""
    print(f"  {name:<20} {value:>12.1f}{marker}")
print()
print(f"k = ceil(ln(2/delta) * {max(plan.regimes.values()):.1f}) = {plan.k}")
print(f"estimates below lambda0 = {plan.lambda0:.3e} carry no two-sided guarantee")
