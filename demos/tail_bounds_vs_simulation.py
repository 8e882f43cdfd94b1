"""Closed-form tail bounds against a million simulated draws.

The concentration analysis rests on P{xi(lambda|X|) > t} decaying like
exp(-t) once t clears a scale-dependent threshold. This script pits the
exact survival function and the two-branch exponential bound against
raw Monte Carlo frequency, then does the same for the max-of-k bound
that covers really-small distances. The closed-form column is the
survival of the dominating variable 2 ln(1 + sqrt(lambda|X|)), which
sits between the simulated xi tail and the exponential bound.
"""

import numpy as np

from cauchysketch import RngSeed, xi
from cauchysketch.cauchy import make_generator, sample_standard_cauchy
from cauchysketch.concentration import dominating_survival, xi_tail_bound
from cauchysketch.verify import verify_max_bound

n = 1_000_000
print(f"tail of xi(lambda |X|), {n:,} draws per scale")
print(f"{'lambda':>7} {'t':>5} {'simulated':>11} {'dominating':>11} {'bound':>11}")
for idx, lam in enumerate((0.1, 1.0, 10.0)):
    draws = sample_standard_cauchy(make_generator(RngSeed(99, idx)), n)
    y = xi(lam * np.abs(draws))
    for t in (2.0, 3.0, 5.0, 10.0):
        freq = float(np.mean(y > t))
        dom = dominating_survival(lam, t)
        bound = xi_tail_bound(lam, t)
        assert freq <= bound and dom <= bound
        print(f"{lam:>7} {t:>5} {freq:>11.3e} {dom:>11.3e} {bound:>11.3e}")
print()
print("dominating <= bound at every scale and level; the simulated tail")
print("tracks the dominating curve from below, up to Monte Carlo noise")
print()

# the max-of-k side: no coordinate of a k-sketch blows past the planned
# threshold except with probability about delta
print("max-of-iid exceedance, 10,000 trials each:")
for idx, (k, delta) in enumerate(((100, 0.01), (1000, 0.001))):
    case = verify_max_bound(k, 1.0, delta, 10_000, RngSeed(99, 10 + idx))
    print(f"  k = {k:>4}, delta = {delta}: observed {case['oracle']:.4f}"
          f" vs certified {case['closed_form']} (+/- {case['tolerance']:.4f})"
          f" -> {'ok' if case['pass'] else 'EXCEEDED'}")
