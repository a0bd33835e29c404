#!/usr/bin/env python3
"""Monte Carlo check of the head-coordinate anti-concentration bound.

The head functional pairs with very few basis vectors (f_0 and the fan base
points of earlier stages), so it stays computable at stage depths whose
truncations could never be materialized.  For a random series with
independent Gaussian coefficients, the probability that the stage-n head
coordinate is squeezed below 2^-n M decays geometrically, summably so;
that is the smallness mechanism for the set of vectors that never clear
the head threshold.
"""

import orbitlab as ol
from orbitlab import negligibility as neg

SEED = 20250810

for field in (ol.REAL, ol.COMPLEX):
    sched, fams = ol.profiles.statistical_schedule(6, field)
    print(f"\n{field} field, 6 virtual stages "
          f"(deepest truncation would need ~{sched.xi_end:.3g} indices):")
    sampler = neg.GaussianSampler(field, SEED)
    for n in range(1, 7):
        phi = neg.e0_functional_structural(sched, fams, n)
        stat, = neg.coord_tail_probability(phi, {}, sampler, n, (1.0,), 100_000)
        print(f"  n={n}: support {len(phi):2d} points, "
              f"P(|X| <= 2^-{n}) = {stat.empirical:.5f} "
              f"(99% radius {stat.conf_radius:.5f})  "
              f"bound {stat.analytic_bound:.5f}  "
              f"{'ok' if stat.passed else 'EXCEEDED'}")
    partial, tail = neg.borel_cantelli_sum(1.0, 1.0, 6, field)
    print(f"  analytic series: partial {partial:.5f} + geometric tail "
          f"{tail:.5f} = {partial + tail:.5f}")
