#!/usr/bin/env python3
"""Punch a ball out of the small-head-coordinate set.

The head functional's norm grows like 1/gamma along the stages, because it
pairs with the fan base vectors at exactly that strength.  Displacing any
small-coordinate vector along the functional's maximizing direction by
delta, every point of the half-radius ball around the displacement has a
head coordinate above the threshold: the displaced ball misses the set
entirely, at every scale.  That is porosity with ratio one half.
"""

import numpy as np

import orbitlab as ol
from orbitlab import negligibility as neg
from orbitlab.basis import vec_norm

sched, fams = ol.profiles.reference_schedule()
b = ol.assemble(sched, fams)
rng = np.random.default_rng(11)

k, M = 2, 2.0
phi = neg.e0_functional_structural(b.schedule, b.families, k)
norm = vec_norm(phi)
val, expected = neg.functional_gamma_identity(b.schedule, b.families, 1)
print(f"head functional at stage {k}: support {sorted(phi)}")
print(f"pairing with the first fan base vector: {val} "
      f"(exactly -1/gamma = {expected})")
print(f"functional norm {norm:.4g} (>= 2^{k}: {norm >= 2 ** k})\n")

level = 2.0 ** -k * M
delta_min = 4 * level / norm
print(f"level 2^-{k} * {M} = {level}; smallest admissible radius "
      f"{delta_min:.3g}\n")

for delta in (1.5 * delta_min, 0.05, 0.5):
    rec = neg.porosity_witness(phi, {}, delta, M, k, rng)
    vals = (f"ball values in [{min(rec.sample_values):.4g}, "
            f"{max(rec.sample_values):.4g}]" if rec.sample_values else "")
    print(f"delta = {delta:.4g}: selected={rec.selected} "
          f"passed={rec.passed}  {vals}  (level {rec.level})")
