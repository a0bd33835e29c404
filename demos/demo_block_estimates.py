#!/usr/bin/env python3
"""Measure the operator's block norms and see which claims calibrate.

The shift acts as a weighted shift on gaps and a plain shift inside working
intervals; all the action concentrates at interval boundaries.  Bands are
cut at the working length nu.  Claims assert only where the schedule sits
above its calibration gates (gap lengths, shade counts, chain factors);
below them the measured constants are reported as data.
"""

import orbitlab as ol
from orbitlab import operators as ops

sched, fams = ol.profiles.mini_schedule()
b = ol.assemble(sched, fams)

entry, res = ops.full_norm_entry(b)
print(f"operator norm: {res.value:.6g} ({res.method})\n")

for n in (1, 2):
    gates = ops.stage_gates(b, n)
    print(f"stage {n} gates: " + ", ".join(
        f"{name} {'open' if ok else 'closed'}" for name, (ok, _) in gates.items()))
    for e in ops.block_estimates(b, n):
        bound = "" if e.bound is None else f" vs {e.bound:g}"
        print(f"  {e.status:13s} {e.claim_id:26s} measured {e.measured:.4g}{bound}")
    print()

print("tail power constants (the universal 100 needs far larger shade "
      "counts and gaps):")
for k in (1, 2):
    e = ops.tail_bound_entry(b, 1, k)
    print(f"  {e.status:13s} {e.claim_id:22s} measured {e.measured:.4g}")
