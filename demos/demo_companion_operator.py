#!/usr/bin/env python3
"""The companion operator: shift everywhere except on f_0.

With fan polynomials whose constant terms vanish, killing the e_0 component
before shifting leaves every basis vector f_j (j >= 1) untouched, so the
companion A is bounded and agrees with the operator off a one-dimensional
slice; with a constant polynomial in the fan, the same definition blows up
by 1/gamma on the fan base column.  A does not commute with the operator,
yet every image A x sits in the closure of the orbit of x.
"""

import orbitlab as ol
from orbitlab import operators as ops
from orbitlab import reflexivity as refl

sched, fams = ol.profiles.mini_schedule(companion=True)
b = ol.assemble(sched, fams)
print(f"fan families (zero constant terms): "
      f"{[tuple(p.coeffs for p in f) for f in b.families]}")

A = refl.build_A(b)
T = ops.conjugated_power(b)
print(f"columns j >= 1 identical to the operator: "
      f"{(A[:, 1:] - T[:, 1:]).nnz == 0}")

ta, at = refl.noncommutation_witness(b, A)
print(f"T A f_0 = {ta or 0}   A T f_0 = {at}  (no commutation)")

nA = ops.op_norm(A).value
nT = ops.op_norm(T).value
print(f"norms: companion {nA:.6g} <= operator {nT:.6g}\n")

for x in ({3: 1.0}, {0: 1.0}, {0: 1.0, 3: 1.0}):
    m = refl.orbit_membership(b, x, 1, A)
    if m.kind == "exact-shift":
        print(f"x = {x}: A x = T x exactly (residual {m.exact_residual})")
    else:
        c = m.certificate
        print(f"x = {x}: power {c.power} carries x within "
              f"{c.final_residual:.4g} of e_1 "
              f"(composed bound {c.composed_bound:.4g}); "
              f"A x has no f_0 component ({m.image_f0_component})")

print("\nthe constant-term profile refuses:")
sched2, fams2 = ol.profiles.mini_schedule()
b2 = ol.assemble(sched2, fams2)
try:
    refl.build_A(b2)
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
