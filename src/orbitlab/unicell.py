"""Orbit comparison, and the report rows of the Toeplitz steering solve
(``polynet.steer``).

Comparison: the vector whose first sufficiently large head coordinate appears
earlier can be steered onto the other; the chosen direction plus a measured
certificate chain is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .basis import poly_shift_apply, shift_e, vec_norm, vec_project, vec_sub
from .errors import OrbitLabError, PreconditionError
from .hypercyclic import PipelineStep, fan_power_steps
from .operators import sup_e_norm
from .polynet import (Poly, ToeplitzSystem, ZETA, b_damped, left_sum,
                      solve_poly, steer)
from .report import Entry, check

X_CONTAINS_Y = "x-contains-y"
Y_CONTAINS_X = "y-contains-x"

COMPARISON_BASE = 4.0  # the constant C of the large-coordinate ladder
STEER_SYSTEMS = 200    # random Toeplitz systems of the steer.random row
STEER_SAMPLES = 200    # random head pairs of the steering-constant estimate
COMPARE_PAIRS = 30     # random head pairs of the compare.* rows


def steering_residual(sys: ToeplitzSystem, p: Poly) -> float:
    """l2 residual of p(T_xi) x = y on [r, xi] (plain coordinates)."""
    out = poly_shift_apply(p, dict(enumerate(sys.x)), sys.xi - sys.r)
    return math.sqrt(left_sum(abs(out.get(i, 0) - yv) ** 2
                              for i, yv in enumerate(sys.y)))


# -- large head coordinates ---------------------------------------------------------

@dataclass(frozen=True)
class LargeCoordIndex:
    stage: int
    j: int
    value: float              # |alpha_j|
    threshold: float          # C^-(xi - j + 1)
    side_condition_ok: bool   # sqrt(C) >= sup ||e_j|| on the head block


def large_coord_index(basis, x_f: dict, n: int) -> Optional[LargeCoordIndex]:
    """Smallest j in [0, xi_n] whose e-coordinate of x / ||x|| clears the
    ladder C^-(xi-j+1), C = COMPARISON_BASE; None when no coordinate
    qualifies."""
    st = basis.schedule.stage(n)
    nx = vec_norm(x_f)
    if nx == 0:
        return None
    alpha = basis.f_to_e(vec_project(x_f, 0, st.xi))
    side_ok = math.sqrt(COMPARISON_BASE) >= sup_e_norm(basis, st.xi)
    for j in range(st.xi + 1):
        thr = COMPARISON_BASE ** -(st.xi - j + 1)
        val = abs(alpha.get(j, 0)) / nx
        if val >= thr:
            return LargeCoordIndex(n, j, float(val), thr, side_ok)
    return None


# -- orbit comparison ----------------------------------------------------------------

@dataclass
class ComparisonResult:
    direction: str
    j_lead: int
    poly: Poly
    k: int
    power: int
    steps: tuple
    final_residual: float
    composed_bound: float
    details: dict = field(default_factory=dict)


def compare_orbits(basis, x_f: dict, y_f: dict, n: int) -> ComparisonResult:
    """Decide which orbit closure contains the other at this truncation scale
    and certify the steering chain; ties keep the first argument in front."""
    nx, ny = vec_norm(x_f), vec_norm(y_f)
    if nx == 0 or ny == 0:
        raise PreconditionError("orbit comparison needs nonzero vectors")
    x_f = {j: v / nx for j, v in x_f.items()}
    y_f = {j: v / ny for j, v in y_f.items()}
    jx = large_coord_index(basis, x_f, n)
    jy = large_coord_index(basis, y_f, n)
    if jx is None and jy is None:
        raise PreconditionError(
            "neither vector has a large head coordinate at this stage")
    if jy is None or (jx is not None and jx.j <= jy.j):
        direction, lead, follow, j_lead = X_CONTAINS_Y, x_f, y_f, jx
    else:
        direction, lead, follow, j_lead = Y_CONTAINS_X, y_f, x_f, jy

    st = basis.schedule.stage(n)
    xi = st.xi
    au = basis.f_to_e(vec_project(lead, 0, xi))
    av = basis.f_to_e(vec_project(follow, 0, xi))
    js = j_lead.j
    p = steer(au, av, js, xi)

    # steering error on the full heads (small-coordinate tails of both sides)
    t1 = basis.e_norm(vec_sub(poly_shift_apply(p, au, xi), av))

    p_shift = ZETA * p
    target = shift_e(av, 1, basis.n_trunc)
    t2 = basis.e_norm(vec_sub(poly_shift_apply(p_shift, au, basis.n_trunc),
                              target))

    q = b_damped(p_shift, st.b, degree_cap=st.nu)
    t3 = basis.e_norm(vec_sub(poly_shift_apply(q, au, basis.n_trunc), target))

    k0, snap_dist, _, lead_e, fan_steps = fan_power_steps(basis, lead, q, n)
    final = vec_norm(vec_sub(basis.e_to_f(lead_e), basis.e_to_f(target)))

    steps = (
        PipelineStep("steer", t1, max(t1, 1e-300), "head steering residual"),
        PipelineStep("shift-target", t2, max(t2, 1e-300),
                     "after multiplying the steering polynomial by zeta"),
        PipelineStep("damped-target", t3, t3, "after modulus damping"),
        *fan_steps,
    )
    composed = float(left_sum((t3, *(s.bound for s in fan_steps))))
    return ComparisonResult(
        direction=direction, j_lead=js, poly=p, k=k0 + 1, power=st.c[k0], steps=steps,
        final_residual=final, composed_bound=composed,
        details={
            "snap_distance": float(snap_dist),
            "damped_unit_modulus": bool(q.ell1 < 1),
            "lead_value": j_lead.value,
            "side_condition_ok": j_lead.side_condition_ok,
        },
    )


# -- report rows ----------------------------------------------------------------------

def unicell_entries(basis, n: int, rng) -> list[Entry]:
    st = basis.schedule.stage(n)
    entries: list[Entry] = []

    worst = 0.0
    for _ in range(STEER_SYSTEMS):
        xi = int(rng.integers(1, 12))
        r = int(rng.integers(0, xi))
        x = rng.standard_normal(xi - r + 1)
        x[0] = x[0] + (2.0 if x[0] >= 0 else -2.0)  # keep the pivot away from 0
        y = rng.standard_normal(xi - r + 1)
        sysm = ToeplitzSystem(xi, r, tuple(x), tuple(y))
        p = solve_poly(sysm)
        worst = max(worst, steering_residual(sysm, p) /
                    max(math.sqrt(float(left_sum(y * y))), 1e-300))
    entries.append(check(
        "steer.random",
        f"worst steering residual over {STEER_SYSTEMS} random systems",
        worst, 1e-10, asserted=True))

    slope = growth_exponent_fit(8, 3, rng)
    entries.append(check(
        "steer.growth", "log-log growth exponent of |p| in the inverse leading "
        "coordinate vs dimension count xi-r+1 (+0.1)",
        slope, 8 - 3 + 1 + 0.1, asserted=True))

    cprime = steering_constant_estimate(basis, n, rng)
    entries.append(check(
        "steer.constant",
        "empirical steering constant (max |p| * |lead|^(xi-j+1) over a unit "
        "sphere sample) vs the comparison base",
        cprime, None, asserted=False,
        details={"comparison_base": COMPARISON_BASE,
                 "dominated": bool(COMPARISON_BASE >= cprime)}))

    total, failures, antisym = 0, 0, True
    for _ in range(COMPARE_PAIRS):
        x = _random_unit_head(basis, st.xi, rng)
        y = _random_unit_head(basis, st.xi, rng)
        jx = large_coord_index(basis, x, n)
        jy = large_coord_index(basis, y, n)
        if jx is None or jy is None:
            continue
        total += 1
        try:
            r1 = compare_orbits(basis, x, y, n)
            r2 = compare_orbits(basis, y, x, n)
        except OrbitLabError:
            failures += 1
            continue
        if jx.j != jy.j:
            antisym &= {r1.direction, r2.direction} == {X_CONTAINS_Y, Y_CONTAINS_X}
    entries.append(check(
        "compare.total",
        f"orbit comparison failed on {failures} of {total} admissible pairs",
        float(failures), 0.0, asserted=True))
    entries.append(check(
        "compare.antisym", "swapping arguments flips the direction whenever "
        "the lead indices differ",
        0.0 if antisym else 1.0, 0.0, asserted=True))
    gated = basis.schedule.n_stages >= 2
    entries.append(check(
        "compare.stages", "multi-stage comparison depth available",
        float(basis.schedule.n_stages), None, asserted=False,
        details={"note": f"entries above run at stage {n}; the "
                         "alternating-stage argument needs >= 2 stages",
                 "binding": gated}))
    return entries


def steering_constant_estimate(basis, n: int, rng) -> float:
    """Empirical version of the steering-modulus constant: the largest
    |p| * |leading coordinate|^(xi - j + 1) over random unit head pairs.
    Recorded next to the comparison base, never asserted (the two constants
    relate only asymptotically)."""
    st = basis.schedule.stage(n)
    xi = st.xi
    worst = 0.0
    for _ in range(STEER_SAMPLES):
        x = _random_unit_head(basis, xi, rng)
        y = _random_unit_head(basis, xi, rng)
        ax = basis.f_to_e(x)
        j = min(i for i, v in ax.items() if abs(v) > 1e-12)
        p = steer(ax, basis.f_to_e(y), j, xi)
        worst = max(worst, float(p.ell1) * abs(ax[j]) ** (xi - j + 1))
    return worst


def growth_exponent_fit(xi: int, r: int, rng) -> float:
    """Robust log-log regression of |p| against 1/ell while the leading
    coordinate ell shrinks.

    Theil-Sen slope: a sign-cancellation in the top coefficient can carve a
    dip into the curve at one scale, which tilts a least-squares line above
    the true exponent; the median of pairwise slopes ignores it.
    """
    base_x = rng.standard_normal(xi - r + 1)
    y = rng.standard_normal(xi - r + 1)
    ells = [2.0 ** -e for e in range(6, 22)]
    logs = []
    for ell in ells:
        x = base_x.copy()
        x[0] = ell
        p = solve_poly(ToeplitzSystem(xi, r, tuple(x), tuple(y)))
        logs.append(math.log(float(p.ell1)))
    return theil_sen_slope([math.log(1 / e) for e in ells], logs)


def theil_sen_slope(x, y) -> float:
    """Median of the pairwise slopes (y_j - y_i) / (x_j - x_i) over x_j > x_i:
    the slope of ``scipy.stats.theilslopes(y, x)``, without loading
    scipy.stats (some 400 modules that would stay resident)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x[:, np.newaxis] - x
    dy = y[:, np.newaxis] - y
    up = dx > 0
    return float(np.median(dy[up] / dx[up]))


def _random_unit_head(basis, xi: int, rng) -> dict:
    v = rng.standard_normal(xi + 1)
    v /= math.sqrt(float(left_sum(v * v)))
    return {j: float(c) for j, c in enumerate(v)}
