"""Acceptance gate: every exit criterion at its stated tolerance, one printed
pass/fail line per criterion.

Tolerances are pinned here, not deferred: exact identities are 0 in rational
mode and 1e-10 relative in float mode; calibrated bounds assert against the
stage tolerance delta_1 = 0.25 after gamma calibration; measured-margin rows
assert only the monotone trends (on the b-calibrated twin where the b = 64
reference sits below the calibration threshold -- see the decisions ledger);
statistical rows use the fixed seed 20250810 with 1e5 trials.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import orbitlab as ol
from orbitlab import geometry as geo
from orbitlab import hypercyclic as hyp
from orbitlab import negligibility as neg
from orbitlab import operators as ops
from orbitlab import reflexivity as refl
from orbitlab import unicell as uni
from orbitlab.basis import shift_e, solve_F, vec_clean, vec_norm
from orbitlab.profiles import doubled_layoffs

from conftest import layoff_weights, reference_schedule_bcal

SEED = 20250810
FLOAT_TOL = 1e-10


def criterion(cid: str, ok: bool, detail: str):
    print(f"ACCEPT {cid:24s} {'PASS' if ok else 'FAIL':4s}  {detail}")
    assert ok, f"{cid}: {detail}"


# -- 1. exact identities -----------------------------------------------------------

def test_1a_roundtrip_float(r1):
    fe = ol.roundtrip_max_error(r1, "FE")
    ef = ol.roundtrip_max_error(r1, "EF")
    criterion("1a.roundtrip.float", max(fe, ef) <= FLOAT_TOL,
              f"max entrywise residual FE={fe:.3g} EF={ef:.3g} <= {FLOAT_TOL}")


def test_1a_roundtrip_exact(r1_rational):
    fe = ol.roundtrip_exact(r1_rational, "FE")
    ef = ol.roundtrip_exact(r1_rational, "EF")
    criterion("1a.roundtrip.exact", fe == ef == (True, None, 0),
              f"both products equal the identity exactly: FE={fe} EF={ef}")


def test_1b_layoff_action_float(r1):
    T = ops.conjugated_power(r1)
    worst = 0.0
    checked = 0
    Tc = T.tocsc()
    layoff, w = layoff_weights(r1.schedule)
    for j in range(5, r1.n_trunc):
        if not (layoff[j] and layoff[j + 1]):
            continue
        t1, t2 = ol.classify(j, r1.schedule), ol.classify(j + 1, r1.schedule)
        if t1 != t2:
            continue
        lo, hi = Tc.indptr[j], Tc.indptr[j + 1]
        rows = Tc.indices[lo:hi]
        vals = Tc.data[lo:hi]
        expected = w[j] / w[j + 1]
        assert len(rows) == 1 and rows[0] == j + 1
        worst = max(worst, abs(vals[0] - expected) / expected)
        checked += 1
    criterion("1b.layoff.action", checked > 390_000 and worst <= FLOAT_TOL,
              f"{checked} interior lay-off columns, worst rel dev {worst:.3g}")


def test_1b_layoff_action_exact(r1_rational):
    b = r1_rational
    bad = 0
    checked = 0
    layoff, w = layoff_weights(b.schedule)
    for j in np.flatnonzero(layoff[:-1] & layoff[1:]).tolist():
        if ol.classify(j, b.schedule) != ol.classify(j + 1, b.schedule):
            continue
        got = vec_clean(b.e_to_f(shift_e(b.f_col(j), 1, b.n_trunc)))
        if got != {j + 1: w[j] / w[j + 1]}:
            bad += 1
        checked += 1
    criterion("1b.layoff.exact", checked > 390_000 and bad == 0,
              f"{checked} columns checked exactly, {bad} mismatches")


def test_1c_descent_vs_solve_exact(r1_rational):
    st = r1_rational.schedule.stage(1)
    bad = []
    for ra in range(st.h + 1):
        for rb in range(st.h + 1):
            if not (ra or rb):
                continue
            coord = geo.LatticeCoord(1, (ra, rb), 0)
            m = ol.coord_to_index(coord, r1_rational.schedule)
            d = ol.lattice_descent(r1_rational, coord)
            oracle = solve_F(r1_rational, {m: Fraction(1)})
            if d.f_coords != oracle:
                bad.append(coord.r)
    criterion("1c.descent.solve", not bad,
              f"all {(st.h + 1) ** 2 - 1} lattice start indices match the "
              f"triangular-solve oracle exactly; mismatches: {bad}")


def test_1d_steering_solver(rng):
    worst = 0.0
    for _ in range(1000):
        xi = int(rng.integers(1, 14))
        r = int(rng.integers(0, xi))
        x = rng.standard_normal(xi - r + 1)
        x[0] += 2.0 if x[0] >= 0 else -2.0
        y = rng.standard_normal(xi - r + 1)
        sysm = uni.ToeplitzSystem(xi, r, tuple(x), tuple(y))
        p = uni.solve_poly(sysm)
        ny = max(math.sqrt(float(np.dot(y, y))), 1e-300)
        worst = max(worst, uni.steering_residual(sysm, p) / ny)
    criterion("1d.steering", worst <= FLOAT_TOL,
              f"1000 random systems, worst relative residual {worst:.3g}")


def test_1e_companion_witnesses(r1_companion_rational):
    b = r1_companion_rational
    A = refl.build_A(b)
    T = ops.conjugated_power(b)
    cols_ok = (A[:, 1:] - T[:, 1:]).nnz == 0
    ta, at = refl.noncommutation_witness(b, A)
    criterion("1e.companion", cols_ok and ta == {} and at == {2: 1.0},
              "A f_j = T f_j for j >= 1, T A e_0 = 0, A T e_0 = e_2, all exact")


# -- 2. calibrated bounds ------------------------------------------------------------

def test_2a_fan_bound(r1, rng):
    bound = hyp.fan_residual_bound(r1, 1)
    ok = bound <= 0.25 * (1 + 1e-9)
    st = r1.schedule.stage(1)
    worst = 0.0
    for _ in range(30):
        x = {j: float(v) for j, v in enumerate(rng.standard_normal(st.nu + 1))}
        nx = math.sqrt(sum(v * v for v in x.values()))
        for k in (1, 2):
            worst = max(worst, hyp.fan_residual(r1, x, 1, k) / nx)
    criterion("2a.fan.bound", ok and worst <= 0.25 * (1 + 1e-9),
              f"operator bound {bound:.6f} <= 0.25; worst sampled ratio "
              f"{worst:.6f}")


def test_2b_damping_identity(r1):
    C, per_vec = hyp.b_identity_constant(r1, 1)
    worst = max(per_vec)
    criterion("2b.damping", worst <= C / 64 * (1 + 1e-9),
              f"head-basis residuals <= measured C/b = {C / 64:.6f} "
              f"(C = {C:.4f})")


def test_2c_low_block(r1):
    T = ops.conjugated_power(r1)
    st = r1.schedule.stage(1)
    res = ops.sigma_max_block(T, slice(0, st.nu + 1),
                              slice(st.nu + 1, r1.n_trunc + 1))
    criterion("2c.low.block", res.value <= 0.25,
              f"compressed-block norm {res.value:.3g} <= delta_1 = 0.25")


# -- 3. measured margins ------------------------------------------------------------

def test_3a_norm_finite_and_gap_monotone(r1):
    _, res = ops.full_norm_entry(r1)
    ok_finite = res.converged and math.isfinite(res.value)
    sched_b, fams_b = reference_schedule_bcal()
    b1 = ol.assemble(sched_b, fams_b)
    _, n1 = ops.full_norm_entry(b1)
    b2 = ol.assemble(doubled_layoffs(sched_b), fams_b)
    _, n2 = ops.full_norm_entry(b2)
    # the b = 64 reference is below the monotonicity threshold: report it
    r_doubled = ol.assemble(doubled_layoffs(r1.schedule), r1.families)
    _, n_r1d = ops.full_norm_entry(r_doubled)
    print(f"        reference norm {res.value:.4g}, doubled {n_r1d.value:.4g} "
          f"(informational below the b gate)")
    criterion("3a.norm.monotone", ok_finite and n2.value < n1.value,
              f"norm finite ({res.value:.4g}); b-calibrated pair strictly "
              f"decreases: {n1.value:.4g} -> {n2.value:.4g}")


def test_3b_tail_and_shade(r1, r1b):
    tail_entries = [ops.tail_bound_entry(r1, 1, k) for k in (1, 2)]
    ok_finite = all(math.isfinite(e.measured) for e in tail_entries)
    sigma_r1, ratios = hyp.shade_measurements(r1, 1)
    interior = [v for _, v, nnz in ratios if nnz == 1]
    ok_interior = interior and all(v <= 2.0 for v in interior)
    sigma_b, _ = hyp.shade_measurements(r1b, 1)
    print(f"        tail constants: "
          f"{', '.join(f'{e.measured:.3g}' for e in tail_entries)} "
          f"(reported); shade at reference: {sigma_r1.value:.4f} (reported)")
    criterion("3b.shade", ok_finite and ok_interior and sigma_b.value <= 2.5,
              f"interior shade ratios <= 2 (exact 2^(1/8)); b-calibrated "
              f"shade norm {sigma_b.value:.4f} <= 2.5")


# -- 4. statistics --------------------------------------------------------------------

def test_4a_anticoncentration_grid():
    failures = []
    for field in (ol.REAL, ol.COMPLEX):
        sched, fams = ol.profiles.statistical_schedule(6, field)
        for n in range(1, 7):
            phi = neg.e0_functional_structural(sched, fams, n)
            for M in (1.0, 4.0):
                s = neg.GaussianSampler(field, SEED + 17 * n)
                stat = neg.coord_tail_probability(phi, {}, s, n, M, 100_000)
                if not stat.passed:
                    failures.append((field, n, M))
    criterion("4a.gauss.grid", not failures,
              f"24 (field, n, M) cells, all below the analytic bound; "
              f"failures: {failures}")


def test_4b_moments():
    bad = []
    for field in (ol.REAL, ol.COMPLEX):
        sched, fams = ol.profiles.statistical_schedule(6, field)
        phi = neg.e0_functional_structural(sched, fams, 3)
        s = neg.GaussianSampler(field, SEED)
        x0 = {0: 0.25, 1: -0.5}
        m0, sig = neg.head_moments(phi, x0, s)
        X = neg.sample_head_coordinate(phi, x0, s, 100_000)
        if field == ol.COMPLEX:
            var = float(np.mean(np.abs(X - m0) ** 2) / 2)
            se_var = sig ** 2 / math.sqrt(len(X))
        else:
            var = float(np.var(X))
            se_var = sig ** 2 * math.sqrt(2 / len(X))
        if abs(complex(np.mean(X)) - m0) > 3 * sig / math.sqrt(len(X)):
            bad.append((field, "mean"))
        if abs(var - sig ** 2) > 3 * se_var:
            bad.append((field, "variance"))
    criterion("4b.gauss.moments", not bad,
              f"sampled moments within 3 standard errors at 1e5 trials; "
              f"failures: {bad}")


# -- 5. pipelines ---------------------------------------------------------------------

def test_5a_certificate(r1_rational):
    cert = hyp.certify_hypercyclic_step(r1_rational, {0: 1}, 1)
    eq = abs(cert.final_residual - cert.recomputed_final)
    ok = eq <= 1e-12 and cert.final_residual <= cert.composed_bound
    criterion("5a.certificate", ok,
              f"recomputation gap {eq:.1e} <= 1e-12; final "
              f"{cert.final_residual:.4f} <= composed {cert.composed_bound:.4f}")


def test_5b_comparison_battery(r1, rng):
    st = r1.schedule.stage(1)
    decided, fails, antisym_bad = 0, 0, 0
    while decided < 100:
        x = uni._random_unit_head(r1, st.xi, rng)
        y = uni._random_unit_head(r1, st.xi, rng)
        jx = ol.large_coord_index(r1, x, 1)
        jy = ol.large_coord_index(r1, y, 1)
        if jx is None or jy is None:
            continue
        decided += 1
        try:
            rxy = ol.compare_orbits(r1, x, y, 1)
            ryx = ol.compare_orbits(r1, y, x, 1)
        except Exception:
            fails += 1
            continue
        if jx.j != jy.j and {rxy.direction, ryx.direction} != \
                {ol.X_CONTAINS_Y, ol.Y_CONTAINS_X}:
            antisym_bad += 1
    slope = uni.growth_exponent_fit(8, 3, rng)
    ok = fails == 0 and antisym_bad == 0 and slope <= 8 - 3 + 1 + 0.1
    criterion("5b.comparison", ok,
              f"100 admissible pairs: total={100 - fails}, antisymmetric; "
              f"steering growth exponent {slope:.3f} <= {8 - 3 + 1}.1")


# -- 6. porosity ----------------------------------------------------------------------

def test_6_porosity_battery(r1):
    rng = np.random.default_rng(SEED)
    phi = neg.e0_functional_structural(r1.schedule, r1.families, 2)
    norm = vec_norm(phi)
    M = 2.0
    level = 2.0 ** -2 * M
    delta_min = 4 * level / norm
    failures = 0
    for _ in range(100):
        x = {j: float(v) for j, v in zip(sorted(phi),
                                         0.1 * rng.standard_normal(len(phi)))}
        val = neg.apply_functional(phi, x)
        if abs(val) > level:
            sc = 0.5 * level / abs(val)
            x = {j: v * sc for j, v in x.items()}
        delta = delta_min * float(rng.uniform(1.05, 50.0))
        rec = neg.porosity_witness(phi, x, delta, M, 2, rng)
        if not (rec.selected and rec.passed):
            failures += 1
    criterion("6.porosity", failures == 0,
              f"100 sampled (vector, radius) pairs with valid stage selection, "
              f"{failures} failures")
