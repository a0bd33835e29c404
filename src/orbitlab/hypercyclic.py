"""Approximation certificates along fan powers.

The central pipeline: project a vector onto the head block, solve for a
polynomial steering the truncated shift onto the first basis vector, damp
its modulus through the b-fan, snap to the nearest fan polynomial, and
measure how close the corresponding operator power lands.  Every step is
measured on actual vectors; the composed bound is a sum of per-step bounds
each of which is checked against the step it covers, so the final residual
is provably below the composed bound whenever the arithmetic is sane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import sparse

from . import geometry as geo
from .basis import (BasisMap, column_norms, measure_frame_constant,
                    poly_shift_apply, shift_e, shift_exits, solve_F, vec_clean,
                    vec_norm, vec_project, vec_sub)
from .errors import PreconditionError, SupportError, TruncationError
from .operators import (op_norm, poly_image, power_norms, stage_gates,
                        sup_e_norm)
from .polynet import Poly, b_damped, left_sum, nearest_member, steer
from .report import Entry, check
from .schedule import RATIONAL


# -- elementary residuals ---------------------------------------------------------

def frame_constant(basis: BasisMap, n: int) -> float:
    """Measured equivalence constant between head-block e-coordinates and the
    ambient norm on span f_[0, nu_n] (largest singular value of the block):
    the basis's frame_constants entry, measured into it when missing."""
    table = basis.frame_constants
    if n not in table:
        table[n] = measure_frame_constant(basis.F_csc, basis.schedule.stage(n).nu)
    return table[n]


def fan_residual(basis: BasisMap, x_f: dict, n: int, k: int) -> float:
    """||T^{c_k} x - p_k(T) x|| for x supported in [0, nu_n], computed exactly
    in the e-frame."""
    st = basis.schedule.stage(n)
    if any(j > st.nu for j, v in x_f.items() if v != 0):
        raise SupportError(f"vector must be supported in [0, {st.nu}]")
    ck = st.c[k - 1]
    p = basis.families[n - 1][k - 1]
    alpha = basis.f_to_e(x_f)
    if shift_exits(alpha, ck + max(p.degree, 0), basis.n_trunc):
        raise TruncationError("fan power would leave the truncation")
    return basis.e_norm(vec_sub(shift_e(alpha, ck, basis.n_trunc),
                                poly_shift_apply(p, alpha, basis.n_trunc)))


def fan_residual_norm(basis: BasisMap, n: int, k: int) -> float:
    """Measured operator norm of x -> T^{c_k} x - p_k(T) x on span f_[0, nu_n]:
    op_norm of E (S^{c_k} - p_k(S)) F[:, 0..nu_n]."""
    st = basis.schedule.stage(n)
    terms = [(st.c[k - 1], 1)] + [(u, -a) for u, a in enumerate(
        basis.families[n - 1][k - 1].coeffs) if a != 0]
    return op_norm(poly_image(basis, terms, basis.f_columns(slice(0, st.nu + 1)))).value


def fan_residual_bound(basis: BasisMap, n: int) -> float:
    """Operator-norm bound gamma_n * frame_constant of the fan residual map;
    equals the stage tolerance delta_n after calibration."""
    return float(basis.gamma(n)) * frame_constant(basis, n)


def b_identity_constant(basis: BasisMap, n: int) -> tuple[float, list[float]]:
    """Measured C with ||(T^b/b - I) T x|| <= C/b ||x|| on span e_[0, xi_n]:
    b times the operator norm of the residual map, plus the residual
    ||(T^b/b - I) T e_j|| of each head basis vector, j = 0..xi_n."""
    st = basis.schedule.stage(n)
    X = sparse.eye(basis.n_trunc + 1, st.xi + 1, format="csc",
                   dtype=basis.F_csc.dtype)
    if basis.mode == RATIONAL:
        X = X, (np.ones(st.xi + 1, dtype=object),) * 2
    M = poly_image(basis, ((st.b + 1, Fraction(1, st.b)), (1, -1)), X)
    return st.b * op_norm(M).value, column_norms(M, 0, M.shape[1]).tolist()


def shade_measurements(basis: BasisMap, n: int):
    """(sigma, interior_ratios): norm of the (b+1)-st power restricted to the
    f-span of (xi_n, nu_n], plus the exact per-column ratios on interior
    shade columns (both j and j + b + 1 inside b-lay-offs): for each such j,
    the power's (j + b + 1, j) entry and the number of entries in its column
    j.  Both columns hold only their diagonal, so that entry is the product
    E[j+b+1, j+b+1] F[j, j] of stored diagonals, alone in its column and
    stored unless it is 0; it is read without forming the power."""
    st = basis.schedule.stage(n)
    shift = st.b + 1
    sigma, = power_norms(basis, shift, [(slice(0, basis.n_trunc + 1),
                                         slice(st.xi + 1, st.nu + 1))])
    # interior columns: j and j + b + 1 in b-lay-offs, all inside (xi_n, nu_n]
    gap = np.zeros(st.nu + shift + 1, dtype=bool)
    for iv in geo.stage_table(basis.schedule, n):
        if isinstance(iv.tag, geo.BLayOff):
            gap[iv.lo:iv.hi + 1] = True
    js = np.flatnonzero(gap[:-shift] & gap[shift:])
    vals = basis.diagonal_products(shift, js)
    return sigma, list(zip(js.tolist(), vals, (vals != 0).astype(int).tolist()))


# -- the certificate pipeline ------------------------------------------------------

@dataclass(frozen=True)
class PipelineStep:
    name: str
    measured: float
    bound: float
    note: str = ""


@dataclass
class Certificate:
    stage: int
    power: int
    k: int
    precondition_value: float
    threshold: float
    solver_poly: Poly
    damped_poly: Poly
    snapped_poly: Poly
    snap_distance: float
    steps: tuple[PipelineStep, ...]
    final_residual: float
    composed_bound: float
    recomputed_final: float
    details: dict = field(default_factory=dict)

    @property
    def tolerance(self) -> float:
        """Relative tolerance of the bookkeeping checks: 0 in exact (rational)
        arithmetic, 1e-9 in floats."""
        return 0.0 if self.details["mode"] == RATIONAL else 1e-9

    def verify(self) -> list[str]:
        """Recheck the internal bookkeeping; returns a list of problems."""
        tol = self.tolerance
        bad = []
        if abs(self.final_residual - self.recomputed_final) > tol * max(
                1.0, abs(self.final_residual)):
            bad.append("independent recomputation of the final residual differs")
        if self.final_residual > self.composed_bound * (1 + tol) + 1e-300:
            bad.append("final residual exceeds the composed bound")
        for s in self.steps:
            if s.measured > s.bound * (1 + tol) + 1e-300:
                bad.append(f"step {s.name}: measured exceeds its bound")
        return bad

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "power": self.power,
            "k": self.k,
            "precondition_value": self.precondition_value,
            "threshold": self.threshold,
            "solver_poly": [repr(c) for c in self.solver_poly.coeffs],
            "damped_poly": [repr(c) for c in self.damped_poly.coeffs],
            "snapped_poly": [repr(c) for c in self.snapped_poly.coeffs],
            "snap_distance": self.snap_distance,
            "steps": [
                {"name": s.name, "measured": s.measured, "bound": s.bound,
                 "note": s.note} for s in self.steps
            ],
            "final_residual": self.final_residual,
            "composed_bound": self.composed_bound,
            "recomputed_final": self.recomputed_final,
            "details": {k: repr(v) for k, v in self.details.items()},
        }


def fan_power_steps(basis: BasisMap, x_f: dict, q: Poly, n: int):
    """The ending shared by every steering certificate: snap the damped
    polynomial q to the nearest fan polynomial p_k and let T^(c_k) carry x.

    Returns (k0, snap distance, p_k, the e-coordinates of T^(c_k) x, steps),
    k0 the 0-based index into the stage's family and steps the four
    PipelineSteps mid-band, snap, fan and tail.  Raises TruncationError when
    the tail above nu_n, or x itself, would leave the truncation under
    T^(c_k).
    """
    st = basis.schedule.stage(n)
    mid = vec_project(x_f, st.xi + 1, st.nu)
    body = vec_project(x_f, 0, st.nu)
    tail = {j: v for j, v in x_f.items() if j > st.nu}

    # mid-band leakage of the damped polynomial
    mid_e = basis.f_to_e(mid)
    m_mid = basis.e_norm(poly_shift_apply(q, mid_e, basis.n_trunc))

    # snap to the fan family
    family = basis.families[n - 1][: st.k]
    k0, snap_dist = nearest_member(family, q)
    pk = family[k0]
    ck = st.c[k0]
    body_e = basis.f_to_e(body)
    dq = q - pk
    m_snap = basis.e_norm(poly_shift_apply(dq, body_e, basis.n_trunc))
    snap_bound = float(left_sum(
        abs(a) * basis.e_norm(shift_e(body_e, u, basis.n_trunc))
        for u, a in enumerate(dq.coeffs) if a != 0))

    # fan residual on the body
    m_fan = fan_residual(basis, body, n, k0 + 1)
    fan_bound = fan_residual_bound(basis, n) * vec_norm(body)

    # tail carried by the fan power
    if tail:
        tail_e = basis.f_to_e(tail)
        if shift_exits(tail_e, ck, basis.n_trunc):
            raise TruncationError("tail would be pushed past the truncation")
        m_tail = basis.e_norm(shift_e(tail_e, ck, basis.n_trunc))
    else:
        m_tail = 0.0

    x_e = basis.f_to_e(x_f)
    if shift_exits(x_e, ck, basis.n_trunc):
        raise TruncationError("fan power would leave the truncation")
    steps = (
        PipelineStep("mid-band", m_mid, m_mid,
                     "damped polynomial applied between xi and nu"),
        PipelineStep("snap", m_snap, snap_bound,
                     "distance to the nearest fan polynomial, times measured "
                     "power norms"),
        PipelineStep("fan", m_fan, fan_bound,
                     "fan residual at the snapped index (calibrated bound)"),
        PipelineStep("tail", m_tail, m_tail,
                     "mass above nu carried by the fan power"),
    )
    return k0, snap_dist, pk, shift_e(x_e, ck, basis.n_trunc), steps


def certify_hypercyclic_step(basis: BasisMap, x_f: dict, n: int) -> Certificate:
    """Certificate that some fan power of the operator carries x near e_1.

    Requires the head e_0-coordinate of x to clear the stage threshold 2^-n;
    vectors below it are refused, since the solve step has nothing to steer
    with.
    """
    st = basis.schedule.stage(n)
    threshold = 2.0 ** (-n)
    x_f = vec_clean(x_f)
    if not x_f:
        raise PreconditionError("zero vector refused")

    alpha = basis.f_to_e(vec_project(x_f, 0, st.xi))
    a0 = alpha.get(0, 0)
    if abs(a0) < threshold:
        raise PreconditionError(
            f"head e_0 coordinate {abs(a0):.3g} below threshold {threshold:.3g}"
        )

    # solve p (zeta divides p automatically: the target has no e_0 component)
    target_e = {1: 1}
    p = steer(alpha, target_e, 0, st.xi)
    head = poly_shift_apply(p, alpha, st.xi)
    m_solve = basis.e_norm(vec_sub(head, target_e))

    # spill of the plain shift past the truncated one
    full = poly_shift_apply(p, alpha, basis.n_trunc)
    m_spill = basis.e_norm(vec_sub(full, head))

    # modulus damping through the b-fan
    q = b_damped(p, st.b, degree_cap=st.nu)
    q_vec = {i: v / st.b for i, v in shift_e(full, st.b, basis.n_trunc).items()}
    m_damp = basis.e_norm(vec_sub(q_vec, full))

    k0, snap_dist, pk, final_e, fan_steps = fan_power_steps(basis, x_f, q, n)
    steps = (
        PipelineStep("solve", m_solve, max(m_solve, 1e-300),
                     "truncated-shift steering residual (exact solve)"),
        PipelineStep("shift-spill", m_spill, m_spill,
                     "plain shift vs truncated shift on the head"),
        PipelineStep("damping", m_damp, m_damp,
                     "modulus reduction through the b-fan"),
        *fan_steps,
    )
    composed = float(left_sum(s.bound for s in steps))

    # final residual, two routes
    target_f = {1: 1}
    final = vec_norm(vec_sub(basis.e_to_f(final_e), target_f))
    recomputed = vec_norm(vec_sub(solve_F(basis, final_e), target_f))

    return Certificate(
        stage=n, power=st.c[k0], k=k0 + 1,
        precondition_value=float(abs(a0)), threshold=threshold,
        solver_poly=p, damped_poly=q, snapped_poly=pk,
        snap_distance=float(snap_dist), steps=steps,
        final_residual=final, composed_bound=composed,
        recomputed_final=recomputed,
        details={"mode": basis.mode, "head_support": st.xi, "body_support": st.nu},
    )


# -- modulus-reduction chain --------------------------------------------------------

@dataclass(frozen=True)
class ChainLink:
    level: int
    k: int
    power: int
    measured: float
    note: str


@dataclass(frozen=True)
class ChainCertificate:
    levels: int
    links: tuple[ChainLink, ...]
    final_measured: float
    composed_bound: float


def modulus_reduction_chain(basis: BasisMap, x_f: dict, p: Poly, n: int
                            ) -> ChainCertificate:
    """Reduce a polynomial of modulus up to 2^j to unit modulus: one fan
    certificate at the bottom level, then j doubling links, each recorded
    with its measured residual."""
    st = basis.schedule.stage(n)
    family = basis.families[n - 1][: st.k]
    ell1 = float(p.ell1)
    j = max(0, math.ceil(math.log2(max(ell1, 1e-300))))
    x_e = basis.f_to_e(x_f)
    links = []
    scale = 2.0 ** (-j) if basis.mode != RATIONAL else Fraction(1, 2 ** j)
    qj = p.scale(scale)
    kj, _ = nearest_member(family, qj)
    prev = basis.e_to_f(shift_e(x_e, st.c[kj], basis.n_trunc))
    qv = basis.e_to_f(poly_shift_apply(qj, x_e, basis.n_trunc))
    links.append(ChainLink(j, kj + 1, st.c[kj], vec_norm(vec_sub(prev, qv)),
                           "base level: fan power vs the scaled polynomial"))
    k_prev = kj
    composed = (2.0 ** j) * links[0].measured
    for level in range(j - 1, -1, -1):
        target = family[k_prev].scale(2)
        k_cur, _ = nearest_member(family, target)
        cur = basis.e_to_f(shift_e(x_e, st.c[k_cur], basis.n_trunc))
        m = vec_norm(vec_sub(cur, prev, -2))
        links.append(ChainLink(level, k_cur + 1, st.c[k_cur], m,
                               "doubling link"))
        composed += (2.0 ** level) * m
        k_prev, prev = k_cur, cur
    pv = basis.e_to_f(poly_shift_apply(p, x_e, basis.n_trunc))
    final = vec_norm(vec_sub(prev, pv))
    return ChainCertificate(j, tuple(links), final, composed)


# -- report rows -----------------------------------------------------------------

FAN_SAMPLES = 20  # random supported vectors of the fan.sampled rows


def fan_entries(basis: BasisMap, n: int, rng) -> list[Entry]:
    st = basis.schedule.stage(n)
    entries = []
    per_k = [fan_residual_norm(basis, n, k) for k in range(1, st.k + 1)]
    entries.append(check(
        f"fan.opbound.stage{n}",
        "measured operator norm of the fan residual maps T^(c_k) - p_k(T) on "
        "span f_[0, nu] (largest over k) vs the stage tolerance",
        max(per_k), st.delta, asserted=True,
        details={"gamma": repr(basis.gamma(n)),
                 "frame_constant": frame_constant(basis, n),
                 "per_k": per_k}))
    # the measured route subtracts head chains; float can carry that
    # cancellation only while the chain entries stay exactly representable,
    # and rational mode samples the same draws as exact Fractions
    chain_scale = sup_e_norm(basis, st.nu)
    exact = basis.mode == RATIONAL
    if exact or chain_scale <= 2.0 ** 50:
        worst = 0.0
        for _ in range(FAN_SAMPLES):
            draw = rng.standard_normal(st.nu + 1).tolist()
            x = dict(enumerate(map(Fraction, draw) if exact else draw))
            nx = vec_norm(x)
            for k in range(1, st.k + 1):
                worst = max(worst, fan_residual(basis, x, n, k) / nx)
        entries.append(check(
            f"fan.sampled.stage{n}",
            f"largest sampled fan residual over {FAN_SAMPLES} random supported "
            "vectors (ratio to the vector norm)",
            worst, st.delta, asserted=True))
    else:
        entries.append(check(
            f"fan.sampled.stage{n}",
            "sampling skipped: head-chain entries exceed exact float "
            "range, the cancellation needs exact weights (the operator "
            "bound above still binds)",
            None, st.delta, asserted=False,
            details={"chain_scale": chain_scale}))
    return entries


def bfan_entries(basis: BasisMap, n: int) -> list[Entry]:
    st = basis.schedule.stage(n)
    entries = []
    C, per_vec = b_identity_constant(basis, n)
    worst = max(per_vec)
    entries.append(check(
        f"bfan.identity.stage{n}",
        "damping identity residual on the head basis vs measured C/b",
        worst, C / st.b, asserted=True,
        details={"measured_C": C, "per_vector": per_vec}))
    sigma, ratios = shade_measurements(basis, n)
    b_ok, b_info = stage_gates(basis, n)["b"]
    entries.append(check(
        f"bfan.shade.stage{n}",
        "norm of the (b+1)-st power on the f-span of the b-fan block vs 2.5",
        sigma.value, 2.5, asserted=b_ok, details={**b_info,
                                                  "interior_columns": len(ratios)}))
    interior_worst = max((abs(v) for _, v, nnz in ratios if nnz == 1), default=0.0)
    entries.append(check(
        f"bfan.shade.interior.stage{n}",
        "exact single-entry ratio on interior shade columns vs 2",
        interior_worst, 2.0, asserted=True,
        details={"expected_ratio": 2.0 ** (1 / math.sqrt(st.b))}))
    return entries
