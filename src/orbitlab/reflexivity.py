"""The shift-except-on-f_0 companion operator and its orbit-membership checks.

With fan polynomials vanishing at zero, every working vector f_j (j >= 1)
references only e_i with i >= 1, so the companion operator A (A e_0 = 0,
A e_i = e_{i+1}) agrees with the operator on every f_j, j >= 1, and is
bounded; without that constraint a single fan column already blows up by a
factor 1/gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .basis import BasisMap, shift_e, vec_norm, vec_sub
from .errors import ProfileError
from .hypercyclic import certify_hypercyclic_step
from .operators import conjugated_power, op_norm, poly_image, shift_power_csc
from .report import Entry, check
from .schedule import COMPLEX, RATIONAL


def zero_constant_profile(basis: BasisMap) -> bool:
    return all(p.constant_term() == 0
               for fam in basis.families for p in fam)


def build_A(basis: BasisMap) -> sparse.csc_matrix:
    """f-frame matrix of A, the shift of F with its e_0 row removed: refuse
    unless every fan polynomial kills the constant term (otherwise A is
    unbounded along the fan base columns)."""
    if not zero_constant_profile(basis):
        raise ProfileError(
            "companion operator needs fan polynomials with zero constant term")
    F = basis.f_columns()
    if basis.mode == RATIONAL:  # exact zeros in row 0, which the product drops
        F, (num, den) = F
        return poly_image(basis, ((1, 1),), (F, (np.where(F.indices == 0, 0, num), den)))
    F = F.copy()
    F.data[F.indices == 0] = 0
    F.eliminate_zeros()
    return poly_image(basis, ((1, 1),), F)


def build_A_independent(basis: BasisMap) -> sparse.csc_matrix:
    """Independent route: conjugate the e-frame matrix (shift after killing
    the e_0 component); in rational mode column by column in Fractions
    through f_col and e_col, each entry rounded once, apart from the kernel."""
    n = basis.n_trunc + 1
    if basis.mode == RATIONAL:
        cols = []
        for j in range(n):
            acc = {}
            for i, v in basis.f_col(j).items():
                for r, w in (basis.e_col(i + 1).items() if 0 < i < n - 1 else ()):
                    acc[r] = acc.get(r, 0) + v * w
            cols.append(sorted((r, float(x)) for r, x in acc.items() if x))
        rows, data = zip(*(e for c in cols for e in c))
        indptr = np.cumsum([0] + list(map(len, cols)))
        return sparse.csc_matrix((data, rows, indptr), shape=(n, n))
    dtype = complex if basis.schedule.scalar_field == COMPLEX else float
    S = shift_power_csc(n, 1, dtype)
    diag = np.ones(n, dtype=dtype)
    diag[0] = 0
    P = sparse.diags(diag).tocsc()
    return (basis.E_csc @ (S @ P @ basis.F_csc)).tocsc()


def noncommutation_witness(basis: BasisMap, A: sparse.spmatrix
                           ) -> tuple[dict, dict]:
    """(T A e_0, A T e_0) as f-frame dicts for A = build_A(basis); exactly
    (0, e_2)."""
    T = conjugated_power(basis)
    e0 = np.zeros(basis.n_trunc + 1)
    e0[0] = 1.0
    ta = T @ (A @ e0)
    at = A @ (T @ e0)
    return (_dense_to_dict(ta), _dense_to_dict(at))


def _dense_to_dict(v) -> dict:
    v = np.asarray(v).ravel()
    return {int(i): v[i] for i in np.nonzero(v)[0]}


@dataclass
class MembershipCertificate:
    kind: str                   # "exact-shift" or "power-certificate"
    exact_residual: Optional[float] = None
    certificate: Optional[object] = None
    image_f0_component: float = 0.0
    details: dict = field(default_factory=dict)


def orbit_membership(basis: BasisMap, x_f: dict, n: int,
                     A: sparse.spmatrix) -> MembershipCertificate:
    """Ax lies in the orbit closure of x at truncation scale (A =
    build_A(basis)): when x has no f_0 component, Ax = Tx exactly; otherwise
    run the fan-power certificate toward e_1 and record that Ax stays inside
    the span of f_1, f_2, ...
    """
    head = x_f.get(0, 0)
    xd = np.zeros(basis.n_trunc + 1, dtype=A.dtype)
    for j, v in x_f.items():
        xd[j] = v
    ax = A @ xd
    if head == 0:
        T = conjugated_power(basis)
        diff = ax - T @ xd
        res = float(np.linalg.norm(diff))
        return MembershipCertificate("exact-shift", exact_residual=res,
                                     image_f0_component=float(abs(ax[0])))
    cert = certify_hypercyclic_step(basis, x_f, n)
    # density of the certified-orbit span over f_1, f_2, ... is only sampled
    # at truncation: record the certified point's distance to a basis sample
    x_e = basis.f_to_e(x_f)
    point = basis.e_to_f(shift_e(x_e, cert.power, basis.n_trunc))
    sample_dists = {j: vec_norm(vec_sub(point, {j: 1})) for j in (1, 2, 5)}
    return MembershipCertificate(
        "power-certificate", certificate=cert,
        image_f0_component=float(abs(ax[0])),
        details={"note": "image lies in the span of f_1.., distance equals "
                         "its f_0 component",
                 "orbit_point_to_basis_sample": sample_dists})


def reflexivity_entries(basis: BasisMap, n: int) -> list[Entry]:
    entries: list[Entry] = []
    A = build_A(basis)
    T = conjugated_power(basis)

    diff = (A - build_A_independent(basis)).tocoo()
    entries.append(check(
        "companion.conjugation",
        "companion matrix equals the conjugated e-frame construction",
        float(np.max(np.abs(diff.data))) if diff.nnz else 0.0, 1e-10,
        asserted=True))
    col_diff = (A[:, 1:] - T[:, 1:]).tocoo()
    entries.append(check(
        "companion.columns",
        "companion and operator agree on every f-frame column j >= 1 (exact)",
        float(np.max(np.abs(col_diff.data))) if col_diff.nnz else 0.0, 0.0,
        asserted=True))
    ta, at = noncommutation_witness(basis, A)
    ta_norm = vec_norm(ta)
    entries.append(check(
        "companion.witness",
        "T A e_0 = 0 and A T e_0 = e_2, both exact",
        max(ta_norm, vec_norm(vec_sub(at, {2: 1}))), 0.0, asserted=True))
    nT = op_norm(T)
    nA = op_norm(A)
    entries.append(check(
        "companion.norm",
        "companion norm at most the operator norm (it kills one column)",
        nA.value, nT.value, asserted=True,
        details={"norm_T": nT.value, "norm_A": nA.value}))
    m1 = orbit_membership(basis, {3: 1.0}, n, A)
    entries.append(check(
        "membership.exact",
        "zero-head vector: companion image equals the shifted image exactly",
        m1.exact_residual, 1e-12, asserted=True))
    m2 = orbit_membership(basis, {0: 1.0}, n, A)
    cert = m2.certificate
    entries.append(check(
        "membership.certified",
        "unit head vector: fan-power certificate toward e_1 stays below its "
        "composed bound",
        cert.final_residual, cert.composed_bound, asserted=True,
        details={"power": cert.power, "k": cert.k,
                 "recomputed": cert.recomputed_final,
                 "image_f0": m2.image_f0_component}))
    return entries
