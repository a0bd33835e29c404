"""Construction of the adapted basis and the sparse change-of-basis maps.

Column j of ``F`` holds the e-frame coordinates of the basis vector f_j
(supported on rows <= j, nonzero diagonal); column m of ``E`` holds the
f-frame coordinates of e_m, assembled by forward substitution.  The ambient
norm is the l2 norm of f-frame coordinates.

Region rules for f_j:

    seed          f_j = e_j
    lay-off       f_j = weight(j) * e_j
    b-working     f_j = e_j - b * e_{j-b}
    c-working     f_j = gamma^{-1} 4^{1-|r|} (e_j - p_t(T) e_{j - c_t})

where t is the top nonzero lattice coordinate of j and p_t(T) e_m expands
as the plain coefficient shift sum(a_u e_{m+u}).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

import numpy as np
from scipy import sparse

from . import geometry as geo
from .errors import ScheduleError, TruncationError
from .polynet import ONE, Poly
from .schedule import COMPLEX, RATIONAL, StageSchedule

Vec = dict[int, object]  # sparse coordinate vector {index: scalar}


def _dyadic_floor(x: float, bits: int = 40) -> Fraction:
    if x == 0:
        return Fraction(0)
    m, e = math.frexp(x)
    mant = math.floor(m * (1 << bits))
    return Fraction(mant, 1) * Fraction(2) ** (e - bits)


def vec_add(acc: Vec, other: Vec, factor=1) -> None:
    for i, v in other.items():
        acc[i] = acc.get(i, 0) + factor * v


def vec_clean(v: Vec) -> Vec:
    return {i: x for i, x in v.items() if x != 0}


def vec_norm(v: Vec) -> float:
    """l2 norm, safe against squares overflowing the float range (difference
    chains reach b^xi, whose square can pass 1e308 on deep stages)."""
    if not v:
        return 0.0
    m = max(float(abs(x)) for x in v.values())
    if m == 0.0:
        return 0.0
    if m > 1e150 or m < 1e-150:
        return m * math.sqrt(sum((float(abs(x)) / m) ** 2 for x in v.values()))
    return math.sqrt(sum(float(abs(x)) ** 2 for x in v.values()))


def shift_e(v: Vec, m: int, n_trunc: int) -> Vec:
    """Apply the forward shift m times in the e-frame; mass past the
    truncation is dropped (the truncated-operator convention)."""
    return {i + m: x for i, x in v.items() if i + m <= n_trunc}


def shift_exits(v: Vec, m: int, n_trunc: int) -> bool:
    return any(i + m > n_trunc for i, x in v.items() if x != 0)


def poly_shift_apply(p: Poly, v: Vec, n_trunc: int) -> Vec:
    """p(T) v in e-frame coordinates (T = plain shift)."""
    out: Vec = {}
    for u, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for i, x in v.items():
            if i + u <= n_trunc:
                out[i + u] = out.get(i + u, 0) + a * x
    return out


@dataclass(frozen=True)
class CalibRecord:
    stage: int
    frame_constant: float          # measured sigma_max of the e/f frame block
    delta: float
    gamma_calibrated: object       # delta / C
    gamma_cap: float               # porosity cap 2^{-n-1}
    gamma: object                  # value actually used


class BasisMap:
    """Assembled change-of-basis on [0, n_trunc] plus assembly metadata."""

    def __init__(self, schedule, families, mode, n_trunc, gammas, F_cols, E_cols,
                 lambdas, calibration):
        self.schedule = schedule
        self.families = families
        self.mode = mode
        self.n_trunc = n_trunc
        self.gammas = tuple(gammas)
        self.F_cols = F_cols
        self.E_cols = E_cols
        self.lambdas = lambdas
        self.calibration = tuple(calibration)
        self._F_csc = None
        self._E_csc = None
        self._expand_memo: dict[int, Vec] = {}
        self._e0_rows: dict[int, dict] = {}
        self._frame_constants: dict[int, float] = {}

    # -- scalar / column access ------------------------------------------

    def gamma(self, n: int):
        g = self.gammas[n - 1]
        if g is None:
            raise ScheduleError([f"gamma of stage {n} not available at this truncation"])
        return g

    def weight(self, j: int):
        if j not in self.lambdas:
            raise ValueError(f"index {j} is not a lay-off index")
        return self.lambdas[j]

    def f_col(self, j: int) -> Vec:
        return self.F_cols[j]

    def e_col(self, m: int) -> Vec:
        return self.E_cols[m]

    # -- frame conversion --------------------------------------------------

    def f_to_e(self, x: Vec) -> Vec:
        out: Vec = {}
        for j, c in x.items():
            if c != 0:
                vec_add(out, self.F_cols[j], c)
        return vec_clean(out)

    def e_to_f(self, a: Vec) -> Vec:
        out: Vec = {}
        for m, c in a.items():
            if c != 0:
                vec_add(out, self.E_cols[m], c)
        return vec_clean(out)

    def project_f(self, x: Vec, lo: int, hi: int) -> Vec:
        return {j: c for j, c in x.items() if lo <= j <= hi and c != 0}

    # -- scipy views -------------------------------------------------------

    @property
    def F_csc(self) -> sparse.csc_matrix:
        if self._F_csc is None:
            self._F_csc = cols_to_csc(self.F_cols, self.n_trunc + 1,
                                       self.schedule.scalar_field)
        return self._F_csc

    @property
    def E_csc(self) -> sparse.csc_matrix:
        if self._E_csc is None:
            self._E_csc = cols_to_csc(self.E_cols, self.n_trunc + 1,
                                       self.schedule.scalar_field)
        return self._E_csc

    # -- coordinate functional ----------------------------------------------

    def e0_functional(self, n: int) -> dict[int, object]:
        """Row 0 of the f->e map on columns [0, xi_n]: the e_0 coordinate
        functional evaluated on each basis vector f_j."""
        if n in self._e0_rows:
            return self._e0_rows[n]
        xi_n = self.schedule.xi(n)
        if xi_n > self.n_trunc:
            raise TruncationError(f"truncation does not cover xi_{n}")
        row = {}
        for j in range(xi_n + 1):
            v = self.F_cols[j].get(0, 0)
            if v != 0:
                row[j] = v
        self._e0_rows[n] = row
        return row


def cols_to_csc(cols, n_rows: int, field) -> sparse.csc_matrix:
    """n_rows x len(cols) matrix whose column j holds the sparse vector cols[j],
    with entries converted to the scalar field's float dtype."""
    dtype = complex if field == COMPLEX else float
    indptr = np.zeros(len(cols) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, cols), dtype=np.intp, count=len(cols)),
              out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(chain.from_iterable(cols), dtype=np.intp, count=nnz)
    data = np.fromiter(map(dtype, chain.from_iterable(c.values() for c in cols)),
                       dtype=dtype, count=nnz)
    mat = sparse.csc_matrix((data, indices, indptr), shape=(n_rows, len(cols)))
    mat.sort_indices()  # a c-working column lists its diagonal first
    return mat


# -- single-column construction ------------------------------------------------

def _cworking_f(j: int, tag, schedule: StageSchedule, families, gammas,
                mode) -> Vec:
    """e-frame coordinates of the c-working vector f_j with region tag `tag`."""
    st = schedule.stage(tag.n)
    coord = tag.coord
    t = coord.t
    family = families[tag.n - 1]
    if t > len(family):
        raise ScheduleError(
            [f"fan family of stage {tag.n} has {len(family)} members, index {t} needed"]
        )
    p = family[t - 1]
    if p.degree > st.d:
        raise ScheduleError([f"fan polynomial {t} of stage {tag.n} exceeds degree {st.d}"])
    g = gammas[tag.n - 1]
    if g is None:
        raise ScheduleError([f"gamma of stage {tag.n} not set"])
    if mode == RATIONAL:
        scale = Fraction(1, 1) / Fraction(g) * Fraction(4) ** (1 - coord.abs_r)
    else:
        scale = (1.0 / g) * 4.0 ** (1 - coord.abs_r)
    col: Vec = {j: scale}
    base = j - st.c[t - 1]
    for u, a in enumerate(p.coeffs):
        if a != 0:
            col[base + u] = col.get(base + u, 0) - scale * a
    return col


# -- assembly -------------------------------------------------------------------

def measure_frame_constant(F_cols, nu: int, field) -> float:
    """Largest singular value of the frame block F[0..nu, 0..nu]: the
    equivalence constant between e-coordinates and the ambient norm on
    span f_[0, nu]."""
    from .operators import op_norm

    return op_norm(cols_to_csc(F_cols[: nu + 1], nu + 1, field)).value


def _calibrate(schedule: StageSchedule, F_cols, n: int) -> CalibRecord:
    """gamma_n = delta_n / C for the frame constant C of the block [0, nu_n]
    (F_cols must cover it), capped at 2^{-n-1} so the e_0 functional norms
    grow; in rational mode the result is rounded down to a dyadic."""
    st = schedule.stage(n)
    C = measure_frame_constant(F_cols, st.nu, schedule.scalar_field)
    g_cal = st.delta / C
    cap = 2.0 ** (-n - 1)
    g = min(g_cal, cap)
    if schedule.weight_mode == RATIONAL:
        g = _dyadic_floor(g)
    return CalibRecord(n, C, st.delta, g_cal, cap, g)


def assemble(schedule: StageSchedule, families,
             n_trunc: Optional[int] = None) -> BasisMap:
    """Build both triangular maps on [0, n_trunc] (default: the full truncation).

    Stages whose gamma is None are calibrated on the fly (see _calibrate)
    once their b-part is assembled.
    """
    mode = schedule.weight_mode
    if mode == RATIONAL and schedule.scalar_field == COMPLEX:
        raise ScheduleError(["rational weight mode supports the real field only"])
    if n_trunc is None:
        n_trunc = schedule.xi_end
    if n_trunc > schedule.xi_end:
        raise TruncationError(f"n_trunc {n_trunc} beyond xi_end {schedule.xi_end}")
    if len(families) != schedule.n_stages:
        raise ScheduleError(["one fan family per stage required"])

    one = Fraction(1) if mode == RATIONAL else 1.0
    F_cols: list[Vec] = []
    E_cols: list[Vec] = []
    lambdas: dict[int, object] = {}
    gammas: list = [st.gamma for st in schedule.stages]
    calibration: list[CalibRecord] = []

    for j in range(min(schedule.xi(1), n_trunc) + 1):
        F_cols.append({j: one})
        E_cols.append({j: one})

    def add_layoffs(iv, j_lo, j_hi):
        for j, lam in zip(range(j_lo, j_hi + 1),
                          geo.interval_weights(iv, schedule, j_lo, j_hi)):
            lambdas[j] = lam
            F_cols.append({j: lam})
            E_cols.append({j: one / lam})

    def add_bworking(j, st):
        F_cols.append({j: one, j - st.b: -st.b * one})
        col = dict(E_cols[j - st.b])
        for i in col:
            col[i] = col[i] * st.b
        col[j] = col.get(j, 0) + one
        E_cols.append(vec_clean(col))

    def add_cworking(j, n, st):
        tag = geo.classify(j, schedule)
        fcol = _cworking_f(j, tag, schedule, families, gammas, mode)
        F_cols.append(fcol)
        diag = fcol[j]
        ecol: Vec = {j: one / diag}
        t = tag.coord.t
        base = j - st.c[t - 1]
        for u, a in enumerate(families[n - 1][t - 1].coeffs):
            if a != 0:
                vec_add(ecol, E_cols[base + u], a)
        E_cols.append(vec_clean(ecol))

    for n in range(1, schedule.n_stages + 1):
        st = schedule.stage(n)
        if st.xi >= n_trunc:
            break
        table = geo.stage_table(schedule, n)
        hi_bpart = min(st.nu, n_trunc)
        for iv in table:
            if iv.lo > hi_bpart:
                break
            j_hi = min(iv.hi, hi_bpart)
            if geo.is_layoff(iv.tag):
                add_layoffs(iv, iv.lo, j_hi)
            else:
                for j in range(iv.lo, j_hi + 1):
                    add_bworking(j, st)
        if n_trunc <= st.nu:
            break
        if gammas[n - 1] is None:
            rec = _calibrate(schedule, F_cols, n)
            gammas[n - 1] = rec.gamma
            calibration.append(rec)
        for iv in table:
            if iv.hi <= st.nu:
                continue
            if iv.lo > n_trunc:
                break
            j_lo, j_hi = max(iv.lo, st.nu + 1), min(iv.hi, n_trunc)
            if geo.is_layoff(iv.tag):
                add_layoffs(iv, j_lo, j_hi)
            else:
                for j in range(j_lo, j_hi + 1):
                    add_cworking(j, n, st)

    if len(F_cols) != n_trunc + 1:
        raise TruncationError(
            f"assembly stopped at {len(F_cols) - 1}, requested {n_trunc}"
        )
    return BasisMap(schedule, families, mode, n_trunc, gammas, F_cols, E_cols,
                    lambdas, calibration)


def calibrate_gamma(schedule: StageSchedule, families, n: int):
    """Measured frame constant and resulting gamma for stage n.

    Builds stages < n (and the b-part of stage n) at truncation nu_n; returns
    the CalibRecord.  Guarantees the fan-residual bound by construction:
    the residual map has operator norm exactly gamma_n * frame_constant.
    """
    probe = assemble(schedule, families, n_trunc=schedule.stage(n).nu)
    return _calibrate(schedule, probe.F_cols, n)


# -- independent e -> f expansion (structural route) ---------------------------

def expand_e_structural(basis: BasisMap, m: int) -> Vec:
    """f-frame coordinates of e_m from the region rules alone (no linear
    algebra); the independent counterpart of column m of the assembled E."""
    memo = basis._expand_memo
    if m in memo:
        return memo[m]
    sched = basis.schedule
    tag = geo.classify(m, sched)
    if isinstance(tag, geo.Seed):
        out: Vec = {m: 1}
    elif geo.is_layoff(tag):
        out = {m: 1 / basis.weight(m)}
    elif isinstance(tag, geo.BWorking):
        st = sched.stage(tag.n)
        out = {m: 1}
        vec_add(out, expand_e_structural(basis, m - st.b), st.b)
        out = vec_clean(out)
    else:
        out = lattice_descent(basis, tag.coord).f_coords
    memo[m] = out
    return out


@dataclass(frozen=True)
class DescentTerm:
    coefficient: object       # gamma * 4^(...)
    poly: Poly                # accumulated product of fan polynomials
    f_index: int              # start index the polynomial acts on


@dataclass(frozen=True)
class DescentExpansion:
    coord: geo.LatticeCoord
    terms: tuple[DescentTerm, ...]
    residual_poly: Poly       # product polynomial applied to e_alpha
    f_coords: Vec             # fully expanded f-frame coordinates


def _descent_terms(basis: BasisMap, coord: geo.LatticeCoord, extra: int = 0):
    """Terms of the unrolled descent; extra = 1 runs each inner sum one step
    further (the printed closed form).  Returns (terms, residual_poly)."""
    sched = basis.schedule
    st = sched.stage(coord.n)
    family = basis.families[coord.n - 1]
    g = basis.gamma(coord.n)
    four = Fraction(4) if basis.mode == RATIONAL else 4.0
    t = coord.t
    terms: list[DescentTerm] = []
    q_above = ONE
    for l in range(t, 0, -1):
        rl = coord.r[l - 1]
        base_lower = sum(coord.r[i] * st.c[i] for i in range(l - 1))
        for s in range(rl + extra):
            cur_abs = sum(coord.r[: l - 1]) + (rl - s)
            coef = g * four ** (cur_abs - 1)
            terms.append(
                DescentTerm(
                    coefficient=coef,
                    poly=q_above * (family[l - 1] ** s),
                    f_index=base_lower + (rl - s) * st.c[l - 1] + coord.alpha,
                )
            )
        q_above = q_above * (family[l - 1] ** rl)
    return terms, q_above


def lattice_descent(basis: BasisMap, coord: geo.LatticeCoord) -> DescentExpansion:
    """Unroll the defining relation of the c-working vectors one lattice step
    at a time until the remaining e-term has all coordinates zero.

    A shifted term stays inside its working interval while alpha + u <= nu
    and is then a plain basis vector; the rare spill past the interval end is
    expanded through the e-frame (its support sits strictly lower, so the
    recursion terminates).
    """
    sched = basis.schedule
    st = sched.stage(coord.n)
    terms, residual = _descent_terms(basis, coord)
    out: Vec = {}
    for term in terms:
        for u, a in enumerate(term.poly.coeffs):
            if a == 0:
                continue
            if coord.alpha + u <= st.nu:
                j = term.f_index + u
                out[j] = out.get(j, 0) + term.coefficient * a
            else:
                spilled = _shifted_f_in_f(basis, term.f_index, u)
                vec_add(out, spilled, term.coefficient * a)
    for u, a in enumerate(residual.coeffs):
        if a != 0:
            vec_add(out, expand_e_structural(basis, coord.alpha + u), a)
    return DescentExpansion(coord, tuple(terms), residual, vec_clean(out))


def _shifted_f_in_f(basis: BasisMap, j: int, u: int) -> Vec:
    """f-frame coordinates of the u-th shift of f_j, via the e-frame and the
    structural expansion of each landed index (all strictly below j + u)."""
    out: Vec = {}
    for i, v in basis.F_cols[j].items():
        if i + u <= basis.n_trunc:
            vec_add(out, expand_e_structural(basis, i + u), v)
    return vec_clean(out)


def printed_closed_form_terms(basis: BasisMap, coord: geo.LatticeCoord):
    """Terms of the printed lattice-descent closed form, whose inner sums run
    one step further (s_l up to r_l instead of r_l - 1).

    Returns (terms, residual_poly, extra_terms): extra_terms are the members
    absent from the unrolled recursion.  The comparison is expression-level;
    the report records whether the printed form matches.
    """
    printed, q_above = _descent_terms(basis, coord, extra=1)
    unrolled, _ = _descent_terms(basis, coord)
    unrolled_keys = {(t2.f_index, t2.poly.coeffs, repr(t2.coefficient)) for t2 in unrolled}
    extras = tuple(
        t2 for t2 in printed
        if (t2.f_index, t2.poly.coeffs, repr(t2.coefficient)) not in unrolled_keys
    )
    return tuple(printed), q_above, extras


# -- triangular solve (oracle route) -------------------------------------------

def solve_F(basis: BasisMap, rhs: Vec) -> Vec:
    """Solve F x = rhs by back substitution on the sparse columns.

    Independent of the assembled inverse; used as the oracle against both
    the assembled E and the lattice descent.
    """
    work = {i: v for i, v in rhs.items() if v != 0}
    x: Vec = {}
    heap = [-i for i in work]
    heapq.heapify(heap)
    seen = set(work)
    while heap:
        j = -heapq.heappop(heap)
        val = work.pop(j, 0)
        if val == 0:
            continue
        col = basis.F_cols[j]
        xj = val / col[j]
        x[j] = xj
        for i, fv in col.items():
            if i == j:
                continue
            work[i] = work.get(i, 0) - xj * fv
            if i not in seen:
                seen.add(i)
                heapq.heappush(heap, -i)
    return vec_clean(x)


# -- verification helpers --------------------------------------------------------

def roundtrip_max_error(basis: BasisMap, order: str = "FE") -> float:
    """max |(F E - I)_ij| (order "FE") or |(E F - I)_ij| ("EF"), float route."""
    F, E = basis.F_csc, basis.E_csc
    prod = F @ E if order == "FE" else E @ F
    resid = prod - sparse.identity(prod.shape[0], format="csc", dtype=prod.dtype)
    return float(np.max(np.abs(resid.data))) if resid.nnz else 0.0


def roundtrip_exact(basis: BasisMap, order: str = "FE"):
    """Exact columnwise roundtrip; returns (ok, worst_column, worst_value)."""
    outer, inner = (basis.F_cols, basis.E_cols) if order == "FE" \
        else (basis.E_cols, basis.F_cols)
    worst = (True, None, 0)
    for m in range(basis.n_trunc + 1):
        acc: Vec = {}
        for j, c in inner[m].items():
            vec_add(acc, outer[j], c)
        acc[m] = acc.get(m, 0) - 1
        bad = [(abs(v), i) for i, v in acc.items() if v != 0]
        if bad:
            mv, mi = max(bad)
            return (False, m, mv)
    return worst


def export_matrix_market(path, mat: sparse.spmatrix, comment: str = "") -> None:
    from scipy.io import mmwrite

    mmwrite(path, mat.tocoo(), comment=comment)


def read_matrix_market(path) -> sparse.csc_matrix:
    from scipy.io import mmread

    return sparse.csc_matrix(mmread(path))
