"""Truncated operators, norm estimation, and block-norm verifiers.

The forward shift is exact in the e-frame, so an operator polynomial is
computed by conjugation, E p(shift) F: the shift moves row indices of F.
Columns whose forward orbit would leave the truncation are silently
truncated (the last-column-zero convention); verifiers restrict to index
ranges where that cannot happen.

Block norms of a power E S^m F never form the power (`power_norms`).  Off
a thin set of working columns the basis is made of lay-offs, f_j = w_j e_j,
so the power is a weighted shift there.  A pair column is a column j where
F's row and column j, and E's row and column j + m, each hold one stored
entry (then on the diagonal) with a zero imaginary part.  Its image is the
single entry E[j+m, j+m] F[j, j] in row j + m, alone in its row and column
of the power.  That is one rounded product, which is exactly what the
sparse product stores for a one-term sum, and a real value stays real (a
zero imaginary part) in a complex product, so the pair entries are bit for
bit those of the formed power; a product that rounds to 0 is not stored,
as there.  In rational mode a pair entry is the exact product of the two
diagonal pairs rounded once, as the exact power stores it
(`BasisMap.diagonal_products`).  Only the other columns go through
`poly_image`, once per power, and each block's pairs enter `op_norm`'s
drop-and-split stage as two numbers: their largest magnitude and their
count.

Cost: per power, one pass over the columns marks the pairs and forms their
entries from the diagonals of F and E, read once per basis; per block, a
max and a count over its slice of the pair entries, and otherwise only its
stored remainder entries (`_rank` sorts a block's rows when they are sparse
against its height instead of passing over all n rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from . import geometry as geo
from .basis import BasisMap, column_norms, exact_product, shift_e, vec_norm, vec_sub
from .errors import OrbitLabError
from .report import Entry, check
from .schedule import RATIONAL

# Widest component (rows or columns) op_norm solves by dense SVD; a wider
# one that can hold the norm makes op_norm raise.
DENSE_COMPONENT_CAP = 1024
# Relative margin below the running maximum at which op_norm certifies a
# component's norm by Cholesky instead of measuring it (_certified_below),
# and the narrowest component (its smaller side) that gets the test.
CERT_MARGIN = 2.0 ** -30
CERT_MIN_WIDTH = 16
# _rank sorts an index array shorter than 1/RANK_SORT_RATIO of its range.
RANK_SORT_RATIO = 8
NONFINITE_FLAG = "operator matrix has non-finite entries; no norm measured"


# -- operator matrices ---------------------------------------------------------

def shift_power_csc(n_dim: int, m: int, dtype=float) -> sparse.csc_matrix:
    """Matrix of the m-th shift power on [0, n_dim-1]: e_j -> e_{j+m}."""
    return sparse.eye(n_dim, n_dim, k=-m, format="csc", dtype=dtype)


def poly_image(basis: BasisMap, terms, X) -> sparse.csc_matrix:
    """f-frame matrix E (sum_u a_u S^u) X for a block X of e-frame columns
    and terms (u, a_u): each term shifts X's row indices up by u, and rows
    past the truncation drop.  The product has sorted indices.  In rational
    mode X carries its exact values, as (block, (num, den)) from
    BasisMap.f_columns, and the product is the exact one with each entry
    rounded once (basis.exact_product; a bare matrix X raises ValueError)."""
    if basis.mode == RATIONAL:
        if sparse.issparse(X):
            raise ValueError("a rational basis takes X as (block, (num, den))")
        P = exact_product((basis.E_csc, basis._E_exact), X, terms)[0]
        P.eliminate_zeros()  # an image that underflows, as the float product drops it
        return P
    X = X.tocoo()
    n = basis.n_trunc + 1
    rows, cols, vals = [], [], []
    for u, a in terms:
        keep = X.row + u < n
        rows.append(X.row[keep] + u)
        cols.append(X.col[keep])
        vals.append(X.data[keep] * X.dtype.type(a))
    D = sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, X.shape[1]))
    P = basis.E_csc @ D
    P.sort_indices()
    return P


def conjugated_power(basis: BasisMap) -> sparse.csc_matrix:
    """f-frame matrix of the operator, E S F, built once per basis and
    shared, so callers must not modify it.  A power E S^m F is
    poly_image(basis, ((m, 1),), basis.f_columns())."""
    if basis._T is None:
        basis._T = poly_image(basis, ((1, 1),), basis.f_columns())
    return basis._T


# -- operator norms --------------------------------------------------------------

@dataclass(frozen=True)
class OpNormResult:
    """An op_norm value and the method that gave it: "dense_svd" (the
    components' dense SVDs), "empty" (no nonzero entry, value 0) or
    "nonfinite" (an inf or nan entry, value nan).  No method iterates, so
    converged and iterations follow from the method."""
    value: float
    method: str

    @property
    def converged(self) -> bool:
        return self.method != "nonfinite"

    @property
    def iterations(self) -> int:
        return 0


def _rank(idx: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """For indices in [0, n): each one's rank among the distinct values of
    idx, and their count, as ``np.unique(idx, return_inverse=True)`` gives
    them.  An idx with fewer than one entry per RANK_SORT_RATIO values of
    [0, n) is sorted, at the cost of its own length; a denser one is ranked
    without a sort, by a presence mask over [0, n) and its running count.
    For a block of a power (the row indices of its stored remainder entries,
    n its height) that is a cost of the block's entries, not of n, whenever
    the block is sparse against its height, as R1's 400 001-row blocks with
    a few thousand entries are."""
    if len(idx) * RANK_SORT_RATIO < n:
        values, rank = np.unique(idx, return_inverse=True)
        return rank, len(values)
    present = np.zeros(n, dtype=bool)
    present[idx] = True
    rank = np.cumsum(present) - 1
    return rank[idx], int(rank[-1]) + 1


def _compress(M: sparse.spmatrix) -> sparse.csc_matrix:
    """M without its empty rows and columns, in canonical CSC form."""
    M = M.tocsc()
    nnz = M.nnz
    if nnz == 0:
        return sparse.csc_matrix((1, 1))
    rows, n_rows = _rank(M.indices[:nnz], M.shape[0])
    indptr = np.append(M.indptr[:-1][np.diff(M.indptr) > 0], nnz)
    C = sparse.csc_matrix((M.data[:nnz].copy(), rows, indptr),
                          shape=(n_rows, len(indptr) - 1))
    C.sum_duplicates()  # sorts a copy: M itself may have unsorted indices
    return C


def _component_labels(S: sparse.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the row/column graph of a compressed matrix
    (a row and a column are joined when they share a stored entry), as
    (row labels, column labels), each label the smallest column index of its
    component.

    A column label is always a column of the same component at or below it.
    Each round finds, for every column, the smallest label it meets through
    a shared row, and lowers its label's own label to that (hooking); then
    every label jumps to its label's label until that settles.  The labels
    stop moving exactly when they are constant on each component; a chain of
    400 001 columns in random order takes 14 rounds.
    """
    R = S.tocsr()
    label = np.arange(S.shape[1])
    while True:
        row_label = np.minimum.reduceat(label[R.indices], R.indptr[:-1])
        seen = np.minimum.reduceat(row_label[S.indices], S.indptr[:-1])
        if np.array_equal(seen, label):
            return row_label, label
        np.minimum.at(label, label.copy(), seen)
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def _split_norm(C: sparse.csc_matrix, loose2: float, n_loose: int) -> float:
    """Largest singular value of a compressed finite matrix from its
    connected components (block-diagonal up to permutation, so the largest
    over the blocks).  C is op_norm's private copy and is changed in place.
    The matrix may have n_loose further entries, each alone in its row and
    its column, that C does not hold: loose2 is the largest of their
    squared magnitudes.

    The largest column norm L bounds the answer from below.  Every entry
    with |a|^2 <= u^2 L^2 / nnz (u the unit roundoff) is dropped first: the
    dropped part has Frobenius norm at most u L, so by Weyl's inequality the
    norm moves by no more than the dense SVD's own rounding, while the
    rounding-level links that would join small blocks into wide ones go.
    L covers every 1x1 component, and a one-row or one-column component is
    a vector whose norm is exact.  A component's Frobenius norm bounds its
    own from above, so only the components above the lower bound are
    candidates, each measured on its dense block (rows and columns in
    ascending order).  Raises OrbitLabError when a candidate is wider than
    DENSE_COMPONENT_CAP rows or columns.  The candidates go to
    _max_block_norm, which takes the SVD of the likeliest maximum and skips
    every other candidate that a Cholesky test certifies below the running
    maximum: the float is the one an SVD of every candidate gives.
    """
    if C.nnz == 0:
        return math.sqrt(loose2)
    sq = np.abs(C.data) ** 2
    lower2 = max(float(np.add.reduceat(sq, C.indptr[:-1]).max()), loose2)
    u = np.finfo(float).eps / 2
    C.data[sq <= u * u * lower2 / (C.nnz + n_loose)] = 0
    C.eliminate_zeros()
    n_rows, n_cols = C.shape
    col_nnz = np.diff(C.indptr)
    row_nnz = np.bincount(C.indices, minlength=n_rows)
    # the rest: C without its 1x1 components (entries alone in row and column)
    col_of = np.repeat(np.arange(n_cols), col_nnz)
    rest = (row_nnz[C.indices] > 1) | (col_nnz[col_of] > 1)
    if not rest.any():
        return math.sqrt(lower2)
    S = _compress(sparse.coo_matrix(
        (C.data[rest], (C.indices[rest], col_of[rest])), shape=C.shape))
    row_label, col_label = _component_labels(S)
    # a component's label is its smallest column, labelled by itself
    col_comp, n_comp = _rank(col_label, S.shape[1])
    row_comp = col_comp[row_label]
    s_col_nnz = np.diff(S.indptr)
    entry_comp = np.repeat(col_comp, s_col_nnz)
    fro2 = np.bincount(entry_comp, weights=np.abs(S.data) ** 2,
                       minlength=n_comp)
    n_r = np.bincount(row_comp, minlength=n_comp)
    n_c = np.bincount(col_comp, minlength=n_comp)
    vector = (n_r == 1) | (n_c == 1)
    if vector.any():
        lower2 = max(lower2, float(fro2[vector].max()))
    cand = np.flatnonzero(~vector & (fro2 > lower2))
    if len(cand) == 0:
        return math.sqrt(lower2)
    wide = max(n_r[cand].max(), n_c[cand].max())
    if wide > DENSE_COMPONENT_CAP:
        raise OrbitLabError(
            f"op_norm: a {wide}-wide component of a "
            f"{n_rows + n_loose}x{n_cols + n_loose} matrix "
            f"may hold the norm; dense SVD is capped at {DENSE_COMPONENT_CAP}")
    # each candidate's entries, one component after another, in CSC order;
    # a block keeps its rows and columns in ascending compressed order
    s_col_of = np.repeat(np.arange(S.shape[1]), s_col_nnz)
    mine = np.flatnonzero(np.isin(entry_comp, cand))
    mine = mine[np.argsort(entry_comp[mine], kind="stable")]
    ends = np.searchsorted(entry_comp[mine], cand, side="right")
    blocks = []
    for part in np.split(mine, ends[:-1]):
        rows, r = np.unique(S.indices[part], return_inverse=True)
        cols, c = np.unique(s_col_of[part], return_inverse=True)
        blocks.append((S.data[part], r, c, (len(rows), len(cols))))
    return _max_block_norm(blocks, fro2[cand], math.sqrt(lower2))


def _max_block_norm(blocks, fro2: np.ndarray, best: float) -> float:
    """max(best, the largest singular value of each block), a block given
    as (data, rows, columns, shape) of its entries and fro2 holding the
    blocks' squared Frobenius norms.

    The blocks are visited in descending Frobenius norm, the likeliest
    maximum first, and the first one goes to dense SVD.  A later block goes
    there only when _certified_below cannot show that its SVD would come out
    below the running maximum M (which starts at best).  So the float
    returned is the one an SVD of every block gives: the maximum is still the
    SVD of the same dense block, and every skipped block's is below it.

    A block narrower than CERT_MIN_WIDTH on its smaller side goes straight
    to SVD.  Below 16 such an SVD takes 6-25 us against 8-15 us for the
    test (one CPU), and near-ties fail the test: R1's block_estimates tests
    40 blocks 2 to 6 wide and certifies 16, for 1.1 ms of tests against
    0.3 ms of SVDs saved.
    """
    for k, i in enumerate(np.argsort(-fro2, kind="stable")):
        data, r, c, shape = blocks[i]
        block = np.zeros(shape, dtype=data.dtype)
        block[r, c] = data
        if k and min(shape) >= CERT_MIN_WIDTH and _certified_below(block, best):
            continue
        best = max(best, float(np.linalg.svd(block, compute_uv=False)[0]))
    return best


def _certified_below(B: np.ndarray, M: float) -> bool:
    """Whether a Cholesky factorisation certifies that the dense SVD of B
    gives a largest singular value below M > 0: it factors t^2 I - G, with
    t = M (1 - CERT_MARGIN) and G = B^H B or B B^H, whichever is n x n for
    n the smaller side of B (m the larger, both at most DENSE_COMPONENT_CAP).

    With u the unit roundoff, g_k = k u / (1 - k u), c_k = sqrt(2) g_(k+2)
    (the inner-product constant of complex arithmetic, Higham, Accuracy and
    Stability of Numerical Algorithms, 3.6; it covers real arithmetic) and
    s = ||B||:
    - forming G (inner products of at most m terms) errs by E with
      |E| <= c_m |B|^H |B|, so ||E|| <= c_m ||B||_F^2 <= c_m n s^2;
    - A = t^2 I - G is formed with its diagonal within 3u t^2 (rounding t^2
      and each difference t^2 - G_ii, G_ii >= 0);
    - a Cholesky factorisation of A that runs to completion gives
      R^H R = A + dA with |dA| <= c_n |R^H| |R| (Higham, Thm 10.3), so
      ||dA|| <= c_n trace(R^H R) <= c_n n t^2 (1 + 3u) / (1 - c_n) (Rump,
      "Verification of positive definiteness", BIT 46, 2006).  R^H R is
      positive semidefinite, so the computed G is below
      t^2 (1 + 3u) (1 + c_n n / (1 - c_n)).
    Together s^2 (1 - c_m n) <= t^2 (1 + 3u) (1 + c_n n / (1 - c_n)): at
    n = m = 1024 (c n = 1.65e-10) that is s <= t (1 + 1.7e-10).  The SVD's
    largest singular value is within p(m, n) 2u s of s, p modest (LAPACK
    Users' Guide, 4.9); p(m, n) <= mn keeps that under 2.4e-10.  Both stay
    well inside CERT_MARGIN = 2^-30 (about 9.3e-10), so a block certified
    here has its SVD below M.  op_norm scales the entries into [1e-100,
    1e100] and drops those below u L / sqrt(nnz), so no product overflows or
    underflows.

    The test forms G from the dense block that an SVD would take.  Forming
    it from the sparse entries instead costs about 0.2 ms of scipy overhead
    per block, more than the SVD of a block up to about 64 wide, while the
    dense product and factorisation measured cheaper than that SVD at every
    width from 2 to 534, on one CPU.
    """
    H = B.conj().T
    G = H @ B if B.shape[0] >= B.shape[1] else B @ H
    t = M * (1 - CERT_MARGIN)
    np.negative(G, out=G)
    G.flat[::len(G) + 1] += t * t
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def op_norm(M: sparse.spmatrix) -> OpNormResult:
    """Largest singular value of M, exact up to rounding.

    M is compressed (empty rows and columns dropped) and measured from the
    connected components of its row/column graph (see _split_norm): method
    "dense_svd", converged, no iterations.  The largest singular value is
    the largest over the components that can hold the norm, each a dense
    SVD of its block; a component that a Cholesky factorisation of
    t^2 I - B^H B certifies below the running maximum M, with
    t = M (1 - CERT_MARGIN), is skipped, and the margin covers the rounding
    of that test and of the SVD (see _certified_below), so the value is the
    one an SVD of every such component gives.  A component wider than
    DENSE_COMPONENT_CAP rows or columns that may hold the norm raises
    OrbitLabError rather than being estimated.  An M with no nonzero entry
    gives 0 with method "empty"; a matrix with an inf or nan entry has no
    norm to measure: the result is nan with method "nonfinite" and no
    iterations.
    """
    return _norm(_compress(M))


def _norm(C: sparse.csc_matrix, top: float = 0.0, n_loose: int = 0
          ) -> OpNormResult:
    """op_norm of a matrix held as the compressed C and n_loose further
    entries, each alone in its row and its column, top the largest of their
    magnitudes."""
    if not (np.isfinite(C.data).all() and math.isfinite(top)):
        return OpNormResult(math.nan, "nonfinite")
    scale = max(float(np.abs(C.data).max(initial=0.0)), top)
    if scale == 0.0:
        return OpNormResult(0.0, "empty")
    if 1e-100 <= scale <= 1e100:
        scale = 1.0
    else:  # keep the squared entries inside the float range
        C.data *= 1 / scale
        top *= 1 / scale
    return OpNormResult(_split_norm(C, top * top, n_loose) * scale, "dense_svd")


def sigma_max_block(M: sparse.spmatrix, rows: slice, cols: slice) -> OpNormResult:
    return op_norm(M.tocsc()[rows, cols])


def _lone_diagonal(M: sparse.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(mask, diag) of a triangular basis matrix whose columns each end in
    their stored diagonal entry: the indices j where M's row j and column j
    each hold one stored entry with a zero imaginary part, and M's diagonal
    as real numbers (that entry, where the mask holds)."""
    n = M.shape[1]
    one = (np.diff(M.indptr) == 1) & (np.bincount(M.indices, minlength=n) == 1)
    last = M.indptr[1:] - 1
    assert not (one & (M.indices.take(last)
                       != np.arange(n, dtype=M.indices.dtype))).any(), \
        "a single-entry basis column holds its diagonal entry"
    diag = M.data.take(last)
    if np.iscomplexobj(diag):
        one &= diag.imag == 0
        diag = diag.real.copy()
    return one, diag


def power_norms(basis: BasisMap, m: int,
                blocks: Sequence[tuple[slice, slice]]) -> list[OpNormResult]:
    """op_norm(E S^m F[rows, cols]) for each (rows, cols)
    block of unit-step slices, bit for bit, without forming the power.

    The pair columns among the blocks' columns (see the module docstring)
    take their entries from the diagonals of F and E and enter op_norm as
    numbers, per block the largest magnitude and the count of those in it.
    One poly_image of the blocks' other columns serves every block.
    """
    n = basis.n_trunc + 1
    if basis._lone_diagonals is None:
        basis._lone_diagonals = (_lone_diagonal(basis.F_csc),
                                 _lone_diagonal(basis.E_csc))
    (f_one, f_diag), (e_one, e_diag) = basis._lone_diagonals
    spans = []
    for rows, cols in blocks:
        (r0, r1, _), (c0, c1, _) = rows.indices(n), cols.indices(n)
        spans.append((r0, max(r0, r1), c0, max(c0, c1)))
    rest = np.zeros(n, dtype=bool)  # the blocks' columns that are not pairs
    for _, _, c0, c1 in spans:
        rest[c0:c1] = True
    k = max(n - m, 0)  # columns whose diagonal stays inside the truncation
    pair = f_one[:k] & e_one[m:] & rest[:k]
    rest[:k] &= ~pair
    cols = np.flatnonzero(rest)
    R = poly_image(basis, ((m, 1),), basis.f_columns(cols if len(cols) < n else None))
    # the magnitude of column j's pair entry, 0 where none is stored (the
    # product stores no zero)
    v = np.zeros(k)
    if basis.mode == RATIONAL:  # the exact product, rounded once
        v[pair] = basis.diagonal_products(m, np.flatnonzero(pair))
    else:
        np.multiply(e_diag[m:], f_diag[:k], out=v, where=pair)
    np.abs(v, out=v)

    out = []
    for r0, r1, c0, c1 in spans:
        a, b = np.searchsorted(cols, (c0, c1))
        # the block's pairs: columns j in [c0, c1) with row j + m in [r0, r1)
        run = slice(max(c0, r0 - m), max(min(c1, r1 - m, k), 0))
        out.append(_norm(_compress(R[r0:r1, a:b]),
                         float(v[run].max(initial=0.0)),
                         np.count_nonzero(v[run])))
    return out


# -- calibration gates -------------------------------------------------------------

def sup_e_norm(basis: BasisMap, hi: int) -> float:
    """max ||e_u|| over u <= hi, from the assembled f-frame columns (their
    norms are memoised on the basis, up to the largest hi asked for)."""
    norms, top = basis._e_norms, min(hi, basis.n_trunc) + 1
    if top > len(norms):
        norms.extend(column_norms(basis.E_csc, len(norms), top).tolist())
    return max(norms[:top])


def stage_gates(basis: BasisMap, n: int) -> dict[str, tuple[bool, dict]]:
    """The largeness gates of stage n, as {name: (open, values)}.

    A per-stage claim asserts only while its gates are open; otherwise its
    row reports the measured value.  The values are the numbers a gate
    compares, copied into the details of the rows it decides.  Here s runs
    over the lengths of the lay-off gaps above nu_n, read in one pass over
    the stage table, and ||e_u|| over the assembled f-frame columns.

    h: the shade count h_n is large enough for the aggregate fan-power
       claims (the saturated-coordinate case of the power estimates): the
       geometric tail k 2^(1-h) <= 1/2, and the descent-residual chain
       2^(kh) / gamma * max_{u <= nu + (h+1) k d} ||e_u|| * 2^(-h) <= delta.
       With a calibrated gamma this gate is closed whenever delta < 1: every
       basis has f_j = e_j for j <= xi_1, so max ||e_u|| >= 1 and the frame
       constant C >= 1, and gamma <= delta / C makes the chain at least
       2^((k-1)h) / gamma >= 1/delta > delta.
    b: b_n 2^(-sqrt(b_n)/2) <= 1/2, for the shade estimate and the
       norm-vs-gap monotonicity.
    band, which also gates the low block: the smallest gap weighs down the
       head chains, 2^(-sqrt(min s)/2) max_{u <= nu} ||e_u|| <= delta, and
       the next stage's difference chains, which live inside this stage's
       band, are tamed by their own gap parameter,
       2^(-sqrt(b')/2) b'^xi' <= delta.  Both compare in log2 form, since
       b'^xi' overflows.
    spill: the first gap s_1 exceeds the working length nu, and
       2^(-(s_1 - nu) / (2 sqrt(s_1))) sqrt(nu + 1) <= delta, so that low
       powers land on heavy-weight gap beginnings.
    scale.k<k>, one per c_k: 2^(c_k / sqrt(s)) <= 2 for the shortest gap
       s > c_k (shorter gaps cannot hold both j and j + c_k), so that a
       c_k-shift within one gap keeps the weight ratio below 2: the gap
       lengths must dominate c_k^2.  With no gap longer than c_k the ratio
       is 1.
    """
    st = basis.schedule.stage(n)
    g = float(basis.gamma(n))
    tail = st.k * 2.0 ** (1 - st.h)
    hi = st.nu + (st.h + 1) * st.k * st.d
    chain = (2.0 ** (st.k * st.h) / g) * sup_e_norm(basis, hi) * 2.0 ** (-st.h)
    endpoint = st.b * 2.0 ** (-math.sqrt(st.b) / 2)
    gates = {
        "h": (tail <= 0.5 and chain <= st.delta,
              {"geometric_tail": tail, "residual_chain": chain,
               "h": st.h, "k": st.k}),
        "b": (endpoint <= 0.5, {"b": st.b, "endpoint_factor": endpoint}),
    }

    log2_delta = math.log2(st.delta)
    band, band_ok = {}, True
    if n < basis.schedule.n_stages:
        st2 = basis.schedule.stage(n + 1)
        log2_chain = -math.sqrt(st2.b) / 2 + st2.xi * math.log2(st2.b)
        band_ok = log2_chain <= log2_delta
        band["next_stage_chain_log2"] = log2_chain
    gaps = [iv.hi - iv.lo + 1 for iv in geo.stage_table(basis.schedule, n)
            if geo.is_layoff(iv.tag) and iv.hi > st.nu]
    s_min, sup = min(gaps, default=1), sup_e_norm(basis, st.nu)
    log2_gap = -math.sqrt(s_min) / 2 + math.log2(max(sup, 1e-300))
    band.update({"min_gap": s_min, "gap_weight_log2": log2_gap,
                 "sup_e_norm": sup})
    gates["band"] = (band_ok and log2_gap <= log2_delta, band)

    first_gap = gaps[0] if gaps else 1
    log2_spill = float("inf") if first_gap <= st.nu else \
        (-(first_gap - st.nu) / (2 * math.sqrt(first_gap))
         + 0.5 * math.log2(st.nu + 1))
    gates["spill"] = (log2_spill <= log2_delta,
                      {"first_gap_spill_log2": log2_spill,
                       "first_gap": first_gap})

    for k, ck in enumerate(st.c, start=1):
        s = min((s for s in gaps if s > ck), default=None)
        values = {"worst_gap_ratio": 1.0} if s is None else \
            {"worst_gap_ratio": 2.0 ** (ck / math.sqrt(s)), "gap_length": s}
        gates[f"scale.k{k}"] = (values["worst_gap_ratio"] <= 2.0, values)
    return gates


# -- block-norm verifiers -----------------------------------------------------------

def block_estimates(basis: BasisMap, n: int) -> list[Entry]:
    """Measured block norms of the operator and its powers around stage n.

    Bands are cut at nu_n (the working-length convention of schedules with a
    b-fan); the literal xi_n bands are reported informationally since any
    b-fan pushes weight-chain mass below xi at the gap endpoints.
    """
    st = basis.schedule.stage(n)
    nu, xi = st.nu, st.xi
    hi = basis.n_trunc if n == basis.schedule.n_stages else \
        basis.schedule.stage(n + 1).nu
    delta, eps = st.delta, st.eps
    entries: list[Entry] = []
    gates = stage_gates(basis, n)
    (band_ok, band_info), (spill_ok, spill_info) = gates["band"], gates["spill"]
    gate_info = {**band_info, **spill_info}

    head, above = slice(0, nu + 1), slice(nu + 1, hi + 1)
    low_nu, band_nu, spill_nu = (head, above), (above, above), (above, head)
    lo_blk, band_blk, lo_xi, band_xi, spill1 = power_norms(basis, 1, [
        low_nu, band_nu, (slice(0, xi + 1), slice(xi + 1, hi + 1)),
        (slice(xi + 1, hi + 1), slice(xi + 1, hi + 1)), spill_nu])
    entries.append(check(
        f"shift.low.nu.stage{n}",
        f"norm of rows [0,{nu}] of the shifted image of span f_({nu},{hi}]",
        lo_blk.value, delta, asserted=band_ok,
        details={"method": lo_blk.method, **gate_info}))
    entries.append(check(
        f"shift.band.nu.stage{n}",
        f"norm of the shifted image of span f_({nu},{hi}] within itself",
        band_blk.value, 1 + delta, asserted=band_ok,
        details={"method": band_blk.method, **gate_info}))
    entries.append(check(
        f"shift.low.xi.stage{n}",
        f"same low block cut at xi={xi} (informational: b-fan chains cross it)",
        lo_xi.value, delta, asserted=False))
    entries.append(check(
        f"shift.band.xi.stage{n}",
        f"same band cut at xi={xi} (informational)",
        band_xi.value, 1 + delta, asserted=False))

    for ki, ck in enumerate(st.c, start=1):
        (h_ok, h_info), (s_ok, s_info) = gates["h"], gates[f"scale.k{ki}"]
        gate = h_ok and s_ok and band_ok
        info = {**h_info, **s_info, **band_info}
        band, low = power_norms(basis, ck, [band_nu, low_nu])
        entries.append(check(
            f"fanpow.band.stage{n}.k{ki}",
            f"power c_{ki}={ck}: image of span f_({nu},{hi}] within itself vs 4",
            band.value, 4.0, asserted=gate,
            details={"method": band.method, **info}))
        entries.append(check(
            f"fanpow.low.stage{n}.k{ki}",
            f"power c_{ki}={ck}: rows [0,{nu}] of the image of span f_({nu},{hi}]",
            low.value, delta, asserted=gate,
            details={"method": low.method, **info}))

    spill_max, band_growth, low_growth = 0.0, {}, {}
    for m in _default_subsample(nu // 2):
        spill, band, low = (spill1, band_blk, lo_blk) if m == 1 else \
            power_norms(basis, m, [spill_nu, band_nu, low_nu])
        spill_max = max(spill_max, spill.value)
        band_growth[m], low_growth[m] = band.value, low.value
    entries.append(check(
        f"powm.spill.stage{n}",
        f"powers m<nu/2 of span f_[0,{nu}] escaping above {nu} (max over sample)",
        spill_max, delta, asserted=spill_ok,
        details={"sample": list(band_growth), **gate_info}))
    entries.append(check(
        f"powm.band.stage{n}",
        "iterated-power band norms over the sample (growth reported, constants "
        "unspecified by the estimate)",
        max(band_growth.values()), 1 + eps,
        asserted=False, details={"per_power": band_growth}))
    entries.append(check(
        f"powm.low.stage{n}",
        "iterated-power low-block norms over the sample",
        max(low_growth.values()), eps,
        asserted=False, details={"per_power": low_growth}))
    return entries


def _default_subsample(limit: int) -> list[int]:
    out, m = [], 1
    while m < limit:
        out.append(m)
        m = max(m + 1, int(m * 1.7))
    return out or [1]


def tail_bound_entry(basis: BasisMap, n: int, k: int) -> Entry:
    """Measured norm of the c_k-th power restricted to f-span of indices
    above nu_n, against the universal tail constant 100."""
    st = basis.schedule.stage(n)
    ck = st.c[k - 1]
    jmax = basis.n_trunc - ck - st.d - 1
    if jmax <= st.nu:
        return check(f"tailpow.stage{n}.k{k}",
                     f"power c_{k}={ck}: empty admissible tail", 0.0, 100.0,
                     asserted=False, details={"admissible_columns": 0})
    res, = power_norms(basis, ck, [(slice(0, basis.n_trunc + 1),
                                    slice(st.nu + 1, jmax + 1))])
    gates = stage_gates(basis, n)
    (h_ok, h_info), (s_ok, s_info) = gates["h"], gates[f"scale.k{k}"]
    det = {"admissible_columns": jmax - st.nu, "method": res.method,
           **h_info, **s_info}
    return check(
        f"tailpow.stage{n}.k{k}",
        f"power c_{k}={ck} on f-span of ({st.nu},{jmax}] vs the tail constant 100",
        res.value, 100.0, asserted=h_ok and s_ok, details=det)


def full_norm_entry(basis: BasisMap) -> tuple[Entry, OpNormResult]:
    res, = power_norms(basis, 1, [(slice(None), slice(None))])
    e = check(
        "opnorm.full",
        "measured operator norm of the full truncated operator (finite required)",
        res.value, None, asserted=False,
        details={"method": res.method})
    if res.method == "nonfinite":
        e.details["flag"] = NONFINITE_FLAG
    return e, res


# -- orbit tables ---------------------------------------------------------------

def orbit_distances(basis: BasisMap, x_f: dict, targets: Sequence[dict],
                    steps: int) -> list[list[float]]:
    """Row m holds ||T^m x - target_i|| in the ambient norm, m = 0..steps."""
    x_e = basis.f_to_e(x_f)
    rows = []
    for m in range(steps + 1):
        xf = basis.e_to_f(x_e)
        rows.append([vec_norm(vec_sub(xf, t)) for t in targets])
        x_e = shift_e(x_e, 1, basis.n_trunc)
    return rows
