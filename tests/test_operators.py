import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import orbitlab as ol
from orbitlab import geometry as geo
from orbitlab import operators as ops
from orbitlab.report import FAIL, INFO, PASS, check

from conftest import layoff_weights, max_block_norm_by_svd, op_norm_by_svd


def _power(b, m):
    """The f-frame matrix of T^m, E S^m F (in rational mode the exact power,
    each entry rounded once)."""
    return ops.poly_image(b, ((m, 1),), b.f_columns())


def test_op_norm_identity():
    for M in (sparse.identity(40, format="csc"),
              sparse.identity(40, dtype=complex, format="csr")):
        assert ops.op_norm(M) == ops.OpNormResult(1.0, "dense_svd")


def test_op_norm_diagonal():
    M = sparse.diags([2.0, 1.0, 0.5]).tocsc()
    assert ops.op_norm(M).value == pytest.approx(2.0)


def test_op_norm_methods_agree(rng):
    M = sparse.random(300, 200, density=0.02, random_state=7, format="csc")
    res = ops.op_norm(M)
    assert res.method == "dense_svd" and res.iterations == 0
    want = np.linalg.svd(M.toarray(), compute_uv=False)[0]
    assert res.value == pytest.approx(want, rel=1e-12)


def _chain(n, rng):
    """An n x n upper-bidiagonal matrix, one component n rows and columns
    wide, whose largest singular value (about 5) stands well apart."""
    main = 1 + rng.random(n)
    main[n // 2] = 5.0
    return sparse.diags([main, rng.random(n - 1)], [0, 1]).tocsc()


def test_dense_svd_cap():
    rng = np.random.default_rng(2)
    cap = ops.DENSE_COMPONENT_CAP
    at_cap, above = _chain(cap, rng), _chain(cap + 1, rng)
    res = ops.op_norm(at_cap)
    assert res.method == "dense_svd" and res.iterations == 0
    want = np.linalg.svd(at_cap.toarray(), compute_uv=False)[0]
    assert res.value == pytest.approx(want, rel=1e-12)
    with pytest.raises(ol.errors.OrbitLabError, match="capped at"):
        ops.op_norm(above)
    # cap + 1 rows and cap columns: wider than the cap as well
    tall = sparse.vstack([at_cap, sparse.csc_matrix(np.eye(1, cap))]).tocsc()
    with pytest.raises(ol.errors.OrbitLabError, match="capped at"):
        ops.op_norm(tall)


def test_op_norm_drops_rounding_level_links():
    # a chain wider than the cap whose links are far below rounding of its
    # O(1) diagonal splits into 1x1 components: exact, no raise
    n = ops.DENSE_COMPONENT_CAP + 50
    rng = np.random.default_rng(6)
    main = 1 + rng.random(n)
    M = sparse.diags([main, np.full(n - 1, 1e-20)], [0, 1]).tocsc()
    data = M.data.copy()
    res = ops.op_norm(M)
    assert np.array_equal(M.data, data)  # the drop works on a private copy
    assert res.method == "dense_svd" and res.iterations == 0
    want = np.linalg.svd(M.toarray(), compute_uv=False)[0]
    u_L = np.finfo(float).eps / 2 * main.max()
    assert abs(res.value - want) <= u_L


def test_op_norm_prunes_wide_component_below_lower_bound():
    # a component wider than the cap whose Frobenius norm stays below the
    # largest column norm cannot hold the maximum: no raise
    chain = 1e-3 * _chain(ops.DENSE_COMPONENT_CAP + 50, np.random.default_rng(3))
    column = sparse.csc_matrix(np.arange(1.0, 4.0).reshape(3, 1))
    M = sparse.block_diag([chain, column, sparse.identity(7)]).tocsc()
    assert math.sqrt((chain.data ** 2).sum()) < math.sqrt(14)
    res = ops.op_norm(M)
    assert res == ops.OpNormResult(math.sqrt(14), "dense_svd")


def _permuted_block_diag(rng, shapes, complex_=False, pad=3):
    """Random blocks of the given shapes on the diagonal, rows and columns
    shuffled, with `pad` empty rows and columns mixed in."""
    def block(r, c):
        a = rng.standard_normal((r, c))
        if complex_:
            a = a + 1j * rng.standard_normal((r, c))
        a[rng.random((r, c)) < 0.3] = 0
        # the diagonal, last row and last column keep the block connected
        a[np.arange(min(r, c)), np.arange(min(r, c))] += 3
        a[:, -1] += 1
        a[-1, :] += 1
        return a

    B = sparse.block_diag([block(r, c) for r, c in shapes], format="coo")
    n_r, n_c = B.shape[0] + pad, B.shape[1] + pad
    pr, pc = rng.permutation(n_r), rng.permutation(n_c)
    return sparse.csc_matrix((B.data, (pr[B.row], pc[B.col])), shape=(n_r, n_c))


SPLIT_SHAPES = [(1, 5), (1, 32), (7, 1), (32, 1), (1, 1), (2, 3), (5, 5),
                (12, 9), (32, 32), (3, 32), (32, 17)]


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("winner", [None, 0, 2, 4, 8])
@pytest.mark.parametrize("scale", [1.0, 1e150])
def test_op_norm_auto_splits_small_components_exactly(complex_, winner, scale):
    # `winner` appends an inflated copy of one block shape (a row vector, a
    # column vector, a 1x1, a 32x32), so each kind of component holds the max
    rng = np.random.default_rng(11 if winner is None else winner)
    M = _permuted_block_diag(rng, SPLIT_SHAPES, complex_)
    if winner is not None:
        B = _permuted_block_diag(np.random.default_rng(5),
                                 [SPLIT_SHAPES[winner]], complex_, pad=0)
        M = sparse.block_diag([M, 40 * B])
    M = (M * scale).tocsc()
    want = np.linalg.svd(M.toarray(), compute_uv=False)[0]
    # 4500 tiny 1x1 components beside them are dropped before labelling
    M = sparse.block_diag([M, 1e-3 * scale * sparse.identity(4500)]).tocsc()
    res = ops.op_norm(M)
    assert res.method == "dense_svd" and res.iterations == 0
    assert res.converged
    assert res.value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("case", ["wide_candidate", "chain", "wide_row",
                                  "too_wide"])
def test_op_norm_solves_wide_components_up_to_cap(case):
    rng = np.random.default_rng(3)
    small = _permuted_block_diag(rng, [(2, 2), (1, 4), (5, 3)])
    if case == "wide_candidate":
        M = sparse.block_diag([small, 10 * sparse.random(
            40, 33, density=0.5, random_state=1)]).tocsc()
    elif case == "chain":
        n = 300  # one long weighted-shift chain, at most 2 entries per line
        M = sparse.block_diag([small, sparse.diags(
            [1 + rng.random(n), rng.random(n - 1)], [0, 1])]).tocsc()
    elif case == "wide_row":
        M = sparse.block_diag([small, rng.standard_normal((1, 33))]).tocsc()
    else:  # a candidate wider than the cap: no estimate, a raise
        M = sparse.block_diag([small, 10 * _chain(
            ops.DENSE_COMPONENT_CAP + 1, rng)]).tocsc()
        with pytest.raises(ol.errors.OrbitLabError, match="capped at"):
            ops.op_norm(M)
        return
    res = ops.op_norm(M)
    want = np.linalg.svd(M.toarray(), compute_uv=False)[0]
    # components of any width up to the cap are solved exactly
    assert res.method == "dense_svd" and res.iterations == 0
    assert res.value == pytest.approx(want, rel=1e-12)


def _tall_block():
    """A CSC block with fewer than one entry per RANK_SORT_RATIO rows:
    unsorted rows within columns, a duplicate entry, empty rows and
    columns (the first and the last ones among them)."""
    rng = np.random.default_rng(5)
    n_rows, n_cols = 3000, 40
    counts = rng.integers(0, 4, n_cols)
    counts[[0, 7, -1]] = 0
    indptr = np.r_[0, np.cumsum(counts)]
    indices = rng.integers(1, n_rows - 1, indptr[-1])
    at = indptr[np.flatnonzero(counts >= 2)[0]]
    indices[at + 1] = indices[at]  # a duplicate (row, column) entry
    M = sparse.csc_matrix((rng.standard_normal(indptr[-1]), indices, indptr),
                          shape=(n_rows, n_cols))
    assert not M.has_canonical_format
    assert M.nnz * ops.RANK_SORT_RATIO < n_rows
    return M


def test_compress_matches_unique_reference():
    M = sparse.random(60, 80, density=0.03, random_state=4, format="csc")
    M = M.tolil()
    M[:, 0] = 0  # empty first column, and empty last rows and columns
    M[-5:, :] = 0
    M[:, -7:] = 0
    M[10, 3] = 2.0
    M = M.tocsc()
    M.eliminate_zeros()
    # unsorted row indices within columns, as in a conjugated_power slice
    U = M[np.random.default_rng(4).permutation(60), :].tocsc()
    assert not U.has_sorted_indices
    T = _tall_block()
    D = sparse.random(30, 25, density=0.5, random_state=9, format="csc")
    assert D.nnz >= D.shape[0]  # ranked by the presence mask
    for M in (M, U, U.tocoo(), T, T.tocoo(), D):
        before = M.copy()
        coo = M.tocoo()
        rows, rr = np.unique(coo.row, return_inverse=True)
        cols, cc = np.unique(coo.col, return_inverse=True)
        ref = sparse.csc_matrix((coo.data, (rr, cc)),
                                shape=(len(rows), len(cols)))
        C = ops._compress(M)
        assert C.shape == ref.shape and C.dtype == ref.dtype
        for a in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(C, a), getattr(ref, a))
        for a in ("row", "col", "data") if M.format == "coo" else (
                "indptr", "indices", "data"):
            assert np.array_equal(getattr(M, a), getattr(before, a))
    assert ops._compress(sparse.csc_matrix((4, 5))).shape == (1, 1)


@pytest.mark.parametrize("shape", ["shuffled_chain", "random"])
def test_component_labels_match_union_find(shape):
    rng = np.random.default_rng(6)
    n = 20_000
    if shape == "shuffled_chain":  # one component of diameter 2n
        rows = rng.permutation(n)[np.r_[np.arange(n), np.arange(n - 1)]]
        cols = rng.permutation(n)[np.r_[np.arange(n), np.arange(1, n)]]
    else:
        rows, cols = rng.integers(0, n, (2, int(1.2 * n)))
    S = ops._compress(sparse.coo_matrix((np.ones(len(rows)), (rows, cols)),
                                        shape=(n, n)))
    row_label, col_label = ops._component_labels(S)
    # reference: union-find over the nodes (rows, then columns)
    n_r, n_c = S.shape
    parent = list(range(n_r + n_c))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    coo = S.tocoo()
    for r, c in zip(coo.row.tolist(), coo.col.tolist()):
        parent[find(r)] = find(n_r + c)
    root = np.array([find(x) for x in range(n_r + n_c)])
    smallest = {}
    for c in range(n_c):
        smallest.setdefault(root[n_r + c], c)
    assert col_label.tolist() == [smallest[root[n_r + c]] for c in range(n_c)]
    assert row_label.tolist() == [smallest[root[r]] for r in range(n_r)]


def test_op_norm_does_not_import_csgraph():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(ops.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from scipy import sparse\n"
            "from orbitlab import operators as ops\n"
            "M = sparse.random(300, 200, density=0.02, random_state=1)\n"
            "ops.op_norm(M)\n"
            "ops.op_norm(sparse.identity(5000, format='csc'))\n"
            "assert 'scipy.sparse.csgraph' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


# -- candidates certified below the running maximum -------------------------------

def _count_svds(monkeypatch):
    """A list that grows by one entry (the block's shape) per dense SVD."""
    shapes, svd = [], np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


def _sigma(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _near_tie(gap, complex_, scale):
    """A 40 x 40 winner block and a 24 x 20 runner-up whose largest singular
    value is the winner's times (1 - gap), as dense SVD measures them, with
    two small distractors, rows and columns shuffled.  The runner-up is
    nearly rank one, so its Frobenius norm is below the winner's and it is
    visited second."""
    rng = np.random.default_rng(17)

    def dense(r, c):
        a = rng.standard_normal((r, c))
        return a + 1j * rng.standard_normal((r, c)) if complex_ else a

    W = dense(40, 40)
    R = dense(24, 1) @ dense(1, 20) + 1e-3 * dense(24, 20)
    R *= _sigma(W) * (1 - gap) / _sigma(R)
    assert np.linalg.norm(R) < np.linalg.norm(W)
    B = sparse.block_diag([W, R, dense(3, 2), 0.1 * dense(20, 20)], format="coo")
    pr, pc = rng.permutation(B.shape[0]), rng.permutation(B.shape[1])
    return scale * sparse.csc_matrix((B.data, (pr[B.row], pc[B.col])),
                                     shape=B.shape)


# runner-up gaps below the winner (negative: above it); 2^-53 is one ulp
# of the relative gap, 2^-30 the certificate's margin
TIE_GAPS = [2.0 ** -53, 1e-12, 1e-9, 1e-6, -1e-12, -1e-6]


@pytest.mark.parametrize("gap", TIE_GAPS)
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("scale", [1.0, 1e150])
def test_near_ties_give_the_svd_of_every_candidate(gap, complex_, scale,
                                                   monkeypatch):
    M = _near_tie(gap, complex_, scale)
    want = op_norm_by_svd(M)
    shapes = _count_svds(monkeypatch)
    got = ops.op_norm(M)
    assert got == want
    # the winner is measured; the runner-up is skipped only when it sits
    # clearly below the margin, never when it is within it or above
    assert shapes[0] == (40, 40)
    assert shapes[1:] == ([] if gap > ops.CERT_MARGIN else [(24, 20)])


def test_certificate_margin_sits_below_the_running_maximum():
    # a block at 1e-12 below M is inside the margin: not certified; at 1e-9
    # (past 2^-30 = 9.3e-10) it is
    rng = np.random.default_rng(4)
    B = rng.standard_normal((30, 20))
    s = _sigma(B)
    assert not ops._certified_below(B, s * (1 + 1e-12))
    assert ops._certified_below(B, s * (1 + 1e-9))
    assert ops._certified_below(B.T.copy(), s * (1 + 1e-9))
    assert not ops._certified_below(B, s)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(shapes=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                       min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1), complex_=st.booleans(),
       tie=st.sampled_from([0.0, 2.0 ** -52, 1e-12, 1e-9, 1e-6, -1e-12]),
       scale=st.sampled_from([1.0, 1e150]))
def test_op_norm_equals_the_svd_of_every_candidate(shapes, seed, complex_,
                                                   tie, scale):
    # permuted block-diagonal matrices, each with a twin of its first block
    # scaled by (1 - tie), so near-ties are common
    rng = np.random.default_rng(seed)
    M = _permuted_block_diag(rng, shapes, complex_)
    twin = _permuted_block_diag(np.random.default_rng(seed), shapes[:1],
                                complex_, pad=0)
    M = (scale * sparse.block_diag([M, (1 - tie) * twin])).tocsc()
    assert ops.op_norm(M) == op_norm_by_svd(M)


@pytest.fixture()
def checked_block_norms(monkeypatch):
    """Every candidate loop op_norm runs during the test, checked against the
    reference loop: a list of (value, reference value), one per call."""
    calls = []
    pruned = ops._max_block_norm

    def both(blocks, fro2, best):
        got = pruned(blocks, fro2, best)
        calls.append((got, max_block_norm_by_svd(blocks, fro2, best)))
        return got

    monkeypatch.setattr(ops, "_max_block_norm", both)
    return calls


@pytest.mark.parametrize("name", ["mini", "mini_reflexive", "thm1",
                                  "mini_rational", "mini_complex"])
def test_every_op_norm_of_verify_all_is_the_reference(name, checked_block_norms,
                                                      monkeypatch):
    from orbitlab import hypercyclic as hyp
    from orbitlab import suites

    if name == "mini_complex":
        sched, fams = ol.profiles.mini_schedule(field=ol.COMPLEX)
    else:
        sched, fams = ol.load_config(
            Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
    if sched.weight_mode == ol.RATIONAL:
        # the exact fan.sampled residuals take about 13 s here and call no
        # op_norm: each reads 0
        monkeypatch.setattr(hyp, "fan_residual", lambda *args: 0.0)
    b = ol.assemble(sched, fams)
    suites.run_suite(b, "all", 0)
    assert len(checked_block_norms) >= 20
    assert [got for got, _ in checked_block_norms] == \
        [want for _, want in checked_block_norms]


def test_every_op_norm_of_the_boundedness_library_route_is_the_reference(
        checked_block_norms):
    # the operations of the benchmark's r1-lib workload
    sched, fams = ol.profiles.reference_schedule()
    b = ol.assemble(sched, fams)
    ops.full_norm_entry(b)
    ops.block_estimates(b, 1)
    ops.full_norm_entry(ol.assemble(ol.profiles.doubled_layoffs(sched), fams))
    assert len(checked_block_norms) >= 15
    assert [got for got, _ in checked_block_norms] == \
        [want for _, want in checked_block_norms]


def test_mini_frame_constant_takes_one_svd(mini, monkeypatch):
    # stage 2's frame block splits into 35 candidate components; the one
    # holding the maximum is measured, the rest are certified below it
    from orbitlab.basis import measure_frame_constant

    shapes = _count_svds(monkeypatch)
    C = measure_frame_constant(mini.F_csc, mini.schedule.stage(2).nu)
    assert C == mini.frame_constants[2]
    assert len(shapes) <= 2


def test_mini_verify_fan_svd_count(tmp_path, monkeypatch):
    from orbitlab.cli import main

    sched, fams = ol.profiles.mini_schedule()
    cfg = tmp_path / "mini.cfg"
    ol.save_config(cfg, sched, fams)
    out = str(tmp_path / "build")
    assert main(["build", "--config", str(cfg), "--out", out]) == 0
    shapes = _count_svds(monkeypatch)
    assert main(["verify", "--build", out, "--suite", "fan"]) == 0
    assert len(shapes) <= 10


def test_shift_power_matrix():
    S = ops.shift_power_csc(5, 2)
    x = np.array([1.0, 2.0, 0, 0, 0])
    assert np.array_equal(S @ x, [0, 0, 1.0, 2.0, 0])
    # truncation convention: mass pushed past the end is dropped
    y = np.zeros(5)
    y[4] = 3.0
    assert np.count_nonzero(ops.shift_power_csc(5, 1) @ y) == 0


def test_shift_power_kills_last_coordinate():
    # T_xi on span[e_0..e_xi] (xi = 2): shifts up, kills e_xi
    T2 = ops.shift_power_csc(3, 1)
    x = np.zeros(3)
    x[1] = 1.0
    assert np.array_equal(T2 @ x, [0, 0, 1.0])
    assert np.count_nonzero(T2 @ (T2 @ x)) == 0


@pytest.mark.parametrize("name", ["mini", "r1"])
def test_conjugated_power_matches_shift_product(name, request):
    # the operator and poly_image's powers against the N x N shift
    # product; m = n_trunc pushes every row but e_0 past the truncation
    b = request.getfixturevalue(name)
    st = b.schedule.stage(1)
    assert ops.conjugated_power(b) is ops.conjugated_power(b)
    for m in (1, st.b + 1, st.c[0], b.n_trunc):
        P = ops.conjugated_power(b) if m == 1 else _power(b, m)
        ref = b.E_csc @ ops.shift_power_csc(b.n_trunc + 1, m) @ b.F_csc
        assert P.shape == ref.shape
        assert (P != ref).nnz == 0
        assert P.has_sorted_indices


def test_layoff_action_interior_columns(r1):
    # T f_j = (w_j / w_{j+1}) f_{j+1} on interior lay-off columns, exactly
    T = ops.conjugated_power(r1)
    w = layoff_weights(r1.schedule)[1]
    for j in (5, 40, 63, 300, 139_600):
        tag = ol.classify(j, r1.schedule)
        tag2 = ol.classify(j + 1, r1.schedule)
        assert geo.is_layoff(tag) and tag == tag2
        col = T[:, j].tocoo()
        assert col.nnz == 1
        assert int(col.row[0]) == j + 1
        expected = w[j] / w[j + 1]
        assert col.data[0] == pytest.approx(expected, rel=1e-12)


def test_layoff_action_exact_rational(mini_rational):
    sched = mini_rational.schedule
    from orbitlab.basis import shift_e, vec_clean

    w = layoff_weights(sched)[1]
    for j in range(3, 6):
        tag = ol.classify(j, sched)
        assert geo.is_layoff(tag)
        # conjugation route, exact: E (shift F col j)
        shifted = shift_e(mini_rational.f_col(j), 1, mini_rational.n_trunc)
        got = mini_rational.e_to_f(shifted)
        expected = {j + 1: w[j] / w[j + 1]}
        assert vec_clean(got) == expected


def test_working_interior_shift_is_exact_one(r1):
    T = ops.conjugated_power(r1)
    for j in (65, 66, 4096, 4200, 65536 + 10):
        col = T[:, j].tocoo()
        assert col.nnz == 1 and int(col.row[0]) == j + 1
        assert col.data[0] == pytest.approx(1.0, rel=1e-12)


def test_boundary_column_matches_conjugation(r1):
    # j = 259 ends a b-side gap; its image carries the full difference chain
    T = ops.conjugated_power(r1)
    col = {int(i): v for i, v in zip(T[:, 259].tocoo().row,
                                     T[:, 259].tocoo().data)}
    lam = geo.layoff_weight(259, r1.schedule)
    expected = {260: lam, 196: 64 * lam, 132: 64 ** 2 * lam,
                68: 64 ** 3 * lam, 4: 64 ** 4 * lam}
    assert set(col) == set(expected)
    for k in expected:
        assert col[k] == pytest.approx(expected[k], rel=1e-12)


def test_last_column_is_zero(r1):
    T = ops.conjugated_power(r1)
    assert T[:, r1.n_trunc].nnz == 0


def test_pure_layoff_block_norm_is_max_ratio(mini):
    # a block fully inside one lay-off acts as a weighted shift: its norm is
    # the largest ratio
    T = ops.conjugated_power(mini)
    iv = [iv for iv in geo.stage_table(mini.schedule, 2)
          if geo.is_layoff(iv.tag) and iv.hi - iv.lo > 10][0]
    lo, hi = iv.lo + 1, iv.hi - 1
    blk = T[lo:hi + 1, lo:hi].tocsc()
    sigma = ops.op_norm(blk).value
    w = geo.interval_weights(iv, mini.schedule, lo, hi).tolist()
    ratios = [a / b for a, b in zip(w, w[1:])]
    assert sigma == pytest.approx(max(ratios), rel=1e-9)


@pytest.fixture(scope="module")
def r1_block_entries(r1):
    return {e.claim_id: e for e in ops.block_estimates(r1, 1)}


def test_block_estimates_r1(r1_block_entries):
    entries = r1_block_entries
    e = entries["shift.low.nu.stage1"]
    assert e.status == PASS and e.measured <= 0.25
    e = entries["shift.band.nu.stage1"]
    assert e.status == PASS and e.measured <= 1.25
    # the xi-cut rows are informational and large (b-chain mass below xi)
    e = entries["shift.low.xi.stage1"]
    assert e.status == INFO and e.measured > 1e5
    # saturated fan-power rows are gated off at R1's h and gap scale
    assert entries["fanpow.band.stage1.k1"].status == INFO
    assert entries["fanpow.low.stage1.k1"].status == INFO
    assert entries["powm.spill.stage1"].status == PASS


def test_fan_power_band_value_is_gap_ratio(r1_block_entries):
    # the k=2 band norm equals the within-tail weight ratio 2^(c_2/sqrt(s))
    entries = r1_block_entries
    s_tail = 400_000 - 139_525 + 1
    predicted = 2.0 ** (65536 / math.sqrt(s_tail))
    assert entries["fanpow.band.stage1.k2"].measured == pytest.approx(
        predicted, rel=1e-6)


def test_tail_bound_entry(r1):
    e = ops.tail_bound_entry(r1, 1, 1)
    assert e.status == INFO  # below the h/scale gates at R1
    assert e.measured > 0
    # empty admissible tail: mini ending one past its stage-2 fan, where
    # xi_end - c_1 - d - 1 = nu_2 - 1 leaves no column above nu_2
    from dataclasses import replace
    sched, fams = ol.profiles.mini_schedule()
    sched = replace(sched, xi_end=sched.stage(2).fan_end + 1)
    assert sched.xi_end == 31_553 and not ol.validate(sched)
    e2 = ops.tail_bound_entry(ol.assemble(sched, fams), 2, 1)
    assert e2.measured == 0.0 and e2.status == INFO
    assert e2.details["admissible_columns"] == 0


def test_deep_layoff_tail_column_ratio(r1):
    # j and j + c_1 in one long gap: the image is a single entry with the
    # congruent-pattern ratio; across the lattice period the ratio is 1
    P = _power(r1, 4096)
    j = 65_536 - 4096 - 100  # inside [8453, 65535], image inside as well
    col = P[:, j].tocoo()
    assert col.nnz == 1
    w = layoff_weights(r1.schedule)[1]
    ratio = w[j] / w[j + 4096]
    assert col.data[0] == pytest.approx(ratio, rel=1e-9)
    # lattice-periodic gaps [261, 4095] -> [4357, 8191]: congruent weights,
    # ratio exactly 1
    col2 = P[:, 1000].tocoo()
    assert col2.nnz == 1 and int(col2.row[0]) == 5096
    assert col2.data[0] == pytest.approx(1.0, rel=1e-12)


def _row_gates(claim_id: str) -> list[str]:
    """The stage_gates entries that decide a gated row, [] for an ungated
    one."""
    k = claim_id.rpartition(".k")[2]
    if claim_id.startswith(("shift.low.nu.", "shift.band.nu.")):
        return ["band"]
    if claim_id.startswith("powm.spill."):
        return ["spill"]
    if claim_id.startswith("fanpow."):
        return ["h", f"scale.k{k}", "band"]
    if claim_id.startswith("tailpow."):
        return ["h", f"scale.k{k}"]
    if claim_id.startswith("bfan.shade.stage"):
        return ["b"]
    return []


@pytest.mark.parametrize("name", ["mini", "r1", "r1b"])
def test_gated_rows_assert_exactly_when_their_gates_open(name, request):
    from orbitlab import hypercyclic as hyp
    b = request.getfixturevalue(name)
    seen = set()
    for n in range(1, b.schedule.n_stages + 1):
        gates = ops.stage_gates(b, n)
        rows = [*ops.block_estimates(b, n), *hyp.bfan_entries(b, n),
                *(ops.tail_bound_entry(b, n, k)
                  for k in range(1, b.schedule.stage(n).k + 1))]
        for e in rows:
            names = _row_gates(e.claim_id)
            if not names:
                continue
            is_open = all(gates[g][0] for g in names)
            assert (e.status == INFO) == (not is_open), e.claim_id
            # the row carries every deciding gate's values
            for g in names:
                assert e.details.items() >= gates[g][1].items(), (e.claim_id, g)
            seen.add(e.claim_id.split(".stage")[0])
    assert seen == {"shift.low.nu", "shift.band.nu", "powm.spill",
                    "fanpow.band", "fanpow.low", "tailpow", "bfan.shade"}


def test_full_norm_entry(r1):
    e, res = ops.full_norm_entry(r1)
    assert res.converged and math.isfinite(res.value)
    assert res.value == pytest.approx(1.247e6, rel=1e-3)
    assert e.details["method"] == "dense_svd" and "flag" not in e.details


def test_full_norm_entry_of_doubled_twin_matches_formed_power(r1):
    from orbitlab.profiles import doubled_layoffs

    twin = ol.assemble(doubled_layoffs(r1.schedule), r1.families)
    assert twin.n_trunc == 799_812
    _, res = ops.full_norm_entry(twin)
    _assert_same(res, ops.op_norm(ops.conjugated_power(twin)))
    assert res.value == pytest.approx(5.6455e6, rel=1e-4)


def test_mini_tail_block_is_exact(mini):
    # the c_1 tail block of mini's stage 1 is the widest measured block
    from scipy.sparse.linalg import svds

    e = ops.tail_bound_entry(mini, 1, 1)
    assert e.details["method"] == "dense_svd"
    st = mini.schedule.stage(1)
    jmax = mini.n_trunc - st.c[0] - st.d - 1
    P = _power(mini, st.c[0])[:, st.nu + 1:jmax + 1]
    scale = abs(P).max()  # its squared entries overflow
    want = svds(P / scale, k=1, return_singular_vectors=False,
                random_state=0)[0] * scale
    assert e.measured == pytest.approx(want, rel=1e-12)


def test_orbit_distances(mini):
    rows = ops.orbit_distances(mini, {}, [{1: 1.0}], 3)
    assert all(r[0] == pytest.approx(1.0) for r in rows)  # zero vector
    rows = ops.orbit_distances(mini, {0: 1.0}, [{1: 1.0}], 0)
    assert len(rows) == 1
    assert rows[0][0] == pytest.approx(math.sqrt(2))


def test_orbit_certified_minimum_at_fan_power(mini):
    # the second fan direction has p_2 = zeta: T^(c_2) e_0 = gamma f_(c_2) + e_1
    c2 = mini.schedule.stage(1).c[1]
    xi = mini.schedule.stage(1).xi
    rows = ops.orbit_distances(mini, {0: 1.0}, [{1: 1.0}], c2)
    dists = [r[0] for r in rows]
    # beyond the trivial seed passage (T e_0 = e_1 at m = 1), the certified
    # minimum sits at the fan power c_2 and equals gamma exactly
    assert dists[c2] == min(dists[xi + 1:])
    assert dists[c2] == pytest.approx(float(mini.gammas[0]), abs=1e-12)


def test_operator_and_companion_on_f0(mini):
    T = ops.conjugated_power(mini)
    assert T.shape == (mini.n_trunc + 1, mini.n_trunc + 1)
    x = np.zeros(mini.n_trunc + 1)
    x[0] = 1.0
    y = T @ x
    assert y[1] == pytest.approx(1.0)
    sched, fams = ol.profiles.mini_schedule(companion=True)
    bc = ol.assemble(sched, fams)
    A = ol.build_A(bc)
    assert np.count_nonzero(A @ x) == 0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("route", ["closed_form", "dense_svd", "too_wide"])
def test_op_norm_nonfinite_returns_at_once(bad, route):
    import warnings

    if route == "closed_form":  # a row vector
        M = sparse.csc_matrix(np.array([[1.0, 2.0, 0.5]]))
    elif route == "dense_svd":
        M = sparse.csc_matrix(np.array([[1.0, 0.0, 0.5], [1.0, 2.0, 0.0]]))
    else:
        M = _chain(ops.DENSE_COMPONENT_CAP + 1, np.random.default_rng(4))
    if route == "too_wide":
        with pytest.raises(ol.errors.OrbitLabError, match="capped at"):
            ops.op_norm(M)
    else:
        assert ops.op_norm(M).method == "dense_svd"
    M.data[0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ops.op_norm(M)
    assert math.isnan(res.value)
    assert res.method == "nonfinite"
    assert not res.converged and res.iterations == 0


def test_asserted_nan_measurement_fails():
    assert check("x", "", math.nan, 1.0, asserted=True).status == FAIL
    assert check("x", "", math.nan, 1.0, asserted=False).status == INFO


def test_boundedness_flags_nonfinite_doubled_mini(mini, monkeypatch):
    # the b^xi difference chains of the doubled-gap twin overflow its E
    from orbitlab import suites

    monkeypatch.setattr(ops, "block_estimates", lambda b, n: [])
    full_entries = []
    full_norm_entry = ops.full_norm_entry

    def recording(b):
        e, res = full_norm_entry(b)
        full_entries.append((e, res))
        return e, res

    monkeypatch.setattr(ops, "full_norm_entry", recording)
    rep = ol.VerificationReport()
    suites.boundedness(mini, rep, 0)
    (e1, r1_), (e2, r2) = full_entries
    assert r1_.method != "nonfinite" and "flag" not in e1.details
    assert r2.method == "nonfinite" and r2.iterations == 0
    assert math.isnan(e2.measured) and e2.status == INFO
    assert e2.details["flag"] == ops.NONFINITE_FLAG
    row = next(e for e in rep.entries if e.claim_id == "opnorm.gap_monotone")
    assert math.isnan(row.measured) and row.status == INFO  # b = 7: ungated
    assert row.details["flag"] == ops.NONFINITE_FLAG


def test_boundedness_runs_on_rational_mini(mini_rational):
    # the twin's exact E holds values beyond the float range; its float image
    # stores them as +-inf, as float mode does, so the rows match float mini
    from orbitlab import suites

    rep, _ = suites.run_suite(mini_rational, "boundedness", 0)
    assert rep.counts() == {PASS: 0, FAIL: 0, INFO: 22}
    row = next(e for e in rep.entries if e.claim_id == "opnorm.gap_monotone")
    assert math.isnan(row.measured)
    assert row.details["flag"] == ops.NONFINITE_FLAG


def test_sup_e_norm_memo_stops_at_hi(r1):
    # the memoised column norms extend only up to the largest hi asked for,
    # and agree with vec_norm of each e column
    import copy

    from orbitlab.basis import vec_norm

    b = copy.copy(r1)
    b._e_norms = []
    nu = b.schedule.stage(1).nu
    want = max(vec_norm(b.e_col(u)) for u in range(nu + 1))
    assert ops.sup_e_norm(b, nu) == want
    assert type(ops.sup_e_norm(b, nu)) is float
    assert len(b._e_norms) == nu + 1
    assert ops.sup_e_norm(b, 10) == max(vec_norm(b.e_col(u)) for u in range(11))
    assert len(b._e_norms) == nu + 1
    ops.sup_e_norm(b, nu + 500)
    assert len(b._e_norms) == nu + 501


# -- block norms of operator powers ------------------------------------------------

def _reference_norm(basis, m, rows, cols):
    return ops.op_norm(_power(basis, m)[rows, cols])


def _assert_same(got, want):
    assert (got.method, got.converged, got.iterations) == (
        want.method, want.converged, want.iterations)
    assert got.value.hex() == want.value.hex()


def _recorded_blocks(basis, monkeypatch):
    """Every (m, blocks, results) that the block-norm verifiers ask
    power_norms for on `basis`."""
    from orbitlab import hypercyclic as hyp

    calls = []
    power_norms = ops.power_norms

    def recording(b, m, blocks):
        out = power_norms(b, m, blocks)
        calls.append((m, list(blocks), out))
        return out

    monkeypatch.setattr(ops, "power_norms", recording)
    monkeypatch.setattr(hyp, "power_norms", recording)
    ops.full_norm_entry(basis)
    for n in range(1, basis.schedule.n_stages + 1):
        st = basis.schedule.stage(n)
        ops.block_estimates(basis, n)
        for k in range(1, st.k + 1):
            ops.tail_bound_entry(basis, n, k)
        hyp.shade_measurements(basis, n)
    return calls


@pytest.fixture(scope="module")
def mini_complex():
    return ol.assemble(*ol.profiles.mini_schedule(field=ol.COMPLEX))


@pytest.fixture(scope="module")
def r1_complex():
    return ol.assemble(*ol.profiles.reference_schedule(field=ol.COMPLEX))


@pytest.mark.parametrize("name", ["r1", "mini", "mini_rational", "mini_complex",
                                  "r1_complex", "r1_companion"])
def test_power_norms_match_formed_power(name, request, monkeypatch):
    # every block the verifiers measure, hex-equal to op_norm of the block
    # sliced out of the formed power
    b = request.getfixturevalue(name)
    calls = _recorded_blocks(b, monkeypatch)
    values = []
    for m, blocks, results in calls:
        P = _power(b, m)
        for (rows, cols), got in zip(blocks, results):
            _assert_same(got, ops.op_norm(P[rows, cols]))
            values.append(got.value)
    if name.startswith("mini"):  # stage 1's chains take the rescale branch
        assert max(values) > 1e100


def _lone_reference(M):
    """_lone_diagonal's answer from per-column and per-row entry counts and
    the diagonal read as M[j, j]."""
    coo = M.tocoo()
    n = M.shape[1]
    diag = M.diagonal()
    one = ((np.bincount(coo.col, minlength=n) == 1)
           & (np.bincount(coo.row, minlength=n) == 1) & (diag.imag == 0))
    return one, diag.real


def _assert_lone_diagonal(M):
    one, diag = ops._lone_diagonal(M)
    want_one, want_diag = _lone_reference(M)
    assert np.array_equal(one, want_one)
    assert diag.dtype == float and diag.flags.owndata
    assert np.array_equal(diag, want_diag)
    return one, diag


@pytest.mark.parametrize("name", ["r1", "mini", "mini_rational", "r1_complex"])
def test_lone_diagonal_matches_counts(name, request):
    b = request.getfixturevalue(name)
    for M in (b.F_csc, b.E_csc):
        one, _ = _assert_lone_diagonal(M)
        assert one.any() and not one.all()


def test_lone_diagonal_of_complex_entries():
    # columns 0-3 hold one entry each; column 4's row also holds column 5's
    # off-diagonal entry
    data = np.array([1.5, 2 + 3j, 0, 4, 1, 0.5, 2], dtype=complex)
    indices = np.array([0, 1, 2, 3, 4, 4, 5])
    M = sparse.csc_matrix((data, indices, [0, 1, 2, 3, 4, 5, 7]), shape=(6, 6))
    assert M.nnz == 7  # the explicit zero is stored
    one, diag = _assert_lone_diagonal(M)
    # a nonzero imaginary part leaves the pairs; an explicit zero stays
    assert one.tolist() == [True, False, True, True, False, False]
    assert diag.tolist() == [1.5, 2.0, 0.0, 4.0, 1.0, 2.0]


def test_power_norms_edge_blocks(mini):
    n = mini.n_trunc + 1
    full = slice(0, n)
    blocks = [(full, slice(40, 40)),             # empty column range
              (full, slice(50, 20)),             # reversed, empty too
              (slice(n - 30, n + 50), full),     # rows past the truncation
              (slice(n + 2, n + 9), full),       # rows all past it
              (slice(5, 9000), slice(3, 20000))]
    for m in (1, 7, mini.n_trunc, n + 3):
        got = ops.power_norms(mini, m, blocks)
        for (rows, cols), res in zip(blocks, got):
            _assert_same(res, _reference_norm(mini, m, rows, cols))
    assert ops.power_norms(mini, n + 3, [(full, full)]) == [
        ops.OpNormResult(0.0, "empty")]


def _lone_pairs(b, m):
    """Columns j where F's row and column j and E's row and column j + m
    each hold one stored entry."""
    n = b.n_trunc + 1

    def lone(M):
        return (np.diff(M.indptr) == 1) & (np.bincount(M.indices, minlength=n) == 1)

    k = max(n - m, 0)
    return np.flatnonzero(lone(b.F_csc)[:k] & lone(b.E_csc)[m:])


def _spy_poly_image(monkeypatch):
    calls = []
    poly_image = ops.poly_image

    def spy(basis, terms, X):
        calls.append((terms, X))
        return poly_image(basis, terms, X)

    monkeypatch.setattr(ops, "poly_image", spy)
    return calls


def test_block_estimates_multiply_only_non_pair_columns(r1, monkeypatch):
    # the formed power is never built: each product covers at most the
    # columns that are not lone pairs at that power
    calls = _spy_poly_image(monkeypatch)
    ops.block_estimates(r1, 1)
    assert calls
    for terms, X in calls:
        (m, _), = terms
        assert X.shape[1] <= r1.n_trunc + 1 - len(_lone_pairs(r1, m))


@pytest.mark.parametrize("m, cols", [(1, [0, 1, 2, 3, 4]),
                                     (4096, [8453, 61701, 73989])])
def test_single_entry_columns_sharing_a_row_stay_in_the_product(
        r1, monkeypatch, m, cols):
    # these columns hold one entry in F and E at j + m, but the power has
    # another entry in their row j + m: they go through the product, and
    # the blocks holding both are measured exactly
    F, E = r1.F_csc, r1.E_csc
    P = _power(r1, m).tocsr()
    for j in cols:
        assert F.indptr[j + 1] - F.indptr[j] == 1
        assert E.indptr[j + m + 1] - E.indptr[j + m] == 1
        assert P.indptr[j + m + 1] - P.indptr[j + m] > 1
    assert not set(cols) & set(_lone_pairs(r1, m).tolist())
    calls = _spy_poly_image(monkeypatch)
    full = slice(0, r1.n_trunc + 1)
    blocks = [(full, full), (full, slice(0, 80_000)), (slice(0, 80_000), full)]
    got = ops.power_norms(r1, m, blocks)
    (_, X), = calls  # every column but the lone pairs
    assert X.shape[1] == r1.n_trunc + 1 - len(_lone_pairs(r1, m))
    for (rows, c), res in zip(blocks, got):
        _assert_same(res, _reference_norm(r1, m, rows, c))


def test_block_norms_raise_no_floating_point_warnings(mini):
    import warnings

    from orbitlab import hypercyclic as hyp

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n in (1, 2):
            ops.block_estimates(mini, n)
            hyp.shade_measurements(mini, n)
        ops.tail_bound_entry(mini, 1, 1)
        ops.full_norm_entry(mini)


def _diagonal_basis(f_diag, e_diag):
    """A basis whose F and E are diagonal: every column is a lone pair."""
    from orbitlab.basis import BasisMap

    n = len(f_diag)

    def diag(d):
        return sparse.csc_matrix((np.asarray(d, dtype=float), np.arange(n),
                                  np.arange(n + 1)), shape=(n, n))

    return BasisMap(None, (), diag(f_diag), diag(e_diag), ())


@pytest.mark.parametrize("f_diag, method", [
    ([0.0, 0.0, 0.0, 0.0], "empty"),      # the products are explicit zeros
    ([1.0, 0.0, 3.0, 1.0], "dense_svd"),
    ([1.0, np.inf, 3.0, 1.0], "nonfinite"),
    ([1.0, 2.0, np.nan, 1.0], "nonfinite"),
    ([1e200, 3e199, 1.0, 1.0], "dense_svd"),  # the rescale branch
    ([1e-300, 1e-310, 3e-301, 1.0], "dense_svd"),
])
def test_power_norms_of_pairs_only(f_diag, method):
    b = _diagonal_basis(f_diag, [1.0, 0.5, 2.0, 1.0])
    n = b.n_trunc + 1
    blocks = [(slice(0, n), slice(0, n)), (slice(1, 3), slice(0, 2)),
              (slice(2, 4), slice(0, 2))]
    for m in (0, 1, 2):
        for (rows, cols), res in zip(blocks, ops.power_norms(b, m, blocks)):
            _assert_same(res, _reference_norm(b, m, rows, cols))
    assert ops.power_norms(b, 1, blocks[:1])[0].method == method


def test_power_norms_of_exact_pairs_beyond_the_float_range():
    # rational diagonals whose float images are inf, subnormal or 0: the pair
    # entries are the exact products rounded once, as the exact power stores
    # them, not products of the rounded images (inf * 0 = nan at m = 1)
    from fractions import Fraction

    from orbitlab.basis import BasisMap, _float_images

    f = [Fraction(2 ** 1100), Fraction(3, 2 ** 1074), Fraction(1, 3), Fraction(1, 2 ** 1100)]
    e = [Fraction(1), Fraction(1, 2 ** 1100), Fraction(2 ** 1080), Fraction(7)]
    n = len(f)

    def diag(d):
        pairs = tuple(np.array(v, dtype=object)
                      for v in zip(*((x.numerator, x.denominator) for x in d)))
        M = sparse.csc_matrix((_float_images(*pairs), np.arange(n), np.arange(n + 1)),
                              shape=(n, n))
        return M, pairs

    (F, f_exact), (E, e_exact) = diag(f), diag(e)
    assert np.isinf(F.data[0]) and 0 < F.data[1] < np.finfo(float).tiny
    assert F.data[3] == E.data[1] == 0
    b = BasisMap(None, (), F, E, (), exact=(f_exact, e_exact))
    blocks = [(slice(0, n), slice(0, n)), (slice(1, 3), slice(0, 2)),
              (slice(2, 4), slice(1, 3))]
    for m in (1, 2):
        for (rows, cols), res in zip(blocks, ops.power_norms(b, m, blocks)):
            _assert_same(res, _reference_norm(b, m, rows, cols))
    assert b.diagonal_products(1, np.arange(3)).tolist() == [1.0, 192.0, float(Fraction(7, 3))]
    assert ops.power_norms(b, 1, blocks[:1])[0].value == 192.0


def test_op_norm_of_explicit_zeros_is_empty():
    M = sparse.csc_matrix(([0.0, 0.0], [0, 1], [0, 1, 2]), shape=(2, 2))
    assert M.nnz == 2
    assert ops.op_norm(M) == ops.OpNormResult(0.0, "empty")
    assert ops.op_norm(sparse.csc_matrix((3, 4))) == ops.OpNormResult(
        0.0, "empty")


def test_power_norms_count_loose_pairs_in_the_drop_threshold():
    # E = I and F = a bidiagonal chain wider than the cap beside many lone
    # unit columns, three of them explicit zeros that the product does not
    # store.  The chain's links sit above u^2 L^2 / nnz only when nnz counts
    # the stored lone entries, so both routes keep them and raise on the
    # same matrix shape.
    from orbitlab.basis import BasisMap

    n_pairs, width = 100_000, ops.DENSE_COMPONENT_CAP + 100
    pairs = np.ones(n_pairs)
    pairs[[10, 500, 7000]] = 0.0
    lone = sparse.csc_matrix((pairs, np.arange(n_pairs), np.arange(n_pairs + 1)))
    main = 1 + np.random.default_rng(8).random(width)
    main[width // 2] = 5.0
    chain = sparse.diags([main, np.full(width - 1, 3e-18)], [0, 1])
    F = sparse.block_diag([lone, chain], format="csc")
    n = F.shape[0]
    assert F.nnz == n_pairs + 2 * width - 1
    b = BasisMap(None, (), F, sparse.identity(n, format="csc"), ())
    full = (slice(0, n), slice(0, n))
    with pytest.raises(ol.errors.OrbitLabError) as want:
        _reference_norm(b, 0, *full)
    with pytest.raises(ol.errors.OrbitLabError) as got:
        ops.power_norms(b, 0, [full])
    assert str(got.value) == str(want.value)
    assert f"{n - 3}x{n - 3} matrix" in str(got.value)
