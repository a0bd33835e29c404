import copy
import hashlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import orbitlab as ol
from orbitlab import geometry as geo
from orbitlab.basis import (_ROUNDTRIP_BLOCK, column_norms, expand_e_structural,
                            solve_F, vec_add, vec_clean, vec_norm, vec_project,
                            vec_sub)

from orbitlab.profiles import doubled_layoffs, mini_schedule, reference_schedule

from conftest import combine_by_terms, layoff_weights


def test_f0_is_e0(r1):
    assert r1.f_col(0) == {0: 1.0}


def test_b_working_column_reference(r1):
    # f_65 = e_65 - 64 e_1
    assert r1.f_col(65) == {65: 1.0, 1: -64.0}


def test_c_working_column_reference(r1):
    # first fan polynomial is the constant 1: f_(4096+a) = (e - e_a)/gamma
    g = r1.gammas[0]
    col = r1.f_col(4096 + 3)
    assert set(col) == {4099, 3}
    assert col[4099] == pytest.approx(1 / g)
    assert col[3] == pytest.approx(-1 / g)
    # second direction uses zeta: f_(65536+a) = (e_(65536+a) - e_(a+1))/gamma
    col2 = r1.f_col(65536)
    assert set(col2) == {65536, 1}
    assert col2[1] == pytest.approx(-1 / g)


def test_layoff_column_is_weighted(r1):
    col = r1.f_col(5)
    assert set(col) == {5}
    assert col[5] == pytest.approx(16.0)


def test_triangular_nonzero_diagonal(mini):
    for j in range(mini.n_trunc + 1):
        col = mini.f_col(j)
        assert col[j] != 0
        assert max(col) == j  # support confinement: rows <= j


def test_support_confinement_sampled(r1, rng):
    for j in rng.integers(0, r1.n_trunc, size=300):
        assert max(r1.f_col(int(j))) == int(j)


def test_roundtrip_float_r1(r1):
    assert ol.roundtrip_max_error(r1, "FE") <= 1e-10
    assert ol.roundtrip_max_error(r1, "EF") <= 1e-10


def test_roundtrip_exact_rational_mini(mini_rational):
    assert ol.roundtrip_exact(mini_rational, "FE") == (True, None, 0)
    assert ol.roundtrip_exact(mini_rational, "EF") == (True, None, 0)


def _fraction_roundtrip(basis, order, start=0):
    """Oracle: the product columns start, start + 1, ... summed as Fractions
    in dicts, with every column read through f_col / e_col (not the integer
    pairs roundtrip_exact reads); (ok, first failing column, its largest
    |residual|)."""
    F, E = basis.f_col, basis.e_col
    outer, inner = (F, E) if order == "FE" else (E, F)
    for m in range(start, basis.n_trunc + 1):
        acc = {}
        for j, c in inner(m).items():
            for i, v in outer(j).items():
                acc[i] = acc.get(i, 0) + c * v
        acc[m] = acc.get(m, 0) - 1
        bad = [abs(v) for v in acc.values() if v != 0]
        if bad:
            return (False, m, max(bad))
    return (True, None, 0)


def _entry(basis, which, p) -> Fraction:
    """The exact value stored at position p of F or E."""
    num, den = getattr(basis, f"_{which}_exact")
    return Fraction(num[p], den[p])


def _with_entry(basis, which, p, value: Fraction):
    """A copy of basis whose exact entry at position p of F or E is value
    (the pair arrays are copied and the structural memo is fresh: fixtures
    are shared)."""
    b = copy.copy(basis)
    num, den = (a.copy() for a in getattr(b, f"_{which}_exact"))
    num[p], den[p] = value.numerator, value.denominator
    setattr(b, f"_{which}_exact", (num, den))
    b._expand_memo = {}
    return b


def _terms_before(basis, order, m) -> int:
    """Product terms roundtrip_exact sums before reaching column m."""
    outer, inner = ((basis.F_csc, basis.E_csc) if order == "FE"
                    else (basis.E_csc, basis.F_csc))
    return int(np.diff(outer.indptr)[inner.indices[:inner.indptr[m]]].sum())


@pytest.mark.parametrize("which", ["E", "F"])
def test_roundtrip_exact_catches_one_perturbed_entry(mini_rational, which):
    # perturb the top off-diagonal entry of the last widest column by 2^-80,
    # on a copy (the fixture is shared).  Product columns below the perturbed
    # column m do not read it (both maps are upper triangular), and FE and EF
    # column m each hold it times a nonzero diagonal entry, so both orders
    # fail first at m
    M = mini_rational.E_csc if which == "E" else mini_rational.F_csc
    sizes = np.diff(M.indptr)
    m = int(np.flatnonzero(sizes == sizes.max())[-1])
    assert m > mini_rational.schedule.stage(1).xi
    assert sizes[m] >= (3 if which == "E" else 2)
    p = M.indptr[m]
    b = _with_entry(mini_rational, which, p, _entry(mini_rational, which, p)
                    + Fraction(1, 2 ** 80))
    for order in ("FE", "EF"):
        got = ol.roundtrip_exact(b, order)
        assert got[:2] == (False, m), order
        assert got == _fraction_roundtrip(b, order, start=m - 100), order
        assert got[2] > 0
    assert (_entry(mini_rational, which, p)
            == _entry(b, which, p) - Fraction(1, 2 ** 80))


@pytest.mark.parametrize("which", ["E", "F"])
def test_roundtrip_exact_perturbed_past_the_first_block(mini_rational, which):
    # the top entry of the last multi-entry column, near the end of mini,
    # plus 2^-80: both orders fail first at that column, blocks of product
    # terms after the first
    M = mini_rational.E_csc if which == "E" else mini_rational.F_csc
    m = int(np.flatnonzero(np.diff(M.indptr) >= 2)[-1])
    assert m > 0.99 * mini_rational.n_trunc
    p = M.indptr[m]
    b = _with_entry(mini_rational, which, p, _entry(mini_rational, which, p)
                    + Fraction(1, 2 ** 80))
    for order in ("FE", "EF"):
        assert _terms_before(b, order, m) > 2 * _ROUNDTRIP_BLOCK
        got = ol.roundtrip_exact(b, order)
        assert got[:2] == (False, m), order
        assert got == _fraction_roundtrip(b, order, start=m - 100), order


@pytest.mark.parametrize("kind", ["working", "layoff"])
def test_roundtrip_exact_diagonal_product_summing_to_zero(mini_rational, kind):
    # E's diagonal entry of column m set to 0 makes the diagonal product
    # F_mm E_mm exactly 0, so zero-dropping removes it: that column then
    # fails with no diagonal left.  A lay-off column keeps nothing at all; a
    # working column keeps FE's off-diagonal sums, which no longer cancel
    b0 = mini_rational
    sizes = np.diff(b0.E_csc.indptr)
    cols = np.flatnonzero(layoff_weights(b0.schedule)[0] if kind == "layoff"
                          else sizes >= 2)
    m = int(cols[len(cols) // 2])
    b = _with_entry(b0, "E", b0.E_csc.indptr[m + 1] - 1, Fraction(0))
    for order in ("FE", "EF"):
        assert _terms_before(b, order, m) > _ROUNDTRIP_BLOCK
        got = ol.roundtrip_exact(b, order)
        assert got[:2] == (False, m), order
        assert got == _fraction_roundtrip(b, order, start=m - 100), order


def _hand_basis(F_dense):
    """A rational BasisMap of the upper-triangular Fraction matrix F_dense
    and its exact inverse, without a schedule."""
    from scipy import sparse

    n = len(F_dense)
    E_dense = [[Fraction(0)] * n for _ in range(n)]
    for m in range(n):  # back substitution for column m of F^-1
        for i in range(m, -1, -1):
            rhs = (i == m) - sum(F_dense[i][k] * E_dense[k][m] for k in range(i + 1, m + 1))
            E_dense[i][m] = rhs / F_dense[i][i]

    def stored(dense):
        cols = [[(i, dense[i][j]) for i in range(n) if dense[i][j] != 0] for j in range(n)]
        rows = [i for c in cols for i, _ in c]
        vals = [v for c in cols for _, v in c]
        ptr = np.cumsum([0] + [len(c) for c in cols])
        M = sparse.csc_matrix((np.array([float(v) for v in vals]), rows, ptr), shape=(n, n))
        return M, (np.array([v.numerator for v in vals], dtype=object),
                   np.array([v.denominator for v in vals], dtype=object))

    (F, F_exact), (E, E_exact) = stored(F_dense), stored(E_dense)
    return ol.BasisMap(None, (), F, E, (), exact=(F_exact, E_exact))


def test_roundtrip_exact_hand_built_cancellations():
    # every off-diagonal product entry sums terms over unlike denominators
    # to exactly 0 and must not be flagged; then each stored E entry in turn
    # is off by 1/7, and the whole tuple matches the Fraction oracle
    Q = Fraction
    b = _hand_basis([[Q(1), Q(1, 2), Q(-1, 3), Q(2)],
                     [0, Q(3), Q(1, 5), Q(-1, 7)],
                     [0, 0, Q(2, 3), Q(1, 4)],
                     [0, 0, 0, Q(5)]])
    assert b.n_trunc == 3 and b.E_csc.nnz == 10
    for order in ("FE", "EF"):
        assert ol.roundtrip_exact(b, order) == (True, None, 0) == _fraction_roundtrip(b, order)
    for p in range(b.E_csc.nnz):
        bad = _with_entry(b, "E", p, _entry(b, "E", p) + Q(1, 7))
        for order in ("FE", "EF"):
            got = ol.roundtrip_exact(bad, order)
            assert not got[0] and got == _fraction_roundtrip(bad, order), (p, order)


def test_roundtrip_exact_memory_stays_blocked(r1_rational):
    # the product terms are summed in blocks of about 2^16; a dict loop over
    # whole-matrix .tolist() copies peaked at 77 MB under tracemalloc on
    # rational R1, the blocks at about 23 MB
    import tracemalloc

    tracemalloc.start()
    try:
        got = ol.roundtrip_exact(r1_rational, "FE")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (True, None, 0)
    assert peak < 40e6, f"roundtrip_exact peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("name", ["mini", "r1", "r1b", "r1_companion",
                                  "mini_rational", "r1_doubled"])
def test_basis_spans_the_whole_truncation(name, request):
    # a basis is [0, xi_end]: F and E are square of size xi_end + 1, and
    # each gamma=auto stage (every stage of these schedules) is calibrated
    # once, in stage order: its C goes to the table, its gamma to the schedule
    if name == "r1_doubled":
        r1 = request.getfixturevalue("r1")
        b = ol.assemble(doubled_layoffs(r1.schedule), r1.families)
    else:
        b = request.getfixturevalue(name)
    size = b.schedule.xi_end + 1
    assert b.n_trunc == b.schedule.xi_end
    assert b.F_csc.shape == b.E_csc.shape == (size, size)
    auto = list(range(1, b.schedule.n_stages + 1))
    assert auto and list(b.frame_constants) == auto
    assert all(b.gamma(n) is not None for n in auto)


def test_float_assembly_refuses_weights_beyond_the_float_range():
    # R1 at xi_end = 6.4 M passes validate, but its tail gap
    # [139525, 6400000] needs 2^e with e up to 1251
    from dataclasses import replace

    sched, fams = reference_schedule()
    long = replace(sched, xi_end=6_400_000)
    assert ol.validate(long) == []
    with pytest.raises(ol.errors.ScheduleError,
                       match=r"lay-off interval \[139525, 6400000\] of stage 1"):
        ol.assemble(long, fams)
    # a 4.3 M truncation (e up to 1020) stays within the normal range
    shorter = replace(sched, xi_end=4_300_000)
    tail = geo.stage_table(shorter, 1)[-1]
    assert isinstance(tail.tag, geo.TailLayOff)
    assert 1019 < geo.max_abs_exponent(tail, shorter) < 1022


def test_roundtrip_exact_rejects_float_basis(mini):
    with pytest.raises(ValueError, match="roundtrip_max_error"):
        ol.roundtrip_exact(mini, "FE")


def test_descent_one_step(r1):
    # e_(c1 + a) = gamma f_(c1+a) + p_1(T) e_a with p_1 = 1
    d = ol.lattice_descent(r1, geo.LatticeCoord(1, (1, 0), 2))
    g = r1.gammas[0]
    assert d.residual_poly.coeffs == (1,)
    assert d.f_coords == pytest.approx({4098: g, 2: 1.0})


def test_descent_two_steps(r1):
    # e_(2 c1 + a) = 4 gamma f + gamma p_1(T) f_(c1+a) + p_1(T)^2 e_a
    d = ol.lattice_descent(r1, geo.LatticeCoord(1, (2, 0), 1))
    g = r1.gammas[0]
    expected = {2 * 4096 + 1: 4 * g, 4096 + 1: g, 1: 1.0}
    assert d.f_coords == pytest.approx(expected)
    ecol = r1.e_col(2 * 4096 + 1)
    assert set(ecol) == set(expected)
    for k, v in expected.items():
        assert ecol[k] == pytest.approx(v)


def test_descent_mixed_coordinate(r1):
    # top coordinate t=2 uses p_2 = zeta
    d = ol.lattice_descent(r1, geo.LatticeCoord(1, (1, 1), 0))
    col = r1.e_col(4096 + 65536)
    assert set(d.f_coords) == set(col)
    for k, v in d.f_coords.items():
        assert col[k] == pytest.approx(v, rel=1e-10)


def test_descent_equals_assembled_inverse_exhaustive(r1):
    st = r1.schedule.stage(1)
    for r1c in range(st.h + 1):
        for r2c in range(st.h + 1):
            if not (r1c or r2c):
                continue
            coord = geo.LatticeCoord(1, (r1c, r2c), 0)
            d = ol.lattice_descent(r1, coord)
            col = r1.e_col(ol.coord_to_index(coord, r1.schedule))
            keys = set(d.f_coords) | set(col)
            scale = max(abs(v) for v in col.values())
            for k in keys:
                assert abs(d.f_coords.get(k, 0) - col.get(k, 0)) <= 1e-10 * scale


def test_descent_exact_rational(mini_rational):
    st = mini_rational.schedule.stage(1)
    for r1c in range(st.h + 1):
        for r2c in range(st.h + 1):
            if not (r1c or r2c):
                continue
            for alpha in (0, 1, 5):
                coord = geo.LatticeCoord(1, (r1c, r2c), alpha)
                d = ol.lattice_descent(mini_rational, coord)
                col = mini_rational.e_col(
                    ol.coord_to_index(coord, mini_rational.schedule))
                assert d.f_coords == col


def test_descent_spill_case(r1):
    # alpha at the working-interval end pushes the zeta-term past the edge;
    # the expansion must still match the assembled inverse
    coord = geo.LatticeCoord(1, (0, 1), 260)
    d = ol.lattice_descent(r1, coord)
    col = r1.e_col(ol.coord_to_index(coord, r1.schedule))
    keys = set(d.f_coords) | set(col)
    scale = max(abs(v) for v in col.values())
    for k in keys:
        assert abs(d.f_coords.get(k, 0) - col.get(k, 0)) <= 1e-10 * scale


def test_descent_matches_triangular_solve(mini_rational):
    coord = geo.LatticeCoord(1, (1, 1), 3)
    m = ol.coord_to_index(coord, mini_rational.schedule)
    d = ol.lattice_descent(mini_rational, coord)
    oracle = solve_F(mini_rational, {m: Fraction(1)})
    assert d.f_coords == oracle


def test_structural_expansion_matches_inverse(mini, rng):
    for m in rng.integers(0, mini.n_trunc, size=120):
        got = expand_e_structural(mini, int(m))
        col = mini.e_col(int(m))
        keys = set(got) | set(col)
        scale = max(abs(v) for v in col.values())
        for k in keys:
            assert abs(got.get(k, 0) - col.get(k, 0)) <= 1e-9 * scale


def test_structural_expansion_checks_the_stored_layoff_weight(mini_rational):
    # lay-off column m is a lone pair: row m is stored only in column m of F
    # and of E.  Doubling its weight in F and halving it in E keeps both maps
    # exact inverses, so neither roundtrip sees it; the structural route
    # takes w_m from the schedule and must disagree with the stored E
    b0, m = mini_rational, 31_556
    assert geo.is_layoff(geo.classify(m, b0.schedule))
    for M in (b0.F_csc, b0.E_csc):
        assert np.count_nonzero(M.indices == m) == 1
    w = geo.layoff_weight(m, b0.schedule)
    assert b0.f_col(m) == {m: w} and b0.e_col(m) == {m: 1 / w}
    b = _with_entry(b0, "F", b0.F_csc.indptr[m], 2 * w)
    b = _with_entry(b, "E", b0.E_csc.indptr[m], 1 / (2 * w))
    for order in ("FE", "EF"):
        assert ol.roundtrip_exact(b, order) == (True, None, 0), order
    assert b.e_col(m) == {m: 1 / (2 * w)}
    assert expand_e_structural(b, m) == {m: 1 / w}


def test_solve_F_random_vectors(mini_rational, rng):
    # exact arithmetic: the float route hits 162^80 chain entries on stage 2
    for _ in range(20):
        m = int(rng.integers(0, mini_rational.n_trunc))
        rhs = {m: Fraction(1), max(0, m - 7): Fraction(1, 2)}
        x = solve_F(mini_rational, rhs)
        acc = {}
        for j, c in x.items():
            vec_add(acc, mini_rational.f_col(j), c)
        vec_add(acc, rhs, -1)
        assert vec_clean(acc) == {}


def test_vec_sub_sums_as_vec_add(rng):
    x = dict(enumerate(rng.standard_normal(30).tolist()))
    y = dict(zip(range(20, 45), rng.standard_normal(25).tolist()))
    x0 = dict(x)
    for factor in (-1, -2):
        want = dict(x)
        vec_add(want, y, factor)
        got = vec_sub(x, y, factor)
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
    assert x == x0
    assert set(vec_sub(x, y)) == set(range(45))  # keys only in y are kept
    fx = {0: Fraction(1, 3), 2: Fraction(5, 7)}
    fy = {2: Fraction(5, 7), 9: Fraction(1, 2 ** 60)}
    assert vec_sub(fx, fy) == {0: Fraction(1, 3), 2: 0, 9: -Fraction(1, 2 ** 60)}
    assert vec_sub(fx, fy, -2) == {0: Fraction(1, 3), 2: -Fraction(5, 7),
                                   9: -Fraction(2, 2 ** 60)}


def test_vec_project_keeps_nonzero_coordinates_in_range():
    x = {0: 1.0, 3: 0.0, 4: Fraction(0), 5: -2.0, 9: Fraction(4), 10: 1.0}
    assert vec_project(x, 3, 9) == {5: -2.0, 9: Fraction(4)}
    assert vec_project(x, 0, 0) == {0: 1.0}
    assert vec_project(x, 11, 20) == {}


def test_matrix_market_roundtrip(mini, tmp_path):
    from scipy import sparse
    from scipy.io import mmread

    path = tmp_path / "F.mtx"
    ol.export_matrix_market(path, mini.F_csc)
    back = sparse.csc_matrix(mmread(path))
    diff = (back - mini.F_csc).tocoo()
    assert diff.nnz == 0 or float(np.max(np.abs(diff.data))) <= 1e-12


def test_calibrate_gamma_formula():
    sched, fams = reference_schedule()
    b = ol.assemble(sched, fams)
    assert b.gamma(1) == pytest.approx(0.25 / b.frame_constants[1])
    assert b.gamma(1) <= 2.0 ** -2  # the porosity cap 2^{-n-1}
    # halving delta halves gamma (linearity)
    from dataclasses import replace
    sched2 = replace(sched, stages=(replace(sched.stages[0], delta=0.125),))
    assert ol.assemble(sched2, fams).gamma(1) == pytest.approx(b.gamma(1) / 2)


def test_calibration_identity_frame():
    # on an identity frame block the measured constant is 1, so gamma = delta
    from scipy import sparse

    from orbitlab.basis import measure_frame_constant
    F = sparse.identity(6, format="csc")
    assert measure_frame_constant(F, 5) == pytest.approx(1.0)


def test_mini_cfg_frame_constant_is_exact():
    # gamma_2 = delta_2 / C keeps the fan residual map within delta_2 only if
    # C is the true largest singular value of the stage-2 frame block
    from pathlib import Path

    from scipy.sparse.linalg import svds

    cfg = Path(__file__).resolve().parents[1] / "configs" / "mini.cfg"
    b = ol.assemble(*ol.load_config(cfg))
    st = b.schedule.stage(2)
    block = b.F_csc[: st.nu + 1, : st.nu + 1]
    c_ref = float(svds(block, k=1, return_singular_vectors=False, rng=0)[0])
    assert b.frame_constants[2] == pytest.approx(c_ref, rel=1e-10)
    assert float(b.gamma(2)) * c_ref <= st.delta * (1 + 1e-12)


def test_build_f_missing_family_member():
    sched, fams = mini_schedule()
    with pytest.raises(ol.errors.ScheduleError):
        ol.assemble(sched, ((fams[0][0],), fams[1]))  # stage 1 needs 2 members


def _region_rule_f(b, j):
    """f_j from the region rules of the basis module docstring."""
    exact = b.mode == ol.RATIONAL
    one = Fraction(1) if exact else 1.0
    tag = geo.classify(j, b.schedule)
    if isinstance(tag, geo.Seed):
        return {j: one}
    if geo.is_layoff(tag):
        return {j: geo.layoff_weight(j, b.schedule)}
    st = b.schedule.stage(tag.n)
    if isinstance(tag, geo.BWorking):
        return {j: one, j - st.b: -st.b * one}
    t = tag.coord.t
    g = Fraction(b.gamma(tag.n)) if exact else b.gamma(tag.n)
    scale = one / g * (4 * one) ** (1 - tag.coord.abs_r)
    col = {j: scale}
    for u, a in enumerate(b.families[tag.n - 1][t - 1].coeffs):
        if a != 0:
            col[j - st.c[t - 1] + u] = -scale * a
    return col


@pytest.mark.parametrize("which", ["mini", "mini_rational", "r1"])
def test_stored_maps_follow_region_rules(which, request):
    b = request.getfixturevalue(which)
    size = b.n_trunc + 1
    for M in (b.F_csc, b.E_csc):
        assert M.shape == (size, size)
        assert M.dtype == np.float64
        assert M.has_sorted_indices
    if b.mode == ol.RATIONAL:
        # exact (num, den) pairs beside the float data, one per stored entry,
        # in lowest terms with a positive denominator
        for M, (num, den) in ((b.F_csc, b._F_exact), (b.E_csc, b._E_exact)):
            assert num.dtype == den.dtype == object
            assert len(num) == len(den) == M.nnz
            assert all(type(x) is int and type(y) is int and y > 0
                       and math.gcd(x, y) == 1 for x, y in zip(num, den))
            # the float data are num / den, bit for bit
            assert M.data.tobytes() == np.array(
                [x / y for x, y in zip(num, den)], dtype=float).tobytes()
    else:  # the float data are the scalars
        assert b._F_exact is None and b._E_exact is None
    if which == "r1":
        assert b.f_col(65) == {65: 1.0, 1: -64.0}
        assert b.e_col(65) == {65: 1.0, 1: 64.0}
        assert b.f_col(5) == {5: geo.layoff_weight(5, b.schedule)} == {5: 16.0}
    # the dict-column sequences agree with the stored arrays
    for cols, M, col in ((b.F_cols, b.F_csc, b.f_col), (b.E_cols, b.E_csc, b.e_col)):
        lengths = np.diff(M.indptr)
        for j, c in enumerate(cols):
            assert len(c) == lengths[j]
            if j % 997 == 0 or len(c) > 1 and j % 13 == 0:
                assert c == col(j)
        assert j == b.n_trunc
    ends = {j for n in range(1, b.schedule.n_stages + 1)
            for iv in geo.stage_table(b.schedule, n) for j in (iv.lo, iv.hi)}
    sample = sorted(j for j in ends | set(range(0, size, 997)) if j < size)
    for j in sample:
        assert b.f_col(j) == _region_rule_f(b, j), j
        # e_j = f_j / f_jj + (the rest of f_j) / (-f_jj), expanded column by column
        f = b.f_col(j)
        want = {j: 1 / f[j]}
        for i in sorted(f):
            if i != j:
                vec_add(want, b.e_col(i), -f[i] / f[j])
        got, want = b.e_col(j), vec_clean(want)
        if b.mode == ol.RATIONAL:
            assert got == want, j
        assert set(got) == set(want)
        for k, v in got.items():
            assert v == pytest.approx(want[k], rel=1e-12)


def test_layoff_pairs_are_the_dyadic_weights(mini_rational):
    # every lay-off column stores the pair of its 40-bit dyadic weight in F
    # and the swapped pair in E
    b = mini_rational
    for n in range(1, b.schedule.n_stages + 1):
        for iv in geo.stage_table(b.schedule, n):
            if not geo.is_layoff(iv.tag) or iv.lo > b.n_trunc:
                continue
            hi = min(iv.hi, b.n_trunc)
            pairs = geo.interval_weight_pairs(iv, b.schedule, iv.lo, hi)
            want = [(w.numerator, w.denominator) for w in map(Fraction, *pairs)]
            assert list(zip(*pairs)) == want
            for (M, (num, den)), swap in (((b.F_csc, b._F_exact), False),
                                          ((b.E_csc, b._E_exact), True)):
                p = M.indptr[iv.lo:hi + 1]
                got = list(zip(num[p].tolist(), den[p].tolist()))
                assert got == ([w[::-1] for w in want] if swap else want), iv


def test_e_col_equals_solve_F_rational_mini(mini_rational):
    # the assembled inverse against the back-substitution oracle, exactly
    b = mini_rational
    for m in range(b.n_trunc + 1):
        assert b.e_col(m) == solve_F(b, {m: Fraction(1)}), m


def test_e_col_equals_solve_F_rational_r1_sampled(r1_rational):
    b = r1_rational
    sizes = np.diff(b.E_csc.indptr)
    sample = set(range(0, b.n_trunc + 1, 97)) | set(np.flatnonzero(sizes > 2).tolist())
    for m in sorted(sample):
        assert b.e_col(m) == solve_F(b, {m: Fraction(1)}), m


def test_sum_in_order_on_repeated_keys():
    # assembly of the shipped schedules never puts two gathered entries on
    # one (owner, row), and roundtrip_exact sums only groups of two there, so
    # the summing loops are checked here on larger repeated keys, with sums
    # that cancel to zero and denominators that differ
    from orbitlab.basis import _sum_in_order

    rng = np.random.default_rng(7)
    n = 400
    owner = rng.integers(0, 5, n)
    rows = rng.integers(0, 8, n)
    fr = [Fraction(int(a), 2 ** int(k) * int(c)) for a, k, c in
          zip(rng.integers(-6, 7, n), rng.integers(0, 50, n), rng.choice([1, 3, 5], n))]
    fr[:2] = Fraction(3, 2 ** 40), Fraction(-3, 2 ** 40)
    owner[:2], rows[:2] = 5, 0  # a key of its own, summing to zero
    want = {}
    for o, r, v in zip(owner.tolist(), rows.tolist(), fr):
        want[o, r] = want.get((o, r), 0) + v
    want = {k: v for k, v in sorted(want.items()) if v != 0}

    pairs = tuple(np.array(x, dtype=object)
                  for x in zip(*((v.numerator, v.denominator) for v in fr)))
    o, r, (num, den) = _sum_in_order(owner, rows, pairs, 8)
    assert (5, 0) not in want and len(want) > 30
    assert list(zip(o.tolist(), r.tolist())) == list(want)
    assert [Fraction(x, y) for x, y in zip(num, den)] == list(want.values())
    assert all(y > 0 and math.gcd(x, y) == 1 for x, y in zip(num, den))

    data = np.array([float(v) for v in fr])
    got = {}
    for k, v in zip(zip(owner.tolist(), rows.tolist()), data.tolist()):
        got[k] = got.get(k, 0) + v  # left to right, as vec_add
    got = {k: v for k, v in sorted(got.items()) if v != 0}
    o, r, (acc,) = _sum_in_order(owner, rows, (data,), 8)
    assert list(zip(o.tolist(), r.tolist())) == list(got)
    assert acc.tolist() == list(got.values())

    # a lone term passes through as given, unreduced (the roundtrip's
    # diagonal products), and a lone zero is dropped; a pair that cancels is
    # dropped, and one that survives is reduced
    terms = [(0, 0, 6, 4), (0, 1, 0, 5), (1, 0, 3, 8), (1, 0, -6, 16),
             (1, 2, 1, 6), (1, 2, 1, 3), (2, 0, -10, 15)]
    o, r, n, d = (np.array(c, dtype=object if k > 1 else np.int64)
                  for k, c in enumerate(zip(*terms)))
    o, r, (num, den) = _sum_in_order(o, r, (n, d), 3)
    assert list(zip(o.tolist(), r.tolist(), num.tolist(), den.tolist())) == [
        (0, 0, 6, 4), (1, 2, 1, 2), (2, 0, -10, 15)]


def test_scaled_pairs_are_reduced_products():
    # seeded lowest-terms pairs (negative numerators, den = 1, factors of 2,
    # 3, 5 and 7 shared with the factors) times scalar pairs, against
    # Fraction products: the same lowest-terms pairs with den > 0
    from orbitlab.basis import _scaled_pairs

    rng = np.random.default_rng(11)
    n = 300
    fr = [Fraction(int(a) * 3 ** int(i), int(c) * 2 ** int(k)) for a, i, c, k in
          zip(rng.integers(-40, 41, n), rng.integers(0, 4, n),
              rng.choice([1, 5, 7, 35, 9], n), rng.integers(0, 70, n))]
    fr[:3] = Fraction(-5), Fraction(7), Fraction(1)
    assert any(v < 0 for v in fr) and sum(v.denominator == 1 for v in fr) > 3
    num, den = (np.array(x, dtype=object)
                for x in zip(*((v.numerator, v.denominator) for v in fr)))
    for f in (Fraction(1), Fraction(-1), Fraction(7), Fraction(178), Fraction(1, 6),
              Fraction(-12, 35), Fraction(3, 2 ** 50), Fraction(-45, 14)):
        got_num, got_den = _scaled_pairs(num, den, f.numerator, f.denominator)
        want = [v * f for v in fr]
        assert list(zip(got_num.tolist(), got_den.tolist())) == \
            [(w.numerator, w.denominator) for w in want], f


def _assert_same_vector(got, want):
    """The same dict, in the same key order, with the same value types."""
    assert got == want
    assert list(got) == list(want)
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


def test_frame_conversion_matches_the_term_loop_on_a_fan_sample(mini_rational, rng,
                                                                 monkeypatch):
    # both conversions of one exact stage-2 fan_residual sample, where the
    # e_to_f input's head chains cancel in groups of up to about a thousand
    # terms, against the per-term Fraction loop
    from orbitlab import hypercyclic as hyp
    from orbitlab.basis import BasisMap

    seen = []
    for name in ("f_to_e", "e_to_f"):
        def spy(self, v, _convert=getattr(BasisMap, name), _name=name):
            seen.append((_name, v, _convert(self, v)))
            return seen[-1][2]
        monkeypatch.setattr(BasisMap, name, spy)
    st = mini_rational.schedule.stage(2)
    x = dict(enumerate(map(Fraction, rng.standard_normal(st.nu + 1).tolist())))
    assert hyp.fan_residual(mini_rational, x, 2, 1) / vec_norm(x) <= st.delta
    assert [name for name, *_ in seen] == ["f_to_e", "e_to_f"]
    for name, v, got in seen:
        col = mini_rational.f_col if name == "f_to_e" else mini_rational.e_col
        _assert_same_vector(got, combine_by_terms(col, v))


@pytest.mark.parametrize("name", ["mini", "mini_rational"])
def test_frame_conversion_matches_the_term_loop_on_random_vectors(name, request):
    # seeded all-exact vectors (ints, Fractions and zeros of both, on
    # overlapping columns) and all-float vectors, and one-column vectors of
    # each kind, both directions
    b = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    for trial in range(6):
        support = rng.choice(b.n_trunc + 1, 400, replace=False).tolist()
        support += list(range(15800, 15900))  # working columns sharing rows
        if trial % 2:
            vals = rng.standard_normal(len(support)).tolist()
            vals[::17] = [0.0] * len(vals[::17])
        else:
            vals = [Fraction(int(a), int(d)) if k % 3 else int(a) for k, (a, d) in
                    enumerate(zip(rng.integers(-9, 10, len(support)),
                                  rng.choice([1, 3, 2 ** 45, 7 * 2 ** 9], len(support))))]
        x = dict(zip(support, vals))
        assert any(v == 0 for v in vals)
        one = {15850: vals[-1] or 1}  # one column, which needs no sums
        for convert, col in ((b.f_to_e, b.f_col), (b.e_to_f, b.e_col)):
            for v in (x, one):
                _assert_same_vector(convert(v), combine_by_terms(col, v))


@pytest.mark.parametrize("name", ["mini_rational", "r1_rational", "mini_rational_twin"])
def test_rational_float_data_are_the_divided_pairs(name, request):
    # the float data of a rational basis, lay-off images included, bit for
    # bit num / den, or +-inf beyond the float range, which the doubled-gap
    # twin of mini holds
    from orbitlab.basis import _float_or_inf

    if name == "mini_rational_twin":
        b0 = request.getfixturevalue("mini_rational")
        b = ol.assemble(doubled_layoffs(b0.schedule), b0.families)
    else:
        b = request.getfixturevalue(name)
    for M, (num, den) in ((b.F_csc, b._F_exact), (b.E_csc, b._E_exact)):
        want = np.frompyfunc(_float_or_inf, 2, 1)(num, den).astype(float)
        assert M.data.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert np.isinf(b.E_csc.data).any() == (name == "mini_rational_twin")


def test_float_images_past_an_overflow_go_pair_by_pair_per_block(monkeypatch):
    # one pair beyond the float range sends only its block of _IMAGE_BLOCK
    # pairs through _float_or_inf; every image is still num / den or +-inf
    from orbitlab import basis

    rng = np.random.default_rng(5)
    n = 5 * basis._IMAGE_BLOCK + 17
    num = np.array([int(v) * 2 ** 1000 for v in rng.integers(-10 ** 6, 10 ** 6, n)],
                   dtype=object)
    den = np.array([int(v) * 2 ** 990 for v in rng.integers(1, 10 ** 6, n)], dtype=object)
    num[3 * basis._IMAGE_BLOCK + 5] = -(10 ** 700)
    want = np.array([basis._float_or_inf(a, d) for a, d in zip(num, den)])
    assert np.isinf(want).sum() == 1
    calls = []
    one_pair = basis._float_or_inf
    monkeypatch.setattr(basis, "_float_or_inf",
                        lambda a, d: calls.append(1) or one_pair(a, d))
    got = basis._float_images(num, den)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert 0 < len(calls) <= basis._IMAGE_BLOCK


def test_layoff_images_are_exact_where_normal():
    # weights mant * 2^s with 41-bit mantissas around both ends of the
    # normal range: each image is num / den bit for bit where that is a
    # normal float, and NaN (left to the division) where it is subnormal or
    # beyond the range
    from orbitlab.basis import _float_or_inf, _layoff_images

    rng = np.random.default_rng(3)
    mant = rng.integers(1, 2 ** 41, 400)
    mant[:3] = 1, 2 ** 40, 2 ** 41 - 1
    s = np.concatenate([rng.integers(-1120, -1000, 200), rng.integers(960, 1030, 200)])
    num, den = geo.dyadic_pairs(mant, s)
    for images, pairs in zip(_layoff_images(mant, s), ((num, den), (den, num))):
        want = np.frompyfunc(_float_or_inf, 2, 1)(*pairs).astype(float)
        normal = (want >= np.finfo(float).tiny) & (want < np.inf)
        assert normal.any() and not normal.all()
        assert images[normal].tolist() == want[normal].tolist()
        assert np.isnan(images[~normal]).all()


def test_rational_basis_memory_stays_pairs():
    # exact values held as Fraction objects, one per stored entry, kept
    # 36.3 MB of the rational mini basis alive; the (num, den) int arrays
    # take about 23.7 MB
    import tracemalloc

    sched, fams = mini_schedule(weight_mode=ol.RATIONAL)
    tracemalloc.start()
    try:
        b = ol.assemble(sched, fams)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert b.n_trunc > 0
    assert retained < 28e6, f"retained rational basis {retained / 1e6:.1f} MB"


def test_assembly_memory_stays_columnar():
    # R1 (n = 400 001) held 230 MB of dict columns under tracemalloc; its CSC
    # arrays take about 12 MB
    import tracemalloc

    sched, fams = reference_schedule()
    tracemalloc.start()
    try:
        ol.assemble(sched, fams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, f"assembly peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("which", ["mini", "mini_rational"])
def test_column_norms_match_vec_norm(which, request):
    # every E column of mini, float and rational, bit for bit
    b = request.getfixturevalue(which)
    want = [vec_norm(b.e_col(u)).hex() for u in range(b.n_trunc + 1)]
    assert [x.hex() for x in column_norms(b.E_csc, 0, b.n_trunc + 1).tolist()] == want
    assert [x.hex() for x in column_norms(b.E_csc, 77, 900).tolist()] == want[77:900]
    assert len(column_norms(b.E_csc, 5, 5)) == 0
    # and the e-frame norm of a combination of columns
    for a in ({0: 1, 5: 3, 40: -2, 900: 1}, {u: 0.5 for u in range(17, 300)},
              {b.n_trunc: 1, 2: Fraction(1, 3)}):
        assert b.e_norm(a).hex() == vec_norm(b.e_to_f(a)).hex()


def test_column_norms_rescaled_complex_and_empty_columns(rng):
    # seeded columns of mixed lengths (some empty), real and complex, with
    # maxima far outside [1e-150, 1e150] and all-zero columns
    from scipy import sparse

    lens = rng.integers(0, 40, 300)
    lens[:3] = 0
    scales = 10.0 ** rng.choice([-300, -200, -150, 0, 150, 200, 300], len(lens))
    for field in (float, complex):
        vals = rng.standard_normal(lens.sum())
        if field is complex:
            vals = vals + 1j * rng.standard_normal(lens.sum())
        vals *= np.repeat(scales, lens)
        vals[np.repeat(np.arange(len(lens)) == 7, lens)] = 0
        indptr = np.concatenate([[0], np.cumsum(lens)])
        indices = np.concatenate([np.arange(k) for k in lens])
        M = sparse.csc_matrix((vals, indices, indptr), shape=(40, len(lens)))
        want = [vec_norm(dict(enumerate(vals[indptr[u]:indptr[u + 1]].tolist()))).hex()
                for u in range(len(lens))]
        assert [x.hex() for x in column_norms(M, 0, len(lens)).tolist()] == want



def test_vec_norm_sums_left_to_right():
    # the squares 1e16, 1, 1, 1, 1 add up to 1e16 left to right: each 1 is
    # half an ulp of 1e16 and rounds away.  A compensated sum, as the
    # built-in sum of floats is from Python 3.12 on, keeps the 4 and gives
    # sqrt(1e16 + 4) = 100000000.00000001.
    from scipy import sparse

    from orbitlab.polynet import left_sum

    x = [1e8, 1.0, 1.0, 1.0, 1.0]
    assert left_sum([v * v for v in x]) == 1e16
    assert vec_norm(dict(enumerate(x))) == 1e8
    assert column_norms(sparse.csc_matrix(np.array([x]).T), 0, 1).tolist() == [1e8]
    assert left_sum([]) == 0 and left_sum([Fraction(1, 3)] * 3) == 1

# -- assembly pins and the working-block step -----------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ("thm1.cfg", "orbit_reflexive.cfg", "mini.cfg", "mini_reflexive.cfg",
           "mini_rational.cfg")

# float gammas frozen at calibrated values, so that the float pins below do
# not depend on the BLAS build (calibration reads a singular value)
R1_GAMMAS = ("0x1.f99465fcd4f72p-9",)
R1_TWIN_GAMMAS = ("0x1.068a835ebe931p-9",)
MINI_GAMMAS = ("0x1.0e34a7b312931p-5", "0x1.60d41e5d3addep-11")


def _frozen(schedule, gammas):
    return schedule.with_gammas([float.fromhex(g) for g in gammas])


def _digest(M, exact) -> str:
    """sha256 of a stored matrix: indptr, indices and data, then in rational
    mode its num and den arrays as decimal text."""
    h = hashlib.sha256()
    for a in (M.indptr, M.indices):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(M.data).tobytes())
    for a in exact or ():
        h.update(",".join(map(str, a.tolist())).encode())
    return h.hexdigest()


def _r1_frozen():
    sched, fams = reference_schedule()
    return ol.assemble(_frozen(sched, R1_GAMMAS), fams)


def _r1_twin_frozen():
    sched, fams = reference_schedule()
    return ol.assemble(_frozen(doubled_layoffs(sched), R1_TWIN_GAMMAS), fams)


@pytest.fixture(scope="module")
def mini_rational_twin(mini_rational):
    """The doubled-gap twin `verify --suite boundedness` assembles on the
    rational mini build: 6 804 of its E images are +-inf."""
    return ol.assemble(doubled_layoffs(mini_rational.schedule), mini_rational.families)


# (F, E) digests of the assembled maps
ASSEMBLY_DIGESTS = {
    "r1": ("5048e815ac9f6201aa527e949d938f7fe52c71ac506f2977bc46e3c44b099e71",
           "389ccefc26621921221cfb40e3892262360e0d019ca74c444e378dca348afab2"),
    "r1_twin": ("83dbe118c552208e3b6144434fca8ed7027d43c01697ef5284e5dfa1bc00b504",
                "5f544cf20c7e930947e5da625dfafeb14d4cacc32613d1bf8c9d9a9bd4f33c99"),
    "mini_rational": ("86c58b66bb9650ec634f34a32bcdfaccdbcd7ec47af3262bacb3641ddec310cd",
                      "d14ecb526d75ec8bcb87b9f29710efeea01d4e39ddba4441727fd9cd906eea95"),
    "mini_rational_twin": ("3cde9f32af8998a1058b4d022f18602a4d7051ee62ffa85997fb96be1b9ac0f6",
                           "74ebd68b4d4eee59a282390fb7437bc66953c90261dce4ece709d4b8f8e4205f"),
    "r1_rational": ("abb709dd66bd049e90b0a14448f6d253e0f59684cec6aab8a4a1934b4697c5e1",
                    "d869fb3910fe2927417542b9f14fa9e4729f76955fabd8595a0a1975662c023f"),
}


@pytest.mark.parametrize("name", sorted(ASSEMBLY_DIGESTS))
def test_assembled_maps_are_pinned(name, request):
    builders = {"r1": _r1_frozen, "r1_twin": _r1_twin_frozen}
    b = builders[name]() if name in builders else request.getfixturevalue(name)
    assert (_digest(b.F_csc, b._F_exact), _digest(b.E_csc, b._E_exact)) == \
        ASSEMBLY_DIGESTS[name]


def _two_term_fan(tmp_path, mode):
    """mini.cfg with the stage-2 fan `2 -1` (2 - zeta) in weight mode `mode`:
    the one schedule here whose assembly sums gathered entries."""
    text = (CONFIGS / "mini.cfg").read_text()
    assert text.count("fan = 1\n") == 1  # stage 2's line
    path = tmp_path / f"two_term_{mode}.cfg"
    path.write_text(text.replace("fan = 1\n", "fan = 2 -1\n")
                    .replace("weight_mode = float", f"weight_mode = {mode}"))
    return ol.load_config(path)


# E digests of the two-term schedule: float with MINI_GAMMAS, rational at
# gamma = auto
TWO_TERM_E = {
    ol.FLOAT: "b2169202c6bf2c109211ac2b8c3ddf219edd4c3ef21b39809ab1d65aaf8057a3",
    ol.RATIONAL: "42703f4c0bb7dc455d9fe0e519a72b35b2d3a5a3a0f92ec489d341c5ab824a10",
}


@pytest.mark.parametrize("mode", [ol.FLOAT, ol.RATIONAL])
def test_two_term_fan_assembly(mode, tmp_path):
    sched, fams = _two_term_fan(tmp_path, mode)
    if mode == ol.FLOAT:
        sched = _frozen(sched, MINI_GAMMAS)
    b = ol.assemble(sched, fams)
    assert b.E_csc.nnz == 430_124
    assert _digest(b.E_csc, b._E_exact) == TWO_TERM_E[mode]
    for m in range(b.n_trunc + 1):
        got, col = expand_e_structural(b, m), b.e_col(m)
        if mode == ol.RATIONAL:
            assert got == col, m
            continue
        # the structural route leaves rounding residues (|v| ~ 1e-16 scale)
        # where E cancels exactly
        scale = max(abs(v) for v in col.values())
        for k in set(got) | set(col):
            assert abs(got.get(k, 0) - col.get(k, 0)) <= 1e-12 * scale, (m, k)


def test_sum_in_order_runs_only_for_multi_term_blocks(monkeypatch, tmp_path):
    # every shipped working polynomial is a monomial, whose blocks drop zeros
    # without the sort; a two-term fan is summed once per block of columns
    from orbitlab import basis

    calls = []
    summed = basis._sum_in_order
    monkeypatch.setattr(basis, "_sum_in_order", lambda *a: calls.append(1) or summed(*a))
    for name in SHIPPED:
        ol.assemble(*ol.load_config(CONFIGS / name))
        assert not calls, name

    sched, fams = _two_term_fan(tmp_path, ol.FLOAT)
    ol.assemble(_frozen(sched, MINI_GAMMAS), fams)
    blocks = 0
    for n, st in enumerate(sched.stages, start=1):
        for iv in geo.stage_table(sched, n):
            if isinstance(iv.tag, geo.CWorking):
                t = iv.tag.coord.t
                p = fams[n - 1][t - 1]
                if sum(a != 0 for a in p.coeffs) > 1:
                    blocks += -(-(iv.hi - iv.lo + 1) // (st.c[t - 1] - p.degree))
    assert blocks > 0 and len(calls) == blocks


@pytest.mark.parametrize("dtype", [float, complex, object])
def test_append_working_block_step(dtype):
    # synthetic gathers into the columns 3, 4, 5 and 6 of a small matrix
    from orbitlab.basis import _Columns

    def values(xs):
        if dtype is object:
            xs = list(map(Fraction, xs))
            return (np.array([x.numerator for x in xs], dtype=object),
                    np.array([x.denominator for x in xs], dtype=object))
        return (np.array(xs, dtype=dtype),)

    def gathered(owner, rows, xs):
        return np.array(owner, dtype=np.int64), np.array(rows, dtype=np.int64), values(xs)

    diagonal = tuple(v[0] for v in values([Fraction(9, 2)]))
    C = _Columns(8, dtype)
    C.append(np.array([1, 1, 2]), np.array([0, 1, 0, 2]), values([1, 2, 3, 4]))
    # one gather: its exact zero (column 3, row 2) is dropped, and column 4
    # gathers nothing
    C.append_working(np.array([3, 4, 5]), [gathered([0, 0, 2], [0, 2, 1], [5, 0, 7])],
                     diagonal, 8)
    # an empty block appends nothing
    C.append_working(np.arange(0), [gathered([], [], [])], diagonal, 8)
    # two gathers, summed per row: row 0 cancels, row 1 sums
    C.append_working(np.array([6]), [gathered([0, 0], [0, 1], [1, 2]),
                                      gathered([0, 0], [0, 1], [-1, Fraction(1, 2)])],
                     diagonal, 8)
    M, exact = C.matrix(8)
    assert M.indptr.tolist() == [0, 1, 2, 4, 6, 7, 9, 11]
    assert M.indices.tolist() == [0, 1, 0, 2, 0, 3, 4, 1, 5, 1, 6]
    want = [1, 2, 3, 4, 5, 4.5, 4.5, 7, 4.5, 2.5, 4.5]
    if dtype is object:
        want = [(Fraction(x).numerator, Fraction(x).denominator) for x in want]
        assert list(zip(*(v.tolist() for v in exact))) == want
    else:
        assert M.data.tolist() == want
