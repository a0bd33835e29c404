import math
from fractions import Fraction

import numpy as np
import pytest

import orbitlab as ol
from orbitlab import geometry as geo
from orbitlab import hypercyclic as hyp
from orbitlab.errors import PreconditionError, SupportError, TruncationError
from orbitlab.polynet import ONE, ZETA, Poly


def test_calibration_bound_is_delta(r1):
    # gamma = delta / C makes the residual operator norm exactly delta
    assert hyp.fan_residual_bound(r1, 1) == pytest.approx(0.25, rel=1e-12)


def test_fan_residual_norm_equals_calibrated_bound(r1):
    # the residual map sends e_j to gamma f_(c_k + j): its norm is gamma * C
    for k in (1, 2):
        assert hyp.fan_residual_norm(r1, 1, k) == pytest.approx(
            hyp.fan_residual_bound(r1, 1), rel=1e-12)


def test_fan_opbound_fails_on_underreported_frame_constant(monkeypatch):
    # gamma = delta / C from a C 1e-3 too small: the calibration record
    # agrees with itself, the measured residual norm does not
    from orbitlab import basis as basis_mod
    from orbitlab.profiles import mini_schedule

    measure = basis_mod.measure_frame_constant
    monkeypatch.setattr(basis_mod, "measure_frame_constant",
                        lambda *a: measure(*a) * (1 - 1e-3))
    b = ol.assemble(*mini_schedule())
    for n in (1, 2):
        row = hyp.fan_entries(b, n, np.random.default_rng(0))[0]
        assert row.claim_id == f"fan.opbound.stage{n}"
        assert row.status == ol.FAIL
        assert row.measured == pytest.approx(row.bound / (1 - 1e-3), rel=1e-9)


def test_fan_residual_unit_vector(r1):
    # T^(c_1) e_0 - p_1(T) e_0 = gamma f_(c_1): the residual is exactly gamma
    g = float(r1.gammas[0])
    assert hyp.fan_residual(r1, {0: 1.0}, 1, 1) == pytest.approx(g, rel=1e-12)
    assert hyp.fan_residual(r1, {0: 1.0}, 1, 2) == pytest.approx(g, rel=1e-12)


def test_fan_sampling_is_exact_in_rational_mode(mini_rational, rng,
                                                monkeypatch):
    # Fraction(float) is exact, so rational mode samples the float draws
    # without leaving exact arithmetic
    seen = []
    residual = hyp.fan_residual

    def recording(basis, x_f, n, k):
        seen.append(x_f)
        return residual(basis, x_f, n, k)

    monkeypatch.setattr(hyp, "fan_residual", recording)
    rows = hyp.fan_entries(mini_rational, 1, rng)
    assert len(seen) == hyp.FAN_SAMPLES * mini_rational.schedule.stage(1).k
    assert all(type(v) is Fraction for x in seen for v in x.values())
    assert rows[1].claim_id == "fan.sampled.stage1"
    assert rows[1].status == ol.PASS


def test_exact_stage2_fan_sample_below_delta(mini_rational, rng):
    # mini's stage-2 head chains pass 2^50, where float sampling is skipped;
    # the exact route carries their cancellation
    from orbitlab.basis import vec_norm
    st = mini_rational.schedule.stage(2)
    x = dict(enumerate(map(Fraction, rng.standard_normal(st.nu + 1).tolist())))
    for k in range(1, st.k + 1):
        assert hyp.fan_residual(mini_rational, x, 2, k) / vec_norm(x) <= st.delta


def test_fan_residual_zero_and_support(r1):
    assert hyp.fan_residual(r1, {}, 1, 1) == 0.0
    with pytest.raises(SupportError):
        hyp.fan_residual(r1, {261: 1.0}, 1, 1)


def test_fan_residual_random_below_delta(r1, rng):
    st = r1.schedule.stage(1)
    for _ in range(25):
        x = {j: float(v) for j, v in enumerate(rng.standard_normal(st.nu + 1))}
        nx = math.sqrt(sum(v * v for v in x.values()))
        for k in (1, 2):
            assert hyp.fan_residual(r1, x, 1, k) <= 0.25 * nx * (1 + 1e-9)


def test_b_identity_head_basis(r1):
    # (T^b/b - I) T e_j = f_(j+b+1)/b for j < xi: norm exactly 1/b
    _, per_vec = hyp.b_identity_constant(r1, 1)
    assert len(per_vec) == r1.schedule.stage(1).xi + 1
    for j in range(4):
        assert per_vec[j] == pytest.approx(1 / 64, rel=1e-12)


def test_b_identity_top_vector(r1):
    # j = xi: the image leaves the difference pattern; two small weighted terms
    lam69 = geo.layoff_weight(69, r1.schedule)
    lam5 = geo.layoff_weight(5, r1.schedule)
    expected = math.hypot(1 / (64 * lam69), 1 / lam5)
    _, per_vec = hyp.b_identity_constant(r1, 1)
    assert per_vec[4] == pytest.approx(expected, rel=1e-9)


def test_b_identity_constant(r1):
    C, per_vec = hyp.b_identity_constant(r1, 1)
    assert max(per_vec) <= C / 64 * (1 + 1e-12)
    assert C == pytest.approx(4.0, rel=1e-3)


@pytest.mark.parametrize("name", ["r1", "mini_rational"])
def test_b_identity_constant_matches_dict_route(name, request):
    # column j of the residual map built one dict column at a time:
    # e_to_f of e_(j+1+b) / b - e_(j+1)
    from scipy import sparse
    from orbitlab.basis import vec_norm
    b = request.getfixturevalue(name)
    st = b.schedule.stage(1)
    cols = [b.e_to_f({j + 1 + st.b: 1 / st.b, j + 1: -1})
            for j in range(st.xi + 1)]
    M = sparse.csc_matrix(
        (np.array([v for f in cols for v in f.values()], dtype=b.F_csc.dtype),
         (np.array([i for f in cols for i in f], dtype=np.intp),
          np.repeat(np.arange(len(cols)), [len(f) for f in cols]))),
        shape=(b.n_trunc + 1, len(cols)))
    C, per_vec = hyp.b_identity_constant(b, 1)
    assert C.hex() == (st.b * ol.op_norm(M).value).hex()
    assert [v.hex() for v in per_vec] == [vec_norm(f).hex() for f in cols]


def test_shade_interior_exact_ratio(r1):
    sigma, ratios = hyp.shade_measurements(r1, 1)
    interior = [v for _, v, nnz in ratios if nnz == 1]
    assert interior
    for v in interior:
        assert v == pytest.approx(2.0 ** (1 / 8), rel=1e-9)
        assert v <= 2.0
    # below the b gate the aggregate carries the endpoint factor ~ b 2^(-sqrt b/2)
    assert sigma.value == pytest.approx(4.04, rel=0.05)


def test_shade_bcal_bound(r1b):
    sigma, ratios = hyp.shade_measurements(r1b, 1)
    assert sigma.value <= 2.5
    for _, v, nnz in ratios:
        if nnz == 1:
            assert v == pytest.approx(2.0 ** (1 / math.sqrt(512)), rel=1e-9)


@pytest.mark.parametrize("name, n", [("mini", 1), ("mini", 2),
                                     ("mini_rational", 2), ("r1b", 1),
                                     ("mini_complex", 2), ("mini_twin", 2),
                                     ("mini_rational_twin", 2)])
def test_shade_ratios_match_column_loop(name, n, request):
    # the column-by-column read of the formed power, kept as the reference
    # (in rational mode the exact power, each entry rounded once); the
    # doubled-gap twins of mini hold infinite entries in E
    from orbitlab import geometry as geo
    from orbitlab.operators import poly_image
    from orbitlab.profiles import doubled_layoffs, mini_schedule

    if name == "mini_complex":
        b = ol.assemble(*mini_schedule(field=ol.COMPLEX))
    elif name.endswith("_twin"):
        b0 = request.getfixturevalue(name.removesuffix("_twin"))
        b = ol.assemble(doubled_layoffs(b0.schedule), b0.families)
    else:
        b = request.getfixturevalue(name)
    st = b.schedule.stage(n)
    shift = st.b + 1
    P = poly_image(b, ((shift, 1),), b.f_columns())
    gap = np.zeros(st.nu + shift + 1, dtype=bool)
    for iv in geo.stage_table(b.schedule, n):
        if isinstance(iv.tag, geo.BLayOff):
            gap[iv.lo:iv.hi + 1] = True
    want = []
    for j in np.flatnonzero(gap[:-shift] & gap[shift:]).tolist():
        lo, hi = P.indptr[j], P.indptr[j + 1]
        at = np.flatnonzero(P.indices[lo:hi] == j + shift)
        want.append((j, P.data[lo + at[0]] if len(at) else 0.0, int(hi - lo)))
    _, got = hyp.shade_measurements(b, n)
    assert all(v.dtype == P.dtype for _, v, _ in got)
    assert [(j, float(v.real).hex(), float(v.imag).hex(), k) for j, v, k in got] == [
        (j, float(v.real).hex(), float(v.imag).hex(), k) for j, v, k in want]


def test_bfan_suite_forms_two_products_per_stage(mini, monkeypatch):
    # per stage, the damping identity's residual map and the shade norm's
    # non-pair columns; the interior shade ratios are read from the stored
    # diagonals, with no product of their own
    from orbitlab import operators as ops
    from orbitlab import suites

    calls = []
    poly_image = ops.poly_image

    def spy(basis, terms, X):
        calls.append(terms)
        return poly_image(basis, terms, X)

    monkeypatch.setattr(ops, "poly_image", spy)
    monkeypatch.setattr(hyp, "poly_image", spy)
    suites.run_suite(mini, "bfan", 0)
    assert len(calls) == 4


def test_shade_kills_outside_support(r1):
    # the estimate applies to the projection onto (xi, nu]: a vector
    # supported elsewhere projects to zero, so its shade image vanishes
    from orbitlab.operators import poly_image
    # the power on f-span of (xi, nu]
    P = poly_image(r1, ((65, 1),), r1.F_csc)[:, 5:261]
    x = np.zeros(r1.n_trunc + 1)
    x[300] = 1.0  # outside (xi, nu]
    assert np.count_nonzero(P @ x[5:261]) == 0
    x2 = np.zeros(r1.n_trunc + 1)
    x2[3] = 2.0
    assert np.count_nonzero(P @ x2[5:261]) == 0


def test_certify_e0(r1):
    cert = hyp.certify_hypercyclic_step(r1, {0: 1.0}, 1)
    assert cert.solver_poly == Poly((0.0, 1.0))
    assert cert.power in (4096, 65536)
    assert cert.damped_poly.degree == 65
    assert float(cert.damped_poly.ell1) == pytest.approx(1 / 64)
    assert cert.final_residual == pytest.approx(math.sqrt(2 + float(r1.gammas[0]) ** 2),
                                                rel=1e-9)
    assert cert.final_residual <= cert.composed_bound
    assert cert.tolerance == 1e-9
    assert cert.verify() == []


def test_certify_exact_mode(r1_rational):
    cert = hyp.certify_hypercyclic_step(r1_rational, {0: 1}, 1)
    assert cert.final_residual == cert.recomputed_final  # bitwise equal
    assert cert.tolerance == 0.0
    assert cert.verify() == []


def test_hypercyclic_suite_reads_the_certificate_tolerance(mini_rational):
    # the honesty row and Certificate.verify share one tolerance: 0 when exact
    from orbitlab import suites
    rep = ol.VerificationReport()
    cert = suites.hypercyclic(mini_rational, rep, 0)
    row, = (e for e in rep.entries if e.claim_id == "certificate.honesty")
    assert row.bound == 0.0 and row.status == ol.PASS
    assert cert.verify() == []


def test_certify_refusals(r1):
    with pytest.raises(PreconditionError):
        hyp.certify_hypercyclic_step(r1, {}, 1)
    with pytest.raises(PreconditionError):
        hyp.certify_hypercyclic_step(r1, {1: 1.0}, 1)  # zero head coordinate


def test_certify_threshold_boundary(r1):
    # 2^-1 = 0.5 is the default stage-1 threshold
    with pytest.raises(PreconditionError):
        hyp.certify_hypercyclic_step(r1, {0: 0.4, 1: 1.0}, 1)
    cert = hyp.certify_hypercyclic_step(r1, {0: 0.6, 1: 1.0}, 1)
    assert cert.precondition_value == pytest.approx(0.6)


def test_certify_general_vector_with_tail(r1):
    x = {0: 1.0, 3: -0.5, 300: 0.25}
    cert = hyp.certify_hypercyclic_step(r1, x, 1)
    assert cert.final_residual <= cert.composed_bound * (1 + 1e-9)
    steps = {s.name: s for s in cert.steps}
    assert steps["tail"].measured > 0
    assert len(cert.steps) == 7
    assert cert.composed_bound == sum(s.bound for s in cert.steps)


def test_tail_past_truncation_raises(r1):
    # the tail at 399 990 leaves [0, 400 000] under either fan power
    x = {0: 1.0, 3: -0.5, 399_990: 0.25}
    with pytest.raises(TruncationError, match="tail"):
        hyp.certify_hypercyclic_step(r1, x, 1)
    with pytest.raises(TruncationError, match="tail"):
        ol.compare_orbits(r1, x, {1: 1.0}, 1)


def test_certify_companion_profile_is_tight(r1_companion):
    # with p_1 = zeta, T^(c_1) e_0 = gamma f_(c_1) + e_1: the fan power lands
    # on the target up to gamma
    cert = hyp.certify_hypercyclic_step(r1_companion, {0: 1.0}, 1)
    assert cert.k == 1
    assert cert.final_residual == pytest.approx(float(r1_companion.gammas[0]),
                                                rel=1e-9)
    assert cert.verify() == []


def test_certificate_serialization(r1):
    cert = hyp.certify_hypercyclic_step(r1, {0: 1.0}, 1)
    d = cert.to_dict()
    assert d["power"] == cert.power
    assert len(d["steps"]) == len(cert.steps)
    import json
    json.dumps(d)


def test_pipeline_monotonicity(r1, rng):
    # every recorded step bound dominates its measured value
    for _ in range(5):
        x = {0: 1.0}
        for j in rng.integers(1, 260, size=3):
            x[int(j)] = float(rng.standard_normal())
        cert = hyp.certify_hypercyclic_step(r1, x, 1)
        for s in cert.steps:
            assert s.measured <= s.bound * (1 + 1e-9) + 1e-300


def test_modulus_reduction_chain(r1):
    chain = hyp.modulus_reduction_chain(r1, {0: 1.0}, Poly((0, 4)), 1)
    assert chain.levels == 2
    assert len(chain.links) == 3
    assert chain.final_measured <= chain.composed_bound * (1 + 1e-9)
    # degenerate chain: already unit modulus
    chain0 = hyp.modulus_reduction_chain(r1, {0: 1.0}, ZETA, 1)
    assert chain0.levels == 0


def test_frame_constant_consistency(r1):
    # the calibrated table entry agrees with a fresh measurement
    from orbitlab.basis import measure_frame_constant
    C = measure_frame_constant(r1.F_csc, r1.schedule.stage(1).nu)
    assert hyp.frame_constant(r1, 1) == pytest.approx(C, rel=1e-12)


def test_frame_constant_of_a_calibrated_stage_runs_no_svd(r1, monkeypatch):
    def refuse(*args):
        raise AssertionError("frame constant measured again")

    monkeypatch.setattr(hyp, "measure_frame_constant", refuse)
    assert hyp.frame_constant(r1, 1) == r1.frame_constants[1]


def test_frame_constant_memoised_without_calibration(r1, monkeypatch):
    # a basis assembled from the echoed schedule (gammas set) is not
    # calibrated: its table starts empty and is filled on demand
    frozen = ol.assemble(r1.schedule, r1.families)
    assert frozen.schedule == r1.schedule and frozen.frame_constants == {}
    calls = []
    measure = hyp.measure_frame_constant

    def counting(*args):
        calls.append(args[1])
        return measure(*args)

    monkeypatch.setattr(hyp, "measure_frame_constant", counting)
    first = hyp.frame_constant(frozen, 1)
    assert hyp.frame_constant(frozen, 1) == first
    assert calls == [r1.schedule.stage(1).nu]
    assert first == r1.frame_constants[1]
    assert frozen.frame_constants == {1: first}
