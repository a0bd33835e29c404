import math

import numpy as np
import pytest

import orbitlab as ol
from orbitlab import operators as ops
from orbitlab import reflexivity as refl
from orbitlab.errors import ProfileError


def test_profile_detection(r1, r1_companion):
    assert not refl.zero_constant_profile(r1)
    assert refl.zero_constant_profile(r1_companion)


def test_build_refuses_constant_terms(r1):
    with pytest.raises(ProfileError):
        refl.build_A(r1)


def test_unbounded_direction_on_constant_profile(r1):
    # with p_1 = 1, the would-be companion sends the fan base vector to a
    # vector of norm ~ 1/gamma: the unboundedness mechanism
    T = ops.conjugated_power(r1)
    A = T.tolil()
    A[:, 0] = 0
    A = A.tocsc()
    x = np.zeros(r1.n_trunc + 1)
    x[4096] = 1.0  # f_(c_1)
    # A f_(c_1) = (1/gamma) e_(c_1 + 1): kill the e_0 part of T's image
    g = float(r1.gammas[0])
    # compute directly in the e-frame: f_(c_1) = (e_(c_1) - e_0)/gamma
    img = {4097: 1 / g}  # shift of e_(c_1)/gamma, e_0 dropped by A
    img_f = r1.e_to_f(img)
    norm = math.sqrt(sum(abs(v) ** 2 for v in img_f.values()))
    assert norm >= 0.9 / g  # blows up as gamma shrinks


def test_column_identity_exact(r1_companion):
    A = refl.build_A(r1_companion)
    T = ops.conjugated_power(r1_companion)
    assert (A[:, 1:] - T[:, 1:]).nnz == 0
    assert A[:, 0].nnz == 0
    ref = T.tolil()  # reference route: zero column 0 through LIL
    ref[:, 0] = 0
    ref = ref.tocsc()
    assert A.has_sorted_indices
    for a in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, a), getattr(ref, a))


def test_forced_constant_profile_breaks_column_identity(mini, monkeypatch):
    # mini's (1, zeta) profile puts e_0 into f_18 and f_15800; forced through
    # build_A, A drops that part where T keeps it, and the row says so
    monkeypatch.setattr(refl, "zero_constant_profile", lambda basis: True)
    A = refl.build_A(mini)
    T = ops.conjugated_power(mini)
    diff = (A - T).tocsc()
    assert np.flatnonzero(np.diff(diff.indptr)).tolist() == [0, 18, 15800]
    by_id = {e.claim_id: e for e in refl.reflexivity_entries(mini, 1)}
    assert by_id["companion.columns"].status == "fail"
    assert by_id["companion.conjugation"].status == "pass"


def test_independent_conjugation_route(r1_companion):
    A = refl.build_A(r1_companion)
    B = refl.build_A_independent(r1_companion)
    diff = (A - B).tocoo()
    assert diff.nnz == 0 or float(np.max(np.abs(diff.data))) <= 1e-10


def test_noncommutation_witness_exact(r1_companion):
    ta, at = refl.noncommutation_witness(r1_companion,
                                         refl.build_A(r1_companion))
    assert ta == {}
    assert at == {2: 1.0}


def test_commutator_lower_bound(r1_companion):
    A = refl.build_A(r1_companion)
    T = ops.conjugated_power(r1_companion)
    e0 = np.zeros(r1_companion.n_trunc + 1)
    e0[0] = 1.0
    w = (A @ (T @ e0)) - (T @ (A @ e0))
    assert float(np.linalg.norm(w)) == pytest.approx(1.0)  # = ||e_2||


def test_companion_norm_not_larger(r1_companion):
    A = refl.build_A(r1_companion)
    T = ops.conjugated_power(r1_companion)
    nA = ops.op_norm(A).value
    nT = ops.op_norm(T).value
    assert nA <= nT + 1e-9
    assert math.isfinite(nA)


def test_membership_exact_branch(r1_companion):
    A = refl.build_A(r1_companion)
    m = refl.orbit_membership(r1_companion, {3: 1.0}, 1, A)
    assert m.kind == "exact-shift"
    assert m.exact_residual == 0.0
    m2 = refl.orbit_membership(r1_companion, {5: 2.0, 700: -1.0}, 1, A)
    assert m2.kind == "exact-shift" and m2.exact_residual == 0.0


def test_membership_certified_branch(r1_companion):
    m = refl.orbit_membership(r1_companion, {0: 1.0}, 1,
                              refl.build_A(r1_companion))
    assert m.kind == "power-certificate"
    cert = m.certificate
    assert cert.final_residual <= cert.composed_bound
    # the image of A lies in the span of f_1, f_2, ...: distance is its f_0 part
    assert m.image_f0_component == 0.0


def test_membership_mixed_vector(r1_companion):
    m = refl.orbit_membership(r1_companion, {0: 1.0, 3: 1.0}, 1,
                              refl.build_A(r1_companion))
    assert m.kind == "power-certificate"
    assert m.certificate.final_residual <= m.certificate.composed_bound


def test_membership_snap_stays_zero_constant(r1_companion):
    # the snapped fan polynomial must keep the zero-constant constraint
    m = refl.orbit_membership(r1_companion, {0: 1.0}, 1,
                              refl.build_A(r1_companion))
    assert m.certificate.snapped_poly.constant_term() == 0


def test_reflexivity_entries(r1_companion):
    entries = refl.reflexivity_entries(r1_companion, 1)
    by_id = {e.claim_id: e for e in entries}
    for cid in ("companion.conjugation", "companion.columns",
                "companion.witness", "companion.norm", "membership.exact",
                "membership.certified"):
        assert by_id[cid].status == "pass", by_id[cid]


def test_exact_mode_witnesses(r1_companion_rational):
    # rational weights: the witness identities hold exactly as well
    A = refl.build_A(r1_companion_rational)
    ta, at = refl.noncommutation_witness(r1_companion_rational, A)
    assert ta == {}
    assert at == {2: 1.0}
    T = ops.conjugated_power(r1_companion_rational)
    assert (A[:, 1:] - T[:, 1:]).nnz == 0


def test_exact_mode_companion_matches_the_fraction_route():
    # rational mini companion: build_A is the exact product rounded once, and
    # the independent route sums each column in Fractions; both agree to the
    # bit.  The float product of the rounded images would store 48 132
    # entries against 35 702, the extra ones up to 8.1e177 where exact terms
    # cancel.
    from orbitlab.profiles import mini_schedule

    b = ol.assemble(*mini_schedule(weight_mode=ol.RATIONAL, companion=True))
    by_id = {e.claim_id: e for e in refl.reflexivity_entries(b, 1)}
    row = by_id["companion.conjugation"]
    assert row.status == "pass" and row.measured == 0.0
    for cid in ("companion.columns", "companion.witness", "companion.norm"):
        assert by_id[cid].status == "pass", by_id[cid]
