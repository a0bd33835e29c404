import math

import numpy as np
import pytest

import orbitlab as ol
from orbitlab import negligibility as neg
from orbitlab.basis import vec_norm
from orbitlab.errors import PreconditionError, ProfileError
from orbitlab.profiles import statistical_schedule

from conftest import reference_schedule_companion

SEED = 20250810


def normal_cdf_width(t, sigma):
    return math.erf(t / (sigma * math.sqrt(2)))


def test_structural_functional_matches_assembled(r1):
    # the sparse structural form equals row 0 of the assembled map, at both
    # functional depths the truncation supports
    for n in (1, 2):
        structural = neg.e0_functional_structural(r1.schedule, r1.families, n)
        assembled = r1.e0_functional(n)
        assert set(structural) == set(assembled)
        for j in structural:
            assert structural[j] == pytest.approx(assembled[j], rel=1e-12)


def test_structural_functional_support(r1):
    phi1 = neg.e0_functional_structural(r1.schedule, r1.families, 1)
    assert phi1 == {0: 1.0}
    phi2 = neg.e0_functional_structural(r1.schedule, r1.families, 2)
    # p_1 = 1 contributes -1/gamma at c_1; p_2 = zeta has no constant term
    assert set(phi2) == {0, 4096}
    assert phi2[4096] == pytest.approx(-1 / float(r1.gammas[0]))


def test_gamma_pairing_identity(r1):
    val, expected = neg.functional_gamma_identity(r1.schedule, r1.families, 1)
    assert val == expected  # exact: -1/gamma_1
    comp_sched, comp_fams = reference_schedule_companion()
    with pytest.raises(ProfileError):
        neg.functional_gamma_identity(comp_sched.with_gammas((0.01,)),
                                      comp_fams, 1)


def test_closed_form_vs_normal_cdf():
    # n = 3, M = 1, c_0 = 1, x_0 = 0: analytic bound 1/8, true value ~ 0.0995
    sched, fams = statistical_schedule(6, ol.REAL)
    phi = neg.e0_functional_structural(sched, fams, 3)
    sampler = neg.GaussianSampler(ol.REAL, SEED)
    stat, = neg.coord_tail_probability(phi, {}, sampler, 3, (1.0,), 100_000)
    truth = normal_cdf_width(stat.level, stat.sigma_closed)
    # idealized head-only value is 0.0995; the fan points nudge sigma to 1.031
    assert truth == pytest.approx(0.0995, abs=0.005)
    assert stat.analytic_bound == pytest.approx(0.125)
    assert abs(stat.empirical - truth) <= 4 * math.sqrt(truth / stat.trials)
    assert stat.passed


def test_tail_probability_zero_level():
    sched, fams = statistical_schedule(4, ol.REAL)
    phi = neg.e0_functional_structural(sched, fams, 2)
    sampler = neg.GaussianSampler(ol.REAL, SEED)
    stat, = neg.coord_tail_probability(phi, {}, sampler, 2, (0.0,), 2000)
    assert stat.hits == 0 and stat.empirical == 0.0


def test_tail_probability_mean_free(r1):
    # shifting the centre changes the mean but not the bound check
    sched, fams = statistical_schedule(4, ol.REAL)
    phi = neg.e0_functional_structural(sched, fams, 3)
    sampler = neg.GaussianSampler(ol.REAL, SEED)
    a, = neg.coord_tail_probability(phi, {}, sampler, 3, (1.0,), 50_000)
    b, = neg.coord_tail_probability(phi, {0: 3.0}, sampler, 3, (1.0,), 50_000)
    assert a.analytic_bound == b.analytic_bound
    assert b.mean_closed != a.mean_closed
    assert b.passed  # displaced mean only helps


def test_tail_probability_guards():
    sched, fams = statistical_schedule(4, ol.REAL)
    phi = neg.e0_functional_structural(sched, fams, 2)
    sampler = neg.GaussianSampler(ol.REAL, SEED)
    with pytest.raises(ValueError):
        neg.coord_tail_probability(phi, {}, sampler, 2, (1.0,), 10)


def test_moments_match_closed_forms():
    for field in (ol.REAL, ol.COMPLEX):
        sched, fams = statistical_schedule(5, field)
        phi = neg.e0_functional_structural(sched, fams, 4)
        sampler = neg.GaussianSampler(field, SEED)
        x0 = {0: 0.5, 1: 1.0}
        m0, sig = neg.head_moments(phi, x0, sampler)
        X = neg.sample_head_coordinate(phi, x0, sampler, 100_000)
        if field == ol.COMPLEX:
            emp_var = float(np.mean(np.abs(X - m0) ** 2) / 2)
        else:
            emp_var = float(np.var(X))
        assert abs(complex(np.mean(X)) - m0) <= 3 * sig / math.sqrt(len(X))
        assert abs(emp_var - sig ** 2) <= 3 * sig ** 2 * math.sqrt(2 / len(X))
        assert sig >= abs(sampler.coefficients([0])[0]) - 1e-15


def test_sampling_deterministic():
    sched, fams = statistical_schedule(4, ol.REAL)
    phi = neg.e0_functional_structural(sched, fams, 3)
    sampler = neg.GaussianSampler(ol.REAL, SEED)
    a = neg.sample_head_coordinate(phi, {}, sampler, 30_000)
    b = neg.sample_head_coordinate(phi, {}, sampler, 30_000)
    assert np.array_equal(a, b)


def test_borel_cantelli_sums():
    partial, tail = neg.borel_cantelli_sum(1.0, 1.0, 30, ol.REAL)
    assert partial + tail == pytest.approx(1.0)  # geometric series to 1
    partial, tail = neg.borel_cantelli_sum(1.0, 1.0, 30, ol.COMPLEX)
    assert partial + tail == pytest.approx(1 / 6)
    with pytest.raises(ValueError):
        neg.borel_cantelli_sum(1.0, 1.0, 1, ol.REAL)


def test_borel_cantelli_empirical_partial(r1):
    # empirical small-head frequencies stay below the analytic terms + slack
    sched, fams = statistical_schedule(5, ol.REAL)
    sampler = neg.GaussianSampler(ol.REAL, SEED)
    total_emp, total_analytic = 0.0, 0.0
    for n in range(1, 6):
        phi = neg.e0_functional_structural(sched, fams, n)
        stt, = neg.coord_tail_probability(phi, {}, sampler, n, (1.0,), 20_000)
        total_emp += stt.empirical
        total_analytic += stt.analytic_bound + stt.conf_radius
    assert total_emp <= total_analytic


def test_statistics_entries_all_pass():
    for field in (ol.REAL, ol.COMPLEX):
        sched, fams = statistical_schedule(6, field)
        entries = neg.statistics_entries(sched, fams, SEED)
        assert entries and all(e.status != "fail" for e in entries)
        grid = [e for e in entries if e.claim_id.startswith("gauss.tail")]
        assert len(grid) == 12  # n = 1..6 times M in {1, 4}
        by_id = {e.claim_id: e for e in grid}
        # each stage's two rows are the two levels of one sample
        for n in range(1, 7):
            phi = neg.e0_functional_structural(sched, fams, n)
            stats = neg.coord_tail_probability(
                phi, {}, neg.GaussianSampler(field, SEED + 17 * n), n,
                (1.0, 4.0), neg.TRIALS)
            for M, st in zip((1, 4), stats, strict=True):
                e = by_id[f"gauss.tail.{field}.n{n}.M{M}"]
                assert e.measured == st.empirical - st.conf_radius
                assert e.bound == st.analytic_bound
                assert (e.details["empirical"], e.details["hits"],
                        e.details["sigma"]) == (st.empirical, st.hits,
                                                st.sigma_closed)


def test_statistics_entries_sample_each_stage_once(monkeypatch):
    # one sample per stage serves both levels, plus the moment sample
    rows = []
    draw = neg.GaussianSampler.draw

    def counted(self, m, k, rng):
        rows.append(m)
        return draw(self, m, k, rng)

    monkeypatch.setattr(neg.GaussianSampler, "draw", counted)
    for field in (ol.REAL, ol.COMPLEX):
        rows.clear()
        sched, fams = statistical_schedule(6, field)
        neg.statistics_entries(sched, fams, SEED)
        assert sum(rows) == 7 * neg.TRIALS


def test_porosity_witness_reference_values(r1, rng):
    phi = neg.e0_functional_structural(r1.schedule, r1.families, 2)
    norm = vec_norm(phi)
    assert norm == pytest.approx(math.hypot(1, 1 / float(r1.gammas[0])))
    rec = neg.porosity_witness(phi, {}, 0.1, 2.0, 2, rng)
    assert rec.selected and rec.passed
    assert rec.sample_values and min(rec.sample_values) > rec.level


def test_porosity_witness_guards(r1, rng):
    phi = neg.e0_functional_structural(r1.schedule, r1.families, 2)
    with pytest.raises(PreconditionError):
        neg.porosity_witness(phi, {}, 0.0, 2.0, 2, rng)
    big = {0: 10.0}
    with pytest.raises(PreconditionError):
        neg.porosity_witness(phi, big, 0.1, 2.0, 2, rng)
    # a displacement below the stage-selection threshold is refused as
    # unselected, not passed
    rec = neg.porosity_witness(phi, {}, 1e-9, 2.0, 2, rng)
    assert not rec.selected and not rec.passed


def test_porosity_entries_battery(r1):
    entries = neg.porosity_entries(r1.schedule, r1.families, 2, seed=SEED)
    by_id = {e.claim_id: e for e in entries}
    assert by_id["porosity.pairing.stage1"].status == "pass"
    assert by_id["porosity.witness.stage2"].status == "pass"
    assert by_id["porosity.witness.stage2"].measured == 0.0
