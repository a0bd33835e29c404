import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orbitlab as ol
from orbitlab import geometry as geo
from orbitlab.profiles import mini_schedule, reference_schedule

from conftest import region_interval


@pytest.fixture(scope="module")
def r1s():
    return reference_schedule()[0]


@pytest.fixture(scope="module")
def minis():
    return mini_schedule()[0]


def test_classify_seed(r1s):
    assert ol.classify(0, r1s) == geo.Seed()
    assert ol.classify(4, r1s) == geo.Seed()


def test_classify_b_working_first_index(r1s):
    # b_1 + 1 = 65 opens the first difference interval [65, 68]
    assert ol.classify(65, r1s) == geo.BWorking(1, 1)
    assert ol.classify(68, r1s) == geo.BWorking(1, 1)
    assert ol.classify(69, r1s) == geo.BLayOff(1, 1)
    assert isinstance(ol.classify(64, r1s), geo.BLayOff)


def test_classify_c_working_with_coord(r1s):
    tag = ol.classify(4096 + 3, r1s)
    assert isinstance(tag, geo.CWorking)
    assert tag.coord.r == (1, 0)
    assert tag.coord.alpha == 3
    assert tag.coord.t == 1
    assert tag.coord.abs_r == 1


def test_classify_out_of_range(r1s):
    with pytest.raises(ol.errors.TruncationError):
        ol.classify(400_001, r1s)
    with pytest.raises(ol.errors.TruncationError):
        ol.classify(-1, r1s)


def test_generic_layoff_weight_formula():
    # interval [r+1, r+s] with s = 4: first index weighs 2, last 2^(-1/2)
    sched, _ = mini_schedule()
    # stage 1 tail lay-off of the mini schedule is [79, 80]; use direct math
    # on a synthetic interval via the exponent helper instead
    tag = geo.CLayOff(1, 0)
    lo, hi = region_interval(tag, sched)
    s = hi - lo + 1
    lam_first = ol.layoff_weight(lo, sched)
    lam_last = ol.layoff_weight(hi, sched)
    assert lam_first == pytest.approx(2.0 ** (0.5 * math.sqrt(s)))
    assert lam_last == pytest.approx(2.0 ** ((0.5 * s + 1 - s) / math.sqrt(s)))


def test_b_layoff_weight_reference_values(r1s):
    # [5, 64]: exponent at j=5 is (32 + 4 + 1 - 5)/8 = 4
    assert ol.layoff_weight(5, r1s) == pytest.approx(16.0)
    assert type(ol.layoff_weight(5, r1s)) is float
    # ratio within a lay-off is the constant 2^(1/sqrt(b))
    r = ol.layoff_weight(70, r1s) / ol.layoff_weight(71, r1s)
    assert r == pytest.approx(2.0 ** (1 / 8), rel=1e-12)


def test_layoff_weight_rejects_working(r1s):
    with pytest.raises(ValueError):
        ol.layoff_weight(65, r1s)
    with pytest.raises(ValueError):
        ol.layoff_weight(0, r1s)


def test_weight_monotone_and_constant_ratio(minis):
    for iv in geo.stage_table(minis, 1) + geo.stage_table(minis, 2):
        if not geo.is_layoff(iv.tag) or iv.hi == iv.lo:
            continue
        lams = [ol.layoff_weight(j, minis) for j in range(iv.lo, iv.hi + 1)]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        ratios = [a / b for a, b in zip(lams, lams[1:])]
        assert max(ratios) - min(ratios) <= 1e-12 * max(ratios)


def test_rational_weights_close_and_positive():
    sched, _ = mini_schedule(weight_mode=ol.RATIONAL)
    fl, _ = mini_schedule()
    js = [j for j in range(sched.xi(1) + 1, sched.xi_end)
          if geo.is_layoff(ol.classify(j, sched))][:40]
    assert js
    for j in js:
        lam_q = ol.layoff_weight(j, sched)
        lam_f = ol.layoff_weight(j, fl)
        assert type(lam_q) is Fraction
        assert type(lam_f) is float
        assert abs(float(lam_q) - lam_f) <= 2.0 ** -38 * lam_f


def test_partition_exhaustive_r1(r1s):
    # every index of the R1 truncation is covered exactly once, contiguously
    table = geo.stage_table(r1s, 1)
    assert table[0].lo == 5
    assert table[-1].hi == 400_000
    pos = 5
    for iv in table:
        assert iv.lo == pos
        assert iv.hi >= iv.lo - 1
        pos = iv.hi + 1
    assert pos == 400_001


def test_partition_against_bruteforce_mini(minis):
    # independent enumeration of stage-1 intervals from raw parameters
    st = minis.stage(1)
    expected = []
    for r in range(1, st.xi + 1):
        expected.append((r * (st.b + 1), r * st.b + st.xi, "bwork"))
    points = sorted({r1 * st.c[0] + r2 * st.c[1]
                     for r1 in range(st.h + 1) for r2 in range(st.h + 1)} - {0})
    for L in points:
        expected.append((L, L + st.nu, "cwork"))
    got = [(iv.lo, iv.hi) for iv in geo.stage_table(minis, 1)
           if not geo.is_layoff(iv.tag)]
    assert got == [(lo, hi) for lo, hi, _ in sorted(expected)]


@pytest.mark.parametrize("profile", [
    lambda: mini_schedule()[0],
    lambda: mini_schedule(weight_mode=ol.RATIONAL)[0],
    lambda: reference_schedule()[0]], ids=["mini", "mini_rational", "r1"])
def test_locate_is_one_search_of_the_concatenated_tables(profile):
    # locate(j) is the interval np.searchsorted picks from the starts of
    # every stage table laid end to end, at each j in (xi_1, xi_end]
    sched = profile()
    table = [iv for n in range(1, sched.n_stages + 1)
             for iv in geo.stage_table(sched, n)]
    js = np.arange(sched.xi(1) + 1, sched.xi_end + 1)
    at = np.searchsorted([iv.lo for iv in table], js, side="right") - 1
    for j, i in zip(js.tolist(), at.tolist()):
        assert geo.locate(j, sched) == table[i], j
    for j in (0, sched.xi(1), sched.xi_end + 1, sched.xi_end + 10**6):
        with pytest.raises(AssertionError):
            geo.locate(j, sched)


def test_b_fan_end_check_fires_on_a_hand_built_stage():
    # assemble does not validate, so a stage with xi < 0 reaches stage_table,
    # whose b-fan loop then never runs and cannot end at nu = xi (b + 1)
    sched = mini_schedule()[0]
    bad = ol.StageSchedule(stages=(replace(sched.stages[0], xi=-1),),
                           xi_end=sched.xi_end)
    with pytest.raises(ol.errors.ScheduleError, match="b-fan does not end at nu"):
        geo.stage_table(bad, 1)


def test_coord_roundtrip_examples(r1s):
    c = geo.LatticeCoord(1, (1, 0), 0)
    assert ol.coord_to_index(c, r1s) == 4096
    c = geo.LatticeCoord(1, (2, 1), 5)
    assert ol.coord_to_index(c, r1s) == 2 * 4096 + 65536 + 5 == 73733
    assert ol.index_to_coord(73733, r1s) == c


def test_coord_roundtrip_exhaustive_stage1(r1s):
    st = r1s.stage(1)
    for r1 in range(st.h + 1):
        for r2 in range(st.h + 1):
            if not (r1 or r2):
                continue
            for alpha in (0, 1, st.nu):
                c = geo.LatticeCoord(1, (r1, r2), alpha)
                assert ol.index_to_coord(ol.coord_to_index(c, r1s), r1s) == c


@settings(max_examples=100)
@given(r1=st.integers(0, 2), r2=st.integers(0, 2), alpha=st.integers(0, 260))
def test_coord_roundtrip_hypothesis(r1, r2, alpha):
    sched, _ = reference_schedule()
    if not (r1 or r2):
        with pytest.raises(ValueError):
            ol.coord_to_index(geo.LatticeCoord(1, (r1, r2), alpha), sched)
        return
    c = geo.LatticeCoord(1, (r1, r2), alpha)
    assert ol.index_to_coord(ol.coord_to_index(c, sched), sched) == c


def test_coord_validation(r1s):
    with pytest.raises(ValueError):
        ol.coord_to_index(geo.LatticeCoord(1, (3, 0), 0), r1s)  # above h
    with pytest.raises(ValueError):
        ol.coord_to_index(geo.LatticeCoord(1, (1, 0), 261), r1s)  # above nu
    with pytest.raises(ValueError):
        ol.index_to_coord(5, r1s)  # a lay-off index


def _reference_exponents(iv, sched):
    """Exponents of a whole lay-off interval by the per-index formula, with
    the interval bounds found by scanning the stage table (region_interval)."""
    tag = iv.tag
    st = sched.stage(tag.n)
    lo, hi = region_interval(tag, sched)
    s = hi - lo + 1
    out = []
    for j in range(iv.lo, iv.hi + 1):
        if isinstance(tag, geo.BLayOff):
            out.append((0.5 * st.b + tag.r * st.b + st.xi + 1 - j) / math.sqrt(st.b))
        else:
            out.append((0.5 * s + lo - j) / math.sqrt(s))
    return out


def _reference_weights(iv, sched):
    """Weights of a whole lay-off interval by the per-index formula: the
    scalar 2.0 ** e, or in rational mode its Fraction-power dyadic."""
    pow2 = _fraction_power_pow2 if sched.weight_mode == ol.RATIONAL else (lambda e: 2.0 ** e)
    return [pow2(e) for e in _reference_exponents(iv, sched)]


def _layoff_intervals(sched):
    return [iv for n in range(1, sched.n_stages + 1)
            for iv in geo.stage_table(sched, n) if geo.is_layoff(iv.tag)]


def _same_float(a, b):
    return a == b and float.hex(a) == float.hex(b)


def test_interval_weights_bit_identical_mini(minis):
    ivs = _layoff_intervals(minis)
    assert {iv.tag.n for iv in ivs} == {1, 2}
    for iv in ivs:
        got = geo.interval_weights(iv, minis, iv.lo, iv.hi)
        ref = _reference_weights(iv, minis)
        assert len(got) == iv.hi - iv.lo + 1
        for j, w, r in zip(range(iv.lo, iv.hi + 1), got, ref):
            assert _same_float(w, r), (iv, j)
            assert _same_float(w, ol.layoff_weight(j, minis)), (iv, j)


def test_interval_weights_bit_identical_r1(r1s):
    # every lay-off index of R1, against the scalar 2.0 ** e
    ivs = _layoff_intervals(r1s)
    kinds = {type(iv.tag) for iv in ivs}
    assert {geo.BLayOff, geo.CLayOff, geo.TailLayOff} <= kinds
    for iv in ivs:
        ref = _reference_weights(iv, r1s)
        full = geo.interval_weights(iv, r1s, iv.lo, iv.hi)
        assert full.dtype == np.float64
        assert full.tobytes() == np.array(ref).tobytes(), iv
        mid = (iv.lo + iv.hi) // 2
        samples = {iv.lo, iv.lo + 1, mid, iv.hi - 1, iv.hi}
        for j in samples:
            k = j - iv.lo
            assert _same_float(full[k], ref[k]), (iv, j)
            assert _same_float(full[k], ol.layoff_weight(j, r1s)), (iv, j)
            # a sub-run starting inside the interval gives the same values
            part = geo.interval_weights(iv, r1s, j, min(j + 3, iv.hi))
            assert all(_same_float(a, b) for a, b in zip(part, full[k:])), (iv, j)


def test_interval_weights_rational_mini_exact(minis):
    # the rational weights come as pairs; interval_weights stays float-only
    sched, _ = mini_schedule(weight_mode=ol.RATIONAL)
    for iv in _layoff_intervals(sched):
        got = list(map(Fraction, *geo.interval_weight_pairs(iv, sched, iv.lo, iv.hi)))
        assert all(isinstance(w, Fraction) for w in got)
        floats = geo.interval_weights(iv, sched, iv.lo, iv.hi)
        assert floats.tobytes() == geo.interval_weights(iv, minis, iv.lo, iv.hi).tobytes()
        assert got == _reference_weights(iv, sched), iv
        assert got == [ol.layoff_weight(j, sched)
                       for j in range(iv.lo, iv.hi + 1)], iv


def test_interval_weights_rejects_working_and_outside(r1s):
    table = geo.stage_table(r1s, 1)
    work = next(iv for iv in table if not geo.is_layoff(iv.tag))
    with pytest.raises(ValueError):
        geo.interval_weights(work, r1s, work.lo, work.hi)
    lay = next(iv for iv in table if geo.is_layoff(iv.tag))
    with pytest.raises(ValueError):
        geo.interval_weights(lay, r1s, lay.lo, lay.hi + 1)
    with pytest.raises(ValueError):
        geo.interval_weights(lay, r1s, lay.lo - 1, lay.hi)
    assert len(geo.interval_weights(lay, r1s, lay.lo, lay.lo - 1)) == 0


def _fraction_power_dyadic(x, rounding):
    """A 40-bit dyadic of x, rounded by `rounding`, as a product of Fraction
    powers."""
    if x == 0:
        return Fraction(0)
    m, e = math.frexp(x)
    mant = rounding(m * (1 << 40))
    return Fraction(mant, 1) * Fraction(2) ** (e - 40)


def _fraction_power_pow2(e):
    """geometry.dyadic_pairs(*pow2_dyadics(e)) of one exponent as a product
    of Fraction powers."""
    ip = math.floor(e)
    frac = e - ip
    return _fraction_power_dyadic(2.0 ** frac, round) * Fraction(2) ** ip


def test_dyadics_match_fraction_power_formula():
    # the integer-shift dyadics against the Fraction-power formula, on a
    # seeded grid: both signs, subnormals and the float range's ends for
    # dyadic, and exponents far past +-1074 for dyadic_pairs of pow2_dyadics
    assert geo.DYADIC_BITS == 40
    rng = np.random.default_rng(20261018)
    xs = [0.0, 1.0, -1.0, 0.5, -0.75, 5e-324, -5e-324, 1e-310, -1e-310,
          sys.float_info.max, -sys.float_info.max, sys.float_info.min]
    xs += (rng.standard_normal(300) * 2.0 ** rng.integers(-1100, 1000, 300)).tolist()
    for x in xs:
        got = geo.dyadic(x)
        assert got == _fraction_power_dyadic(x, math.floor), x
        assert got <= x
    es = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1074.0, -1074.0, 1075.25, -1075.25,
          -1e-17, 1 - 1e-16, 3000.0, -3000.0]
    es += rng.uniform(-3000, 3000, 400).tolist() + rng.uniform(-2, 2, 100).tolist()
    nums, dens = geo.dyadic_pairs(*geo.pow2_dyadics(np.array(es)))
    assert nums.dtype == dens.dtype == object
    for e, p, q in zip(es, nums, dens):
        assert type(p) is int and type(q) is int and q > 0
        assert math.gcd(p, q) == 1, e
        assert Fraction(p, q) == _fraction_power_pow2(e), e
    # the one-element case and a run starting anywhere give the same pairs
    for k in (0, 7, 413):
        assert [x.tolist() for x in geo.dyadic_pairs(
            *geo.pow2_dyadics(np.array(es[k:k + 1])))] == [[nums[k]], [dens[k]]]
        assert [x.tolist() for x in geo.dyadic_pairs(
            *geo.pow2_dyadics(np.array(es[k:])))] == [nums[k:].tolist(), dens[k:].tolist()]


def _is_dyadic_pair_of(e, p, q, bits=40):
    """(p, q) is the coprime pair of 2^e's 40-bit dyadic, checked by exact
    cross-multiplication against the scalar 2.0 ** frac(e) rounded to
    `bits` bits: q a power of two, p odd unless q = 1."""
    ip = math.floor(e)
    m, k = math.frexp(2.0 ** (e - ip))
    mant, s = round(m * (1 << bits)), k - bits + ip
    return (p << max(-s, 0) == (mant * q) << max(s, 0) and q & (q - 1) == 0
            and (q == 1 or p & 1 == 1))


def test_interval_weight_pairs_exact_r1():
    # every lay-off index of rational R1: the pairs are the dyadics of the
    # scalar weights, and the Fraction weights are built from them
    sched, _ = reference_schedule(weight_mode=ol.RATIONAL)
    ivs = _layoff_intervals(sched)
    assert sum(iv.hi - iv.lo + 1 for iv in ivs) == 397_898
    for iv in ivs:
        num, den = geo.interval_weight_pairs(iv, sched, iv.lo, iv.hi)
        es = _reference_exponents(iv, sched)
        assert all(map(_is_dyadic_pair_of, es, num.tolist(), den.tolist())), iv
        for j in (iv.lo, iv.hi):
            k = j - iv.lo
            assert ol.layoff_weight(j, sched) == _fraction_power_pow2(es[k])
            assert ol.layoff_weight(j, sched) == Fraction(num[k], den[k])
