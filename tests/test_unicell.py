import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orbitlab as ol
from orbitlab import unicell as uni
from orbitlab.errors import PreconditionError, TruncationError
from orbitlab.polynet import Poly, steer


def test_solve_examples_by_hand():
    # xi = 2, x = e_0 + e_1, y = e_2: forward substitution gives zeta^2
    sysm = uni.ToeplitzSystem(2, 0, (1, 1, 0), (0, 0, 1))
    assert uni.solve_poly(sysm) == Poly((0, 0, 1))
    # xi = 2, x = e_1, y = e_2: a single shift
    sysm = uni.ToeplitzSystem(2, 1, (1, 0), (0, 1))
    assert uni.solve_poly(sysm) == Poly((0, 1))
    # scalar system: x = e_0/2, y = e_0 -> p = 2, matching the bound shape
    sysm = uni.ToeplitzSystem(0, 0, (0.5,), (1,))
    p = uni.solve_poly(sysm)
    assert p == Poly((2.0,))
    assert float(p.ell1) == 2.0 == (1 / 0.5) ** (0 - 0 + 1)
    # steer reads the first two systems off e-coordinate dicts and ignores
    # every coordinate outside [r, xi]
    assert steer({0: 1, 1: 1, 3: 7}, {2: 1, 4: 5}, 0, 2) == Poly((0, 0, 1))
    assert steer({0: 9, 1: 1}, {0: 4, 2: 1, 3: 1}, 1, 2) == Poly((0, 1))


def test_solve_zero_leading_rejected():
    with pytest.raises(ValueError):
        uni.ToeplitzSystem(2, 0, (0, 1, 0), (0, 0, 1))


def test_solve_random_battery(rng):
    worst = 0.0
    for _ in range(1000):
        xi = int(rng.integers(1, 14))
        r = int(rng.integers(0, xi))
        x = rng.standard_normal(xi - r + 1)
        x[0] += 2.0 if x[0] >= 0 else -2.0
        y = rng.standard_normal(xi - r + 1)
        sysm = uni.ToeplitzSystem(xi, r, tuple(x), tuple(y))
        p = uni.solve_poly(sysm)
        y_e = dict(zip(range(r, xi + 1), y))
        y_e[r - 1] = y_e[xi + 1] = 1.0  # outside [r, xi]
        assert steer(dict(zip(range(r, xi + 1), x)), y_e, r, xi) == p
        ny = math.sqrt(float(np.dot(y, y)))
        worst = max(worst, uni.steering_residual(sysm, p) / max(ny, 1e-300))
    assert worst <= 1e-10


def test_solve_exact_rational(rng):
    for _ in range(50):
        xi = int(rng.integers(1, 10))
        x = tuple(Fraction(int(v), 8) for v in rng.integers(-20, 20, xi + 1))
        if x[0] == 0:
            x = (Fraction(3, 8),) + x[1:]
        y = tuple(Fraction(int(v), 4) for v in rng.integers(-20, 20, xi + 1))
        p = uni.solve_poly(uni.ToeplitzSystem(xi, 0, x, y))
        assert uni.steering_residual(uni.ToeplitzSystem(xi, 0, x, y), p) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.data())
def test_solve_hypothesis(xi, data):
    coords = data.draw(st.lists(
        st.fractions(min_value=-4, max_value=4), min_size=xi + 1,
        max_size=xi + 1))
    lead = data.draw(st.fractions(min_value=Fraction(1, 4), max_value=4))
    x = (lead,) + tuple(coords[1:])
    y = tuple(coords)
    p = uni.solve_poly(uni.ToeplitzSystem(xi, 0, x, y))
    assert uni.steering_residual(uni.ToeplitzSystem(xi, 0, x, y), p) == 0


def test_growth_exponent(rng):
    slope = uni.growth_exponent_fit(8, 3, rng)
    assert slope <= 8 - 3 + 1 + 0.1
    assert slope >= 1.0  # it genuinely grows


def test_large_coord_examples(r1):
    got = ol.large_coord_index(r1, {0: 1.0}, 1)
    assert got is not None and got.j == 0
    assert got.side_condition_ok  # sqrt(4) >= sup ||e_j|| = 1 on the head
    # all coordinates below their thresholds: no index
    tiny = {j: 1e-6 for j in range(5)}
    tiny[10] = 1.0  # mass off the head block keeps the norm up
    assert ol.large_coord_index(r1, tiny, 1) is None
    assert ol.large_coord_index(r1, {}, 1) is None


def test_large_coord_agrees_with_scan(r1, rng):
    st1 = r1.schedule.stage(1)
    for _ in range(50):
        x = {j: float(v) for j, v in enumerate(rng.standard_normal(st1.xi + 1))}
        nx = math.sqrt(sum(v * v for v in x.values()))
        got = ol.large_coord_index(r1, x, 1)
        # brute-force oracle over the head coordinates (seed block: e = f)
        expected = None
        for j in range(st1.xi + 1):
            if abs(x.get(j, 0)) / nx >= 4.0 ** -(st1.xi - j + 1):
                expected = j
                break
        assert (got.j if got else None) == expected


def test_compare_orbit_examples(r1):
    res = ol.compare_orbits(r1, {0: 1.0}, {1: 1.0}, 1)
    assert res.direction == ol.X_CONTAINS_Y
    assert res.j_lead == 0
    assert res.poly == Poly((0.0, 1.0))
    assert res.final_residual <= res.composed_bound * (1 + 1e-9)
    # reflexivity of the tie rule
    res2 = ol.compare_orbits(r1, {0: 1.0}, {0: 1.0}, 1)
    assert res2.direction == ol.X_CONTAINS_Y
    assert res2.poly == Poly((1.0,))
    # swapped arguments reverse the direction
    res3 = ol.compare_orbits(r1, {1: 1.0}, {0: 1.0}, 1)
    assert res3.direction == ol.Y_CONTAINS_X


def test_compare_needs_a_large_coordinate(r1):
    with pytest.raises(PreconditionError):
        ol.compare_orbits(r1, {}, {0: 1.0}, 1)
    tiny = {j: 1e-6 for j in range(5)}
    tiny[10] = 1.0
    with pytest.raises(PreconditionError):
        ol.compare_orbits(r1, tiny, dict(tiny), 1)


def test_compare_totality_and_antisymmetry(r1, rng):
    st1 = r1.schedule.stage(1)
    decided = 0
    for _ in range(100):
        x = uni._random_unit_head(r1, st1.xi, rng)
        y = uni._random_unit_head(r1, st1.xi, rng)
        jx = ol.large_coord_index(r1, x, 1)
        jy = ol.large_coord_index(r1, y, 1)
        if jx is None or jy is None:
            continue
        r_xy = ol.compare_orbits(r1, x, y, 1)
        r_yx = ol.compare_orbits(r1, y, x, 1)
        decided += 1
        assert r_xy.direction in (ol.X_CONTAINS_Y, ol.Y_CONTAINS_X)
        if jx.j != jy.j:
            assert {r_xy.direction, r_yx.direction} == \
                {ol.X_CONTAINS_Y, ol.Y_CONTAINS_X}
    assert decided >= 90  # random unit heads essentially always qualify


def test_compare_certificate_steps_are_bounded(r1, rng):
    st1 = r1.schedule.stage(1)
    for _ in range(10):
        x = uni._random_unit_head(r1, st1.xi, rng)
        y = uni._random_unit_head(r1, st1.xi, rng)
        if ol.large_coord_index(r1, x, 1) is None or \
           ol.large_coord_index(r1, y, 1) is None:
            continue
        res = ol.compare_orbits(r1, x, y, 1)
        for s in res.steps:
            assert s.measured <= s.bound * (1 + 1e-9) + 1e-300
        assert res.final_residual <= res.composed_bound * (1 + 1e-9)
        # t3 (the damped-target step) plus the shared fan-power steps
        damped, shared = res.steps[2], res.steps[3:]
        assert damped.name == "damped-target"
        assert [s.name for s in shared] == ["mid-band", "snap", "fan", "tail"]
        assert res.composed_bound == sum((s.bound for s in shared), damped.bound)


def test_unicell_entries_pass(r1, rng):
    entries = uni.unicell_entries(r1, 1, rng)
    by_id = {e.claim_id: e for e in entries}
    assert by_id["steer.random"].status == "pass"
    assert by_id["steer.growth"].status == "pass"
    assert by_id["compare.total"].status == "pass"
    assert by_id["compare.antisym"].status == "pass"
    assert by_id["compare.stages"].status == "informational"
    assert "run at stage 1;" in by_id["compare.stages"].details["note"]


def test_unicell_entries_count_only_refusals_as_failed_comparisons(
        r1, rng, monkeypatch):
    def raising(exc):
        def compare_orbits(*args):
            raise exc("raised by the test")
        return compare_orbits

    # a programming error surfaces instead of reading as a failed comparison
    monkeypatch.setattr(uni, "compare_orbits", raising(TypeError))
    with pytest.raises(TypeError):
        uni.unicell_entries(r1, 1, rng)
    # a documented refusal is counted
    monkeypatch.setattr(uni, "compare_orbits", raising(TruncationError))
    by_id = {e.claim_id: e for e in uni.unicell_entries(r1, 1, rng)}
    total = by_id["compare.total"]
    assert total.status == "fail" and total.measured > 0
    assert f"failed on {int(total.measured)} of {int(total.measured)} " \
        in total.description


def test_theil_sen_slope_equals_scipy_theilslopes(rng):
    from scipy.stats import theilslopes

    x = [math.log(1 / 2.0 ** -e) for e in range(6, 22)]
    for y in (rng.standard_normal(len(x)), np.cumsum(rng.standard_normal(16)),
              [3.0 * v + 1 for v in x]):
        want = float(theilslopes(y, x)[0])
        assert uni.theil_sen_slope(x, y) == want
    # repeated x values: pairs with equal x carry no slope
    xr = [0.0, 1.0, 1.0, 2.0, 3.0, 3.0]
    yr = rng.standard_normal(len(xr))
    assert uni.theil_sen_slope(xr, yr) == float(theilslopes(yr, xr)[0])
