import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import orbitlab as ol
from orbitlab.basis import poly_shift_apply
from orbitlab.errors import NetSizeError
from orbitlab.polynet import (ONE, ZETA, Poly, b_damped,
                              ell1_distance, generate_net, nearest_member)


def test_net_d1_r1_rho1_members():
    net = generate_net(degree=1, radius=1, resolution=1)
    got = {p.coeffs for p in net.members}
    assert got == {(), (1,), (-1,), (0, 1), (0, -1)}
    assert len(net) == 5


def test_net_zero_constant_term():
    net = generate_net(degree=1, radius=1, resolution=1,
                       constraint=ol.ZERO_CONSTANT_TERM)
    assert {p.coeffs for p in net.members} == {(), (0, 1), (0, -1)}
    assert len(net) == 3


def test_net_deterministic_order():
    a = generate_net(degree=2, radius=1, resolution=0.5)
    b = generate_net(degree=2, radius=1, resolution=0.5)
    assert a.members == b.members
    norms = [float(p.ell1) for p in a.members]
    assert norms == sorted(norms)


def test_net_covering_d1(rng):
    net = generate_net(degree=1, radius=1, resolution=1)
    for _ in range(1000):
        v = rng.uniform(-1, 1, size=2)
        s = abs(v).sum()
        if s > 1:
            v /= s * (1 + 1e-12)
        p = Poly(tuple(v))
        _, d = nearest_member(net.members, p)
        assert d <= 2 * 1 + 1e-12  # (d+1) * rho


def test_net_covering_general(rng):
    net = generate_net(degree=2, radius=2, resolution=0.5)
    for _ in range(300):
        v = rng.uniform(-1, 1, size=3)
        v *= rng.uniform(0, 2) / max(abs(v).sum(), 1e-9)
        _, d = nearest_member(net.members, Poly(tuple(v)))
        assert d <= 3 * 0.5 + 1e-12


def test_net_complex_covering(rng):
    net = generate_net(degree=1, radius=1, resolution=0.5, field=ol.COMPLEX)
    assert all(p.ell1 <= 1 + 1e-12 for p in net.members)
    for _ in range(200):
        v = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        s = sum(abs(c) for c in v)
        if s > 1:
            v /= s * (1 + 1e-12)
        _, d = nearest_member(net.members, Poly(tuple(v)))
        assert d <= 2 * 0.5 + 1e-12


def test_net_cap_error_names_cap():
    with pytest.raises(NetSizeError) as exc:
        generate_net(degree=30, radius=2, resolution=0.01, cap=1000)
    assert "1000" in str(exc.value)


def test_apply_poly_examples():
    # p(T) e_3 in e-frame coordinates, T the shift truncated at 7
    assert poly_shift_apply(ONE, {3: 1.0}, 7) == {3: 1.0}
    assert poly_shift_apply(ZETA, {3: 1.0}, 7) == {4: 1.0}
    # truncated shift with xi = 2 kills zeta^2 e_1
    assert poly_shift_apply(Poly((0, 0, 1)), {1: 1.0}, 2) == {}


def test_b_damped_examples():
    q = b_damped(ZETA, 4, degree_cap=10)
    assert q.coeffs == (0,) * 5 + (Fraction(1, 4),)
    assert q.ell1 == Fraction(1, 4)
    assert q.degree == 5
    assert b_damped(Poly(()), 4, degree_cap=10).is_zero
    p = Poly((1, 1, 1))  # |p| = 3
    assert float(b_damped(p, 4, degree_cap=10).ell1) == pytest.approx(3 / 4)
    with pytest.raises(ValueError):
        b_damped(Poly((0, 1)), 10, degree_cap=10)


@given(st.lists(st.floats(-2, 2), min_size=0, max_size=5),
       st.lists(st.floats(-2, 2), min_size=0, max_size=5))
def test_ell1_submultiplicative(a, b):
    p, q = Poly(tuple(a)), Poly(tuple(b))
    assert float((p * q).ell1) <= float(p.ell1) * float(q.ell1) + 1e-9


@given(st.lists(st.floats(-2, 2), min_size=1, max_size=5),
       st.integers(1, 20))
def test_b_damping_divides_ell1_exactly(a, b):
    p = Poly(tuple(a))
    q = b_damped(p, b, degree_cap=24)
    assert float(q.ell1) == pytest.approx(float(p.ell1) / b, rel=1e-12, abs=1e-300)


def test_poly_trim_and_degree():
    assert Poly((1, 0, 0)).coeffs == (1,)
    assert Poly(()).degree == -1
    assert Poly((0, 1)).degree == 1
    assert ell1_distance(Poly((1,)), Poly((0, 1))) == 2


def test_poly_sub_trims_and_matches_ell1_distance():
    assert Poly((1, 2, 3)) - Poly((0, 0, 3)) == Poly((1, 2))
    assert (Poly((1, 2, 3)) - Poly((0, 0, 3))).coeffs == (1, 2)
    assert (Poly((0.5, 1.0)) - Poly((0.5, 1.0))).coeffs == ()
    assert (Poly((1,)) - Poly((0, 0, 2))).coeffs == (1, 0, -2)
    assert (Poly(()) - Poly((0, 1))).coeffs == (0, -1)
    cases = [
        (Poly((0.25, -1.5, 3.0)), Poly((0.25, 0.5))),
        (Poly((Fraction(1, 3), Fraction(-2, 7))),
         Poly((Fraction(1, 5), Fraction(-2, 7), Fraction(1, 9)))),
        (Poly((1 + 2j, -0.5j)), Poly((1 - 1j, -0.5j, 0.25))),
    ]
    for p, q in cases:
        assert ell1_distance(p, q) == (p - q).ell1
        assert ell1_distance(q, p) == (q - p).ell1
    exact = cases[1][0] - cases[1][1]
    assert all(isinstance(a, Fraction) for a in exact.coeffs)
