"""Construction identities on drawn admissible schedules.

The strategy grows 1-2 stages the way ``profiles.statistical_schedule``
does, at minimal admissible growth (b = 2 xi + d + 1, c_1 = nu + 1,
c_i = h (c_1 + ... + c_{i-1}) + nu + 1, xi_{n+1} = fan end + 1), plus drawn
slack on each of those, and keeps every schedule at or below MAX_COLUMNS
columns.  A second stage is drawn only where its minimal growth fits.
Fans are Polys of degree <= d with coefficients in {-2, ..., 2}, so
multi-term, zero-constant and zero polynomials all occur; gammas are
declared dyadics or auto.  Calibration refuses a drawn schedule whose auto
gamma comes out at or below a later declared one, or at or above an earlier
one (a ScheduleError); the properties that need a basis run on the others.
"""

import hashlib
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

import orbitlab as ol
from orbitlab import basis as basis_mod
from orbitlab import geometry as geo
from orbitlab import operators as ops
from orbitlab.errors import ScheduleError
from orbitlab.negligibility import e0_functional_structural
from orbitlab.polynet import Poly

from conftest import combine_by_terms

MAX_COLUMNS = 5_000
PROPERTY_SETTINGS = dict(derandomize=True, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])
FIELD_MODES = [(ol.REAL, ol.FLOAT), (ol.COMPLEX, ol.FLOAT),
               (ol.REAL, ol.RATIONAL)]


def _fan(nu: int, h: int, k: int, slack) -> tuple[int, ...]:
    """c_1 .. c_k at minimal growth plus slack[i] on c_{i+1}."""
    c = []
    for i in range(k):
        c.append(h * sum(c) + nu + 1 + slack[i])
    return tuple(c)


def _xi_next(xi: int, b: int, h: int, k: int, slack=(0, 0), tail: int = 0) -> int:
    nu = xi * (b + 1)
    return h * sum(_fan(nu, h, k, slack)) + nu + 1 + tail


# the largest xi_2 from which every drawn d and b fit a minimal (h, k) = (1, 1)
# stage below MAX_COLUMNS
SEED_ROOM = max(xi for xi in range(1, 100)
                if _xi_next(xi, 2 * xi + 5, 1, 1) < MAX_COLUMNS)


@st.composite
def _stage(draw, xi, limit, scale, mode):
    """(StageParams, family, xi_next) of a stage grown from xi with
    xi_next < limit, or None when no drawn shape fits; scale holds the
    exponents of its dyadic gamma, delta and eps.  Slack that would overrun
    the limit is dropped."""
    d = draw(st.integers(0, 2))
    b = 2 * xi + d + 1 + draw(st.integers(0, 2))
    shapes = [(h, k) for h in (1, 2) for k in (1, 2)
              if _xi_next(xi, b, h, k) < limit]
    if not shapes:
        return None
    h, k = draw(st.sampled_from(shapes))
    slack = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
    tail = draw(st.integers(0, 5))
    if _xi_next(xi, b, h, k, slack, tail) >= limit:
        slack, tail = (0, 0), 0
    gamma, delta, eps = (Fraction(1, 1 << e) for e in scale)
    if mode == ol.FLOAT:
        gamma = float(gamma)
    params = ol.StageParams(xi=xi, b=b, c=_fan(xi * (b + 1), h, k, slack), h=h,
                            d=d, gamma=gamma if draw(st.booleans()) else None,
                            delta=float(delta), eps=float(eps))
    coeffs = st.lists(st.integers(-2, 2), min_size=1, max_size=d + 1)
    family = tuple(Poly(tuple(a)) for a in
                   draw(st.lists(coeffs, min_size=k, max_size=k + 1)))
    return params, family, _xi_next(xi, b, h, k, slack, tail)


@st.composite
def admissible(draw, modes=FIELD_MODES):
    """(schedule, families) with validate(schedule) == []: on half the draws
    two stages, the first one grown small enough for the second to fit."""
    field, mode = draw(st.sampled_from(modes))
    two = draw(st.booleans())
    xi, scale = draw(st.integers(1, 2 if two else 3)), [0, 0, 0]
    stages, families = [], []
    limits = [SEED_ROOM + 1, MAX_COLUMNS] if two else [MAX_COLUMNS]
    while limits:
        # gamma, delta and eps strictly decrease: 2^-e with e growing
        scale = [e + 1 + draw(st.integers(0, 2)) for e in scale]
        grown = draw(_stage(xi, limits.pop(0), scale, mode))
        if grown is None:  # no first stage of two fits: grow one stage only
            grown, limits = draw(_stage(xi, MAX_COLUMNS, scale, mode)), []
        params, family, xi = grown
        stages.append(params)
        families.append(family)
    sched = ol.StageSchedule(stages=tuple(stages), xi_end=xi,
                             scalar_field=field, weight_mode=mode)
    assert ol.validate(sched) == [], ol.validate(sched)
    assert sched.xi_end < MAX_COLUMNS
    return sched, tuple(families)


def _table(sched):
    return [iv for n in range(1, sched.n_stages + 1)
            for iv in geo.stage_table(sched, n)]


def _digests(basis):
    """sha256 of F and of E: indptr, indices, data and any exact pairs."""
    out = []
    for M, exact in ((basis.F_csc, basis._F_exact), (basis.E_csc, basis._E_exact)):
        h = hashlib.sha256()
        for a in (M.indptr, M.indices):
            h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(M.data).tobytes())
        for a in exact or ():
            h.update(",".join(map(str, a.tolist())).encode())
        out.append(h.hexdigest())
    return out


def _assembled(drawn):
    """assemble(*drawn), or None when calibration refuses a gamma."""
    try:
        return ol.assemble(*drawn)
    except ScheduleError as exc:
        assert all("breaks gamma strictly decreasing" in v for v in exc.violations), exc
        return None


def _reload(sched, fams):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "schedule.cfg"
        ol.save_config(path, sched, fams)
        return ol.load_config(path)


@settings(max_examples=200, **PROPERTY_SETTINGS)
@given(admissible())
def test_stage_tables_tile_each_stage(drawn):
    sched, _ = drawn
    for n, stage in enumerate(sched.stages, start=1):
        table = geo.stage_table(sched, n)
        assert table[0].lo == sched.xi(n) + 1
        assert table[-1].hi == sched.xi(n + 1)
        assert all(iv.lo <= iv.hi for iv in table)
        assert all(a.hi + 1 == b.lo for a, b in zip(table, table[1:]))
        b_fan = [iv for iv in table if isinstance(iv.tag, (geo.BLayOff, geo.BWorking))]
        assert list(table[:len(b_fan)]) == b_fan
        assert b_fan[-1].hi == stage.nu
        assert [iv.tag.r for iv in b_fan if isinstance(iv.tag, geo.BWorking)] == \
            list(range(1, stage.xi + 1))


@settings(max_examples=200, **PROPERTY_SETTINGS)
@given(admissible())
def test_locate_equals_a_scan_of_the_tables(drawn):
    sched, _ = drawn
    for iv in _table(sched):  # a linear scan of the tables laid end to end
        for j in range(iv.lo, iv.hi + 1):
            assert geo.locate(j, sched) == iv


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(admissible())
def test_config_roundtrip_reassembles_the_same_maps(drawn):
    sched, fams = drawn
    loaded = _reload(sched, fams)
    assert loaded == (sched, fams)
    got, want = (None if b is None else _digests(b)  # None: both refused
                 for b in map(_assembled, (loaded, (sched, fams))))
    assert got == want


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(admissible(modes=[(ol.REAL, ol.RATIONAL)]))
def test_rational_roundtrip_is_exact_both_ways(drawn):
    b = _assembled(drawn)
    assume(b is not None)
    assert ol.roundtrip_exact(b, "FE")[0]
    assert ol.roundtrip_exact(b, "EF")[0]


@settings(max_examples=60, **PROPERTY_SETTINGS)
@given(admissible())
def test_a_build_echo_loads_and_reassembles(drawn):
    # calibration refuses exactly the schedules whose echo, built without
    # the check, would not validate; any other build's echo declares every
    # gamma, loads, and re-assembles the same maps
    b = _assembled(drawn)
    with mock.patch.object(basis_mod, "_check_decrease", lambda *a: None):
        unchecked = ol.assemble(*drawn)
    assert (b is None) == (ol.validate(unchecked.schedule) != [])
    event("refused" if b is None else "built")
    if b is None:
        return
    assert _digests(unchecked) == _digests(b)
    echoed = _reload(b.schedule, b.families)
    assert all(stage.gamma is not None for stage in echoed[0].stages)
    assert _digests(ol.assemble(*echoed)) == _digests(b)


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(admissible(modes=[(ol.REAL, ol.RATIONAL)]))
def test_rational_operator_is_the_exact_product(drawn):
    # sampled columns of T, every multi-entry F column among them: T f_j
    # summed in Fractions through f_col and e_col, each entry rounded once,
    # gives exactly T's stored rows and floats
    b = _assembled(drawn)
    assume(b is not None)
    T, n = ops.conjugated_power(b), b.n_trunc
    multi = np.flatnonzero(np.diff(b.F_csc.indptr) > 1).tolist()
    for j in sorted(set(range(0, n + 1, max(1, n // 25))) | set(multi)):
        want = combine_by_terms(b.e_col, {i + 1: v for i, v in b.f_col(j).items() if i < n})
        rows = sorted(want)
        lo, hi = T.indptr[j], T.indptr[j + 1]
        assert T.indices[lo:hi].tolist() == rows, j
        assert T.data[lo:hi].tolist() == [float(want[i]) for i in rows], j


def _assert_same_vector(got, want, exact):
    """got == want: equal Fractions in rational mode, and in float mode within
    1e-10 of want's largest magnitude."""
    if exact:
        assert got == want
        return
    scale = max(abs(v) for v in want.values())
    for i in set(got) | set(want):
        assert abs(got.get(i, 0) - want.get(i, 0)) <= 1e-10 * scale, i


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(admissible())
def test_e_columns_are_the_structural_expansion(drawn):
    # every column of the assembled E against the region rules alone
    b = _assembled(drawn)
    assume(b is not None)
    for m in range(b.n_trunc + 1):
        _assert_same_vector(basis_mod.expand_e_structural(b, m), b.e_col(m),
                            b.mode == ol.RATIONAL)


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(admissible(), st.data())
def test_lattice_descent_is_the_triangular_solve(drawn, data):
    # drawn c-working indices j: the unrolled descent of j's lattice
    # coordinate gives the f-frame coordinates of e_j that solving F x = e_j
    # gives
    b = _assembled(drawn)
    assume(b is not None)
    working = [j for iv in _table(b.schedule) if isinstance(iv.tag, geo.CWorking)
               for j in range(iv.lo, iv.hi + 1)]
    for i in data.draw(st.lists(st.integers(0, len(working) - 1),
                                min_size=1, max_size=8, unique=True)):
        j = working[i]
        descent = ol.lattice_descent(b, geo.classify(j, b.schedule).coord)
        _assert_same_vector(descent.f_coords, basis_mod.solve_F(b, {j: 1}),
                            b.mode == ol.RATIONAL)


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(admissible())
def test_structural_head_functional_is_row_0_of_F(drawn):
    # the functional.crosscheck identity and bound, on every stage's head
    b = _assembled(drawn)
    assume(b is not None)
    for n in range(1, b.schedule.n_stages + 2):
        structural = e0_functional_structural(b.schedule, b.families, n)
        assembled = b.e0_functional(n)
        dev = max(abs(structural.get(j, 0) - assembled.get(j, 0))
                  for j in set(structural) | set(assembled))
        assert dev <= 1e-9 * max(1.0, basis_mod.vec_norm(assembled)), n
