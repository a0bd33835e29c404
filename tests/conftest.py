from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import orbitlab as ol
from orbitlab import geometry as geo
from orbitlab import operators as ops
from orbitlab.profiles import COMPANION_FAMILY, mini_schedule, reference_schedule


def reference_schedule_companion(weight_mode: str = ol.FLOAT, field: str = ol.REAL):
    """R1 with the zero-constant-term fan family (companion profile)."""
    sched, _ = reference_schedule(weight_mode, field)
    return sched, (COMPANION_FAMILY,)


def reference_schedule_bcal(weight_mode: str = ol.FLOAT, field: str = ol.REAL):
    """R1b: identical to R1 except b = 512, above the shade/monotonicity
    calibration threshold."""
    sched, fams = reference_schedule(weight_mode, field)
    st = replace(sched.stages[0], b=512)
    return replace(sched, stages=(st,)), fams


def region_interval(tag, schedule) -> tuple[int, int]:
    """[lo, hi] covered by the region (CWorking: its whole working interval),
    found by scanning the stage table."""
    if isinstance(tag, geo.Seed):
        return 0, schedule.xi(1)
    for iv in geo.stage_table(schedule, tag.n):
        t = iv.tag
        if isinstance(tag, geo.CWorking) and isinstance(t, geo.CWorking):
            if t.coord.r == tag.coord.r:
                return iv.lo, iv.hi
        elif t == tag:
            return iv.lo, iv.hi
    raise ValueError(f"region {tag} not found")


def layoff_weights(schedule):
    """(mask, weights) over [0, xi_end]: the lay-off indices of the schedule
    and the weight of each one (0 elsewhere), floats or in rational mode
    exact Fractions, from one geometry call per stage-table interval."""
    size = schedule.xi_end + 1
    mask = np.zeros(size, dtype=bool)
    weights = [0] * size
    for n in range(1, schedule.n_stages + 1):
        for iv in geo.stage_table(schedule, n):
            if not geo.is_layoff(iv.tag):
                continue
            mask[iv.lo:iv.hi + 1] = True
            if schedule.weight_mode == ol.RATIONAL:
                w = map(Fraction, *geo.interval_weight_pairs(iv, schedule, iv.lo, iv.hi))
            else:
                w = geo.interval_weights(iv, schedule, iv.lo, iv.hi).tolist()
            weights[iv.lo:iv.hi + 1] = w
    return mask, weights


def combine_by_terms(col, x):
    """Reference frame conversion: sum_j x_j * col(j) accumulated one term
    at a time in the order of x, each column read through f_col or e_col
    (Fractions in rational mode), zeros dropped at the end."""
    out = {}
    for j, c in x.items():
        if c != 0:
            for i, v in col(j).items():
                out[i] = out.get(i, 0) + c * v
    return {i: v for i, v in out.items() if v != 0}


def max_block_norm_by_svd(blocks, fro2, best):
    """Reference candidate loop of op_norm: one dense SVD per candidate
    block, in component order, the largest kept (fro2 is not read)."""
    for data, r, c, shape in blocks:
        block = np.zeros(shape, dtype=data.dtype)
        block[r, c] = data
        best = max(best, float(np.linalg.svd(block, compute_uv=False)[0]))
    return best


def op_norm_by_svd(M):
    """op_norm(M) through the reference candidate loop."""
    pruned = ops._max_block_norm
    ops._max_block_norm = max_block_norm_by_svd
    try:
        return ops.op_norm(M)
    finally:
        ops._max_block_norm = pruned


@pytest.fixture(scope="session")
def r1():
    sched, fams = reference_schedule()
    return ol.assemble(sched, fams)


@pytest.fixture(scope="session")
def r1_rational():
    sched, fams = reference_schedule(weight_mode=ol.RATIONAL)
    return ol.assemble(sched, fams)


@pytest.fixture(scope="session")
def r1_companion():
    sched, fams = reference_schedule_companion()
    return ol.assemble(sched, fams)


@pytest.fixture(scope="session")
def r1_companion_rational():
    sched, fams = reference_schedule_companion(weight_mode=ol.RATIONAL)
    return ol.assemble(sched, fams)


@pytest.fixture(scope="session")
def r1b():
    sched, fams = reference_schedule_bcal()
    return ol.assemble(sched, fams)


@pytest.fixture(scope="session")
def mini():
    sched, fams = mini_schedule()
    return ol.assemble(sched, fams)


@pytest.fixture(scope="session")
def mini_rational():
    sched, fams = mini_schedule(weight_mode=ol.RATIONAL)
    return ol.assemble(sched, fams)


@pytest.fixture()
def rng():
    return np.random.default_rng(20250810)
