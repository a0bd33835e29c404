"""Index geometry: region classification, lay-off weights, lattice coordinates.

Every index j of [0, xi_{N+1}] lies in exactly one region; above xi_1, in an
interval of the one table ``locate`` bisects (every ``stage_table`` in order):

    Seed          j <= xi_1, the basis is left untouched (f_j = e_j)
    BWorking      [r(b+1), r*b + xi] for r = 1..xi, difference vectors
    BLayOff       the gaps between b-working intervals
    CWorking      [L, L + nu] for lattice points L = sum r_i c_i, r != 0
    CLayOff       the gaps between c-working intervals (first one included)
    TailLayOff    from the fan end to xi_{n+1}

On a lay-off interval written as [r+1, r+s] the weight of index j is
2^((s/2 + r + 1 - j)/sqrt(s)); b-side lay-offs use sqrt(b) and b/2 in place
of the actual interval length, which keeps the iterated-power ratios of the
shade estimate independent of the gap position.  ``_exponent_line`` is the
one home of that formula; ``_exponents`` gives it as one array over a run of
indices of one stage-table interval, and ``max_abs_exponent`` its largest
magnitude on the interval.  ``interval_weights`` raises 2 to it entrywise,
as floats only; ``interval_dyadics`` gives the rational-mode weights as
mantissa/exponent arrays (``pow2_dyadics``), and ``interval_weight_pairs``
as the integer pairs ``dyadic_pairs`` makes of them.  ``layoff_weight`` is
the one-index case of either, per weight mode.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from typing import Union

import numpy as np

from .errors import ScheduleError, TruncationError
from .schedule import RATIONAL, StageSchedule

MAX_LATTICE_POINTS = 1_000_000
DYADIC_BITS = 40  # significant bits of every rational-mode dyadic


# -- region tags --------------------------------------------------------------

@dataclass(frozen=True)
class Seed:
    pass


@dataclass(frozen=True)
class BLayOff:
    n: int
    r: int  # number of b-working intervals strictly below (0 = leading gap)


@dataclass(frozen=True)
class BWorking:
    n: int
    r: int  # covers [r(b+1), r*b + xi]


@dataclass(frozen=True)
class CLayOff:
    n: int
    ordinal: int  # 0 = [nu+1, c_1-1], then gaps between lattice blocks in order


@dataclass(frozen=True)
class LatticeCoord:
    n: int
    r: tuple[int, ...]
    alpha: int

    @property
    def t(self) -> int:
        """Largest direction (1-based) with a nonzero coordinate."""
        for i in range(len(self.r) - 1, -1, -1):
            if self.r[i]:
                return i + 1
        raise ValueError("lattice coordinate must not be all zero")

    @property
    def abs_r(self) -> int:
        return sum(self.r)


@dataclass(frozen=True)
class CWorking:
    n: int
    coord: LatticeCoord


@dataclass(frozen=True)
class TailLayOff:
    n: int


RegionTag = Union[Seed, BLayOff, BWorking, CLayOff, CWorking, TailLayOff]


# -- per-stage interval table --------------------------------------------------

@dataclass(frozen=True)
class _Interval:
    lo: int
    hi: int
    tag: RegionTag


@lru_cache(maxsize=64)
def stage_table(schedule: StageSchedule, n: int) -> tuple[_Interval, ...]:
    """All intervals of stage n in increasing order, tiling (xi_n, xi_{n+1}]."""
    st = schedule.stage(n)
    xi, b, nu = st.xi, st.b, st.nu
    out: list[_Interval] = []
    pos = xi + 1
    for r in range(1, xi + 1):
        lo, hi = r * (b + 1), r * b + xi
        if lo > pos:
            out.append(_Interval(pos, lo - 1, BLayOff(n, r - 1)))
        out.append(_Interval(lo, hi, BWorking(n, r)))
        pos = hi + 1
    if pos != nu + 1:
        raise ScheduleError([f"b-fan does not end at nu at stage {n}"])

    n_points = (st.h + 1) ** st.k
    if n_points > MAX_LATTICE_POINTS:
        raise ScheduleError(
            [f"lattice of stage {n} has {n_points} points (cap {MAX_LATTICE_POINTS})"]
        )
    lattice = sorted(
        (sum(ri * ci for ri, ci in zip(r, st.c)), r)
        for r in product(range(st.h + 1), repeat=st.k)
        if any(r)
    )
    ordinal = 0
    for L, r in lattice:
        if L > pos:
            out.append(_Interval(pos, L - 1, CLayOff(n, ordinal)))
            ordinal += 1
        elif L < pos:
            raise ScheduleError([f"overlapping c-working intervals at stage {n}"])
        out.append(_Interval(L, L + nu, CWorking(n, LatticeCoord(n, r, 0))))
        pos = L + nu + 1
    xi_next = schedule.xi(n + 1)
    if pos <= xi_next:
        out.append(_Interval(pos, xi_next, TailLayOff(n)))
    elif pos != xi_next + 1:
        raise ScheduleError([f"fan of stage {n} overruns xi_{n + 1}"])
    return tuple(out)


@lru_cache(maxsize=64)
def _intervals(schedule: StageSchedule) -> tuple[tuple[int, ...], tuple[_Interval, ...]]:
    """(starts, table) of every stage table in stage order, tiling (xi_1, xi_end]."""
    table = tuple(iv for n in range(1, schedule.n_stages + 1)
                  for iv in stage_table(schedule, n))
    return tuple(iv.lo for iv in table), table


def locate(j: int, schedule: StageSchedule) -> _Interval:
    """The interval holding index j > xi_1: one bisection of the one table."""
    starts, table = _intervals(schedule)
    iv = table[bisect.bisect_right(starts, j) - 1]
    assert iv.lo <= j <= iv.hi
    return iv


def classify(j: int, schedule: StageSchedule) -> RegionTag:
    """The unique region containing index j; CWorking carries the full coordinate."""
    if j < 0 or j > schedule.xi_end:
        raise TruncationError(f"index {j} outside truncation [0, {schedule.xi_end}]")
    if j <= schedule.xi(1):
        return Seed()
    iv = locate(j, schedule)
    tag = iv.tag
    if isinstance(tag, CWorking):
        return CWorking(tag.n, LatticeCoord(tag.n, tag.coord.r, j - iv.lo))
    return tag


def is_layoff(tag: RegionTag) -> bool:
    return isinstance(tag, (BLayOff, CLayOff, TailLayOff))


# -- lay-off weights -----------------------------------------------------------

def _exponents(iv: _Interval, schedule: StageSchedule, j_lo: int,
               j_hi: int) -> np.ndarray:
    """Exponents e_j, j = j_lo..j_hi, of the lay-off interval iv (checked to
    hold them): the weight of index j is 2^e_j, with e_j = (top - j) / root,

        e = (s/2 + lo - j) / sqrt(s)            s = hi - lo + 1
        e = (b/2 + r*b + xi + 1 - j) / sqrt(b)  b-side gap [r*b + xi + 1, ...]

    Each entry is bit for bit the scalar (top - j) / root: int -> float is
    exact below 2^53, and - and / are correctly rounded."""
    top, root = _exponent_line(iv, schedule)
    if j_lo < iv.lo or j_hi > iv.hi:
        raise ValueError(f"indices [{j_lo}, {j_hi}] outside [{iv.lo}, {iv.hi}]")
    return (top - np.arange(j_lo, j_hi + 1)) / root


def _exponent_line(iv: _Interval, schedule: StageSchedule) -> tuple[float, float]:
    """(top, root) of the lay-off interval iv: e_j = (top - j) / root."""
    tag = iv.tag
    if not is_layoff(tag):
        raise ValueError(f"interval [{iv.lo}, {iv.hi}] is not a lay-off ({tag})")
    if isinstance(tag, BLayOff):
        st = schedule.stage(tag.n)
        return 0.5 * st.b + tag.r * st.b + st.xi + 1, math.sqrt(st.b)
    s = iv.hi - iv.lo + 1
    return 0.5 * s + iv.lo, math.sqrt(s)


def max_abs_exponent(iv: _Interval, schedule: StageSchedule) -> float:
    """max |e_j| over the lay-off interval iv (see _exponents): e_j falls
    as j grows, so one of the interval's ends attains it."""
    top, root = _exponent_line(iv, schedule)
    return max(abs(top - iv.lo), abs(top - iv.hi)) / root


def _pow2(e: np.ndarray) -> np.ndarray:
    """2.0 ** e entrywise, bit for bit: Python's float power and math.pow both
    call the C library's pow.  (np.power and np.exp2 may dispatch to other
    SIMD code and round differently.)"""
    return np.fromiter(map(math.pow, repeat(2.0), e.tolist()), float, len(e))


def dyadic_pairs(mant: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mant * 2^s entrywise (int64 arrays, mant != 0) as coprime (numerator,
    denominator) object arrays of Python ints: for s < 0 the mantissa's
    trailing zero bits cancel against the denominator."""
    tz = np.minimum(np.frexp(mant & -mant)[1] - 1, np.maximum(-s, 0))
    num = (mant >> tz).astype(object) << np.maximum(s, 0).astype(object)
    return num, np.left_shift(1, (np.maximum(-s, 0) - tz).astype(object))


def pow2_dyadics(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2^e entrywise as exact dyadics mant * 2^s with DYADIC_BITS significant
    bits (int64 arrays, 0 < mant <= 2^DYADIC_BITS): the nearest dyadic (ties
    to even) of 2^frac(e), shifted by floor(e)."""
    ip = np.floor(e)
    m, k = np.frexp(_pow2(e - ip))
    mant = np.rint(m * (1 << DYADIC_BITS)).astype(np.int64)
    return mant, k + ip.astype(np.int64) - DYADIC_BITS


def interval_weights(iv: _Interval, schedule: StageSchedule, j_lo: int,
                     j_hi: int) -> np.ndarray:
    """Float weights 2^e_j of the indices j_lo..j_hi of the lay-off interval
    iv (see _exponents), in either weight mode; the rational-mode weights
    are interval_weight_pairs."""
    return _pow2(_exponents(iv, schedule, j_lo, j_hi))


def interval_dyadics(iv: _Interval, schedule: StageSchedule, j_lo: int,
                     j_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The 40-bit dyadic weights mant * 2^s of the indices j_lo..j_hi of iv
    as (mant, s) int64 arrays (see pow2_dyadics)."""
    return pow2_dyadics(_exponents(iv, schedule, j_lo, j_hi))


def interval_weight_pairs(iv: _Interval, schedule: StageSchedule, j_lo: int,
                          j_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The 40-bit dyadic weights of the indices j_lo..j_hi of iv as coprime
    (numerators, denominators) object arrays, built without a Fraction."""
    return dyadic_pairs(*interval_dyadics(iv, schedule, j_lo, j_hi))


def dyadic(x: float) -> Fraction:
    """x rounded down to a Fraction m / 2^e with a DYADIC_BITS-bit mantissa:
    the largest such dyadic that is at most x."""
    if x == 0:
        return Fraction(0)
    m, e = math.frexp(x)  # x = m * 2^e, 0.5 <= |m| < 1
    num, den = dyadic_pairs(np.array([math.floor(m * (1 << DYADIC_BITS))]),
                            np.array([e - DYADIC_BITS]))
    return Fraction(num[0], den[0])


def layoff_weight(j: int, schedule: StageSchedule):
    """Weight of a lay-off index, as a float or a 40-bit dyadic Fraction per
    weight mode: interval_weights or interval_weight_pairs on the
    stage-table interval holding j.  A caller that walks a whole interval
    should call those once instead."""
    tag = classify(j, schedule)
    if not is_layoff(tag):
        raise ValueError(f"index {j} is not in a lay-off region ({tag})")
    iv = locate(j, schedule)
    if schedule.weight_mode == RATIONAL:
        (num,), (den,) = interval_weight_pairs(iv, schedule, j, j)
        return Fraction(num, den)
    return interval_weights(iv, schedule, j, j).item()


# -- lattice coordinate arithmetic ----------------------------------------------

def coord_to_index(coord: LatticeCoord, schedule: StageSchedule) -> int:
    st = schedule.stage(coord.n)
    if len(coord.r) != st.k:
        raise ValueError(f"coordinate has {len(coord.r)} entries, stage has k={st.k}")
    if not any(coord.r):
        raise ValueError("lattice coordinate must not be all zero")
    if any(ri < 0 or ri > st.h for ri in coord.r):
        raise ValueError(f"coordinates must lie in [0, {st.h}]")
    if not 0 <= coord.alpha <= st.nu:
        raise ValueError(f"offset {coord.alpha} outside [0, {st.nu}]")
    return sum(ri * ci for ri, ci in zip(coord.r, st.c)) + coord.alpha


def index_to_coord(j: int, schedule: StageSchedule) -> LatticeCoord:
    """Greedy decomposition (largest c first); the c-gap invariants make it exact."""
    tag = classify(j, schedule)
    if not isinstance(tag, CWorking):
        raise ValueError(f"index {j} is not in a c-working interval ({tag})")
    st = schedule.stage(tag.n)
    rest = j
    r = [0] * st.k
    for i in range(st.k - 1, -1, -1):
        r[i] = min(st.h, rest // st.c[i])
        rest -= r[i] * st.c[i]
    coord = LatticeCoord(tag.n, tuple(r), rest)
    assert coord == tag.coord, f"greedy decomposition mismatch at {j}"
    return coord
