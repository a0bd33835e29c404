"""Built-in schedules and fan-family profiles.

Two polynomial profiles ship with the package:

    orbit profile ("thm1")        fan family (1, zeta): leads with the
                                  constant so the punched-ball construction
                                  applies, with a genuine shift coupling in
                                  the second direction
    companion profile             fan family (zeta, zeta^2): constant terms
    ("orbit-reflexive")           vanish, which is what keeps the companion
                                  operator bounded

The reference schedule R1 keeps every verifier meaningful at laptop scale;
its gap parameter b = 64 sits below the threshold where the shade estimate
and the norm-vs-gap monotonicity hold (both need roughly b * 2^(-sqrt(b)/2)
small), so the acceptance tests assert those two on a b-calibrated twin
with b = 512.
"""

from __future__ import annotations

from dataclasses import replace

from .polynet import ONE, ZETA, Poly
from .schedule import FLOAT, REAL, StageParams, StageSchedule, validate

THM1_FAMILY = (ONE, ZETA)
COMPANION_FAMILY = (ZETA, Poly((0, 0, 1)))


def reference_schedule(weight_mode: str = FLOAT, field: str = REAL
                       ) -> tuple[StageSchedule, tuple]:
    """R1: the single-stage reference schedule (gamma auto-calibrated)."""
    st = StageParams(xi=4, b=64, c=(4096, 65536), h=2, d=4,
                     gamma=None, delta=0.25, eps=0.25)
    sched = StageSchedule(stages=(st,), xi_end=400_000, scalar_field=field,
                          weight_mode=weight_mode)
    return sched, (THM1_FAMILY,)


def mini_schedule(weight_mode: str = FLOAT, field: str = REAL,
                  companion: bool = False) -> tuple[StageSchedule, tuple]:
    """Two tiny stages; small enough for exhaustive exact-arithmetic checks."""
    s1 = StageParams(xi=2, b=7, c=(18, 52), h=1, d=2,
                     gamma=None, delta=0.25, eps=0.25)
    s2 = StageParams(xi=88, b=178, c=(15800,), h=1, d=1,
                     gamma=None, delta=0.125, eps=0.125)
    sched = StageSchedule(stages=(s1, s2), xi_end=31_600, scalar_field=field,
                          weight_mode=weight_mode)
    if companion:
        fams = (COMPANION_FAMILY, (ZETA,))
    else:
        fams = (THM1_FAMILY, (ONE,))
    return sched, fams


def statistical_schedule(n_stages: int = 6, field: str = REAL
                         ) -> tuple[StageSchedule, tuple]:
    """Virtual deep schedule for the sampling battery: minimal admissible
    growth, declared dyadic gammas, never materialized (the stage sizes grow
    doubly exponentially, which is exactly why the sparse functional form
    exists)."""
    stages = []
    fams = []
    xi = 2
    for n in range(1, n_stages + 1):
        b = 2 * xi + 2
        nu = xi * (b + 1)
        c1 = nu + 1
        c2 = c1 + nu + 1
        st = StageParams(xi=xi, b=b, c=(c1, c2), h=1, d=1,
                         gamma=2.0 ** (-n - 1), delta=2.0 ** (-n - 2),
                         eps=2.0 ** (-n - 2))
        stages.append(st)
        fams.append(THM1_FAMILY)
        xi = st.fan_end + 1
    sched = StageSchedule(stages=tuple(stages), xi_end=xi,
                          scalar_field=field, weight_mode=FLOAT)
    assert not validate(sched), validate(sched)
    return sched, tuple(fams)


def doubled_layoffs(schedule: StageSchedule) -> StageSchedule:
    """Schedule whose every lay-off gap is (essentially) twice as long.

    c-side gaps double exactly; the b-side gaps are tied to b, so b goes to
    2b - xi, which doubles the leading gap and the inner gaps up to an O(r)
    remainder.  Gammas reset to auto so the new frame constants recalibrate.
    """
    new_stages = []
    xi = None
    for n, st in enumerate(schedule.stages, start=1):
        xi = st.xi if xi is None else xi
        b2 = max(2 * st.b - st.xi, 2 * xi + st.d + 1)
        nu2 = xi * (b2 + 1)
        nu_old, c_old = st.nu, st.c
        c2: list[int] = []
        run_old, run_new = 0, 0
        for ci in c_old:
            gap = ci - st.h * run_old - nu_old - 1
            c2.append(st.h * run_new + nu2 + 1 + 2 * gap)
            run_old += ci
            run_new += c2[-1]
        fan_end_old = st.h * run_old + nu_old
        fan_end_new = st.h * run_new + nu2
        xi_next_old = schedule.xi(n + 1)
        xi_next = fan_end_new + 2 * (xi_next_old - fan_end_old)
        new_stages.append(replace(st, xi=xi, b=b2, c=tuple(c2), gamma=None))
        xi = xi_next
    return replace(schedule, stages=tuple(new_stages), xi_end=xi)
