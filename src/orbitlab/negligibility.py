"""Monte Carlo checks of the head-coordinate anti-concentration bound and the
half-porosity ball construction.

The e_0 coordinate functional at stage n pairs nontrivially with very few
basis vectors: f_0 itself, and the base vector of each fan direction of the
earlier stages (value: minus the constant coefficient of the fan polynomial
over that stage's gamma).  This sparse form makes arbitrarily deep stages
usable without materializing their truncations; it is cross-checked against
row 0 of the assembled change-of-basis wherever one is built.

Gaussian conventions: a complex standard normal has independent real and
imaginary parts of unit variance, which matches the two-dimensional density
behind the quadratic tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import vec_norm
from .errors import PreconditionError, ProfileError
from .polynet import ONE, left_sum
from .report import Entry, check
from .schedule import COMPLEX, StageSchedule

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
TRIALS = 100_000          # draws per statistics row
POROSITY_PAIRS = 100      # (vector, radius) pairs of the porosity.witness row
WITNESS_SAMPLES = 32      # sampled points of each punched ball
POROSITY_M = 2.0          # M of the porosity rows' small-head level 2^-k M


# -- the sparse head functional --------------------------------------------------

def e0_functional_structural(schedule: StageSchedule, families,
                             n: int) -> dict[int, float]:
    """Support and values of the stage-n head functional, from the schedule
    alone: {0: 1} plus each fan base point c_{t,m} of stages m < n with value
    -a_0 / gamma_m (a_0 the constant coefficient of that fan polynomial)."""
    out: dict[int, float] = {0: 1.0}
    for m in range(1, n):
        st = schedule.stage(m)
        g = st.gamma
        if g is None:
            raise ProfileError(f"gamma of stage {m} is not set")
        for t in range(1, st.k + 1):
            a0 = families[m - 1][t - 1].constant_term()
            if a0 != 0:
                out[st.c[t - 1]] = -float(a0) / float(g)
    return out


def apply_functional(phi: dict, x_f: dict):
    return left_sum(phi[j] * x_f.get(j, 0) for j in phi)


def functional_gamma_identity(schedule: StageSchedule, families, k: int):
    """The pairing of the head functional with the first fan base vector of
    stage k equals -1/gamma_k exactly; requires that stage's first fan
    polynomial to be the constant 1."""
    if families[k - 1][0] != ONE:
        raise ProfileError(
            "first fan polynomial is not the constant 1; the base-vector "
            "pairing identity does not apply")
    phi = e0_functional_structural(schedule, families, k + 1)
    return phi[schedule.stage(k).c[0]], -1.0 / float(schedule.stage(k).gamma)


# -- Gaussian sampling -------------------------------------------------------------

@dataclass(frozen=True)
class GaussianSampler:
    """Random series sum c_j g_j f_j, c_j = 1 / (1 + j), truncated to the
    support that the head functional sees."""

    field: str
    seed: int

    def coefficients(self, support: Sequence[int]) -> np.ndarray:
        return np.array([_coeff(j) for j in support], dtype=float)

    def draw(self, m: int, k: int, rng: np.random.Generator) -> np.ndarray:
        if self.field == COMPLEX:
            return rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        return rng.standard_normal((m, k))


def _chunked_draw(sampler: GaussianSampler, trials: int, k: int):
    """Deterministic chunked sampling: fixed-size chunks, each drawn from its
    own child of the sampler seed's SeedSequence."""
    chunk = 20_000
    seqs = np.random.SeedSequence(sampler.seed).spawn(max(1, (trials + chunk - 1) // chunk))
    sizes = [min(chunk, trials - i * chunk) for i in range(len(seqs))]
    return np.concatenate([sampler.draw(m, k, np.random.default_rng(sq))
                           for sq, m in zip(seqs, sizes)], axis=0)


@dataclass(frozen=True)
class CoordStat:
    level: float
    trials: int
    hits: int
    empirical: float
    conf_radius: float
    analytic_bound: float
    passed: bool
    mean_closed: complex
    sigma_closed: float


def _head_law(phi: dict, x0_f: dict, sampler: GaussianSampler):
    """(mean m0, weights c_j phi_j on the sorted support) of the head coordinate."""
    supp = sorted(phi)
    m0 = left_sum(phi[j] * x0_f.get(j, 0) for j in supp)
    return m0, sampler.coefficients(supp) * np.array([phi[j] for j in supp], dtype=float)


def head_moments(phi: dict, x0_f: dict, sampler: GaussianSampler):
    """Closed-form mean and standard deviation of the sampled head coordinate."""
    m0, w = _head_law(phi, x0_f, sampler)
    return m0, float(np.sqrt(np.sum(np.abs(w) ** 2)))


def sample_head_coordinate(phi: dict, x0_f: dict, sampler: GaussianSampler,
                           trials: int) -> np.ndarray:
    m0, w = _head_law(phi, x0_f, sampler)
    return m0 + _chunked_draw(sampler, trials, len(w)) @ w


def _small_ball_bound(level: float, c0_abs: float, field: str) -> float:
    """Anti-concentration bound on P(|head coordinate| <= level), head coefficient
    of modulus c0_abs: level / c0_abs (real), level^2 / (2 c0_abs^2) (complex)."""
    if field == COMPLEX:
        return level ** 2 / (2 * c0_abs ** 2)
    return level / c0_abs


def coord_tail_probability(phi: dict, x0_f: dict, sampler: GaussianSampler,
                           n: int, Ms: Sequence[float], trials: int
                           ) -> tuple[CoordStat, ...]:
    """For each M in Ms, the empirical P(|head coordinate| <= 2^-n M) against
    the anti-concentration bound, every level read from one sample."""
    if trials < 1000:
        raise ValueError("at least 1000 trials required")
    X = np.abs(sample_head_coordinate(phi, x0_f, sampler, trials))
    m0, sig = head_moments(phi, x0_f, sampler)
    stats = []
    for M in Ms:
        level = 2.0 ** (-n) * M
        hits = int(np.count_nonzero(X <= level))
        emp = hits / trials
        radius = Z99 * math.sqrt(max(emp * (1 - emp), 1.0 / trials) / trials)
        bound = _small_ball_bound(level, _coeff(0), sampler.field)
        stats.append(CoordStat(level, trials, hits, emp, radius, bound,
                               emp - radius <= bound, m0, sig))
    return tuple(stats)


def borel_cantelli_sum(c0_abs: float, M: float, n_stages: int, field: str
                       ) -> tuple[float, float]:
    """(partial sum over n = 1..n_stages of the analytic bounds, geometric
    bound of the remaining tail)."""
    if n_stages < 2:
        raise ValueError("at least 2 stages required")
    partial = left_sum(_small_ball_bound(2.0 ** (-n) * M, c0_abs, field)
                       for n in range(1, n_stages + 1))
    head = _small_ball_bound(M, c0_abs, field)
    tail = head * (4.0 ** -n_stages) / 3 if field == COMPLEX else head * 2.0 ** -n_stages
    return partial, tail


# -- porosity ------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessRecord:
    selected: bool             # delta/2 * ||functional|| > 2 * 2^-k * M
    sample_values: tuple[float, ...]
    level: float               # 2^-k * M
    passed: bool


def porosity_witness(phi: dict, x_f: dict, delta: float, M: float, k: int,
                     rng: np.random.Generator) -> WitnessRecord:
    """Displace x by delta along the functional's maximizing direction and
    check that the half-radius ball around the displacement clears the
    small-coordinate level.  Deterministic once the stage selection
    inequality holds; the sampled points are a belt-and-braces check."""
    if delta <= 0:
        raise PreconditionError("displacement radius must be positive")
    norm = vec_norm(phi)
    level = 2.0 ** (-k) * M
    x_val = abs(apply_functional(phi, x_f))
    if x_val > level:
        raise PreconditionError(
            f"|functional(x)| = {x_val:.3g} is not below the level {level:.3g}")
    if not 0.5 * delta * norm > 2 * level:
        return WitnessRecord(False, (), level, False)
    supp = sorted(phi)
    xk = {j: complex(phi[j]).conjugate() / norm for j in supp}
    xk = {j: v.real if v.imag == 0 else v for j, v in xk.items()}
    y = dict(x_f)
    for j, v in xk.items():
        y[j] = y.get(j, 0) + delta * v
    dims = supp + [max(supp) + 1, max(supp) + 2]
    values = []
    for _ in range(WITNESS_SAMPLES):
        w = rng.standard_normal(len(dims))
        w /= np.linalg.norm(w)
        radius = 0.999 * (delta / 2) * rng.uniform() ** (1.0 / len(dims))
        z = dict(y)
        for j, wj in zip(dims, w):
            z[j] = z.get(j, 0) + radius * wj
        values.append(abs(apply_functional(phi, z)))
    passed = all(v > level for v in values)
    return WitnessRecord(True, tuple(values), level, passed)


# -- report rows ----------------------------------------------------------------------

def _coeff(j: int) -> float:
    """c_j = 1 / (1 + j), the coefficients of the sampled series."""
    return 1.0 / (1.0 + j)


def statistics_entries(schedule: StageSchedule, families, seed: int
                       ) -> list[Entry]:
    """Anti-concentration grid (stages 1..6, M in {1, 4}) and moment checks
    for one schedule (its field), TRIALS draws each."""
    field = schedule.scalar_field
    entries: list[Entry] = []
    for n in range(1, 7):
        if n > schedule.n_stages:
            break
        phi = e0_functional_structural(schedule, families, n)
        sampler = GaussianSampler(field, seed + 17 * n)
        stats = coord_tail_probability(phi, {}, sampler, n, (1.0, 4.0), TRIALS)
        for M, st in zip((1.0, 4.0), stats):
            entries.append(check(
                f"gauss.tail.{field}.n{n}.M{int(M)}",
                f"empirical small-head probability minus 99% radius vs the "
                f"analytic bound ({field} field)",
                st.empirical - st.conf_radius, st.analytic_bound, asserted=True,
                details={"empirical": st.empirical, "hits": st.hits,
                         "sigma": st.sigma_closed, "trials": TRIALS}))
    n_mom = min(3, schedule.n_stages)
    phi = e0_functional_structural(schedule, families, n_mom)
    sampler = GaussianSampler(field, seed + 1)
    x0 = {0: 0.25, 1: -0.5}
    X = sample_head_coordinate(phi, x0, sampler, TRIALS)
    m0, sig = head_moments(phi, x0, sampler)
    se_mean = sig / math.sqrt(TRIALS)
    if field == COMPLEX:
        emp_mean = complex(np.mean(X))
        emp_var = float(np.mean(np.abs(X - m0) ** 2) / 2)
        se_var = sig ** 2 / math.sqrt(TRIALS)
    else:
        emp_mean = float(np.mean(X))
        emp_var = float(np.var(X))
        se_var = sig ** 2 * math.sqrt(2.0 / TRIALS)
    entries.append(check(
        f"gauss.mean.{field}", "sampled head-coordinate mean vs closed form "
        "(3 standard errors)",
        abs(emp_mean - m0), 3 * se_mean, asserted=True))
    entries.append(check(
        f"gauss.var.{field}", "sampled head-coordinate variance vs closed form "
        "(3 standard errors)",
        abs(emp_var - sig ** 2), 3 * se_var, asserted=True))
    entries.append(check(
        f"gauss.sigma_floor.{field}",
        "closed-form standard deviation never below |c_0| (exact)",
        abs(_coeff(0)), sig + 1e-15, asserted=True))
    if schedule.n_stages >= 2:
        partial, tail = borel_cantelli_sum(abs(_coeff(0)), 1.0,
                                           schedule.n_stages, field)
        entries.append(check(
            f"gauss.series.{field}",
            "partial sum of the analytic bounds plus its geometric tail "
            "(finite, reported)",
            partial + tail, None, asserted=False,
            details={"partial": partial, "tail": tail}))
    return entries


def porosity_entries(schedule: StageSchedule, families, k: int,
                     seed: int) -> list[Entry]:
    rng = np.random.default_rng(seed)
    phi = e0_functional_structural(schedule, families, k)
    norm = vec_norm(phi)
    entries: list[Entry] = []
    pairing = f"porosity.pairing.stage{k - 1}"
    try:
        val, expected = functional_gamma_identity(schedule, families, k - 1)
    except ProfileError as exc:
        entries.append(check(pairing, f"pairing identity skipped: {exc}",
                             None, 0.0, asserted=False))
    else:
        entries.append(check(
            pairing, "head functional on the first fan base vector equals "
            "-1/gamma exactly", abs(val - expected), 0.0, asserted=True,
            details={"value": val, "norm_lower_bound": abs(expected),
                     "functional_norm": norm}))
    entries.append(check(
        f"porosity.normgrowth.stage{k}",
        f"functional norm vs the dyadic growth target 2^{k}",
        2.0 ** k, norm, asserted=False,
        details={"note": "informational at desk scale; holds when gamma is "
                         "capped dyadically"}))
    level = 2.0 ** (-k) * POROSITY_M
    delta_min = 2 * 2 * level / norm
    failures = 0
    run = 0
    for _ in range(POROSITY_PAIRS):
        x = {j: float(v) for j, v in zip(sorted(phi),
                                         0.1 * rng.standard_normal(len(phi)))}
        val_x = apply_functional(phi, x)
        if abs(val_x) > level:          # shrink into the small-coordinate set
            scale = 0.5 * level / abs(val_x)
            x = {j: v * scale for j, v in x.items()}
        delta = delta_min * float(rng.uniform(1.05, 50.0))
        rec = porosity_witness(phi, x, delta, POROSITY_M, k, rng)
        run += 1
        if not (rec.selected and rec.passed):
            failures += 1
    entries.append(check(
        f"porosity.witness.stage{k}",
        f"punched-ball witness failed on {failures} of {run} sampled "
        "(vector, radius) pairs with a valid stage selection",
        float(failures), 0.0, asserted=True,
        details={"M": POROSITY_M, "level": level, "delta_min": delta_min}))
    return entries
