"""Stage-parameter schedules: validation, truncation bookkeeping, config I/O.

A schedule fixes, for each stage n >= 1, the numbers that shape the basis
construction on the index block (xi_n, xi_{n+1}]:

    xi     last index owned by the previous stages
    b      offset of the difference vectors in the b-fan
    nu     end of the b-fan, always xi * (b + 1)
    c      base points of the c-fan lattice (k of them, increasing)
    h      maximal lattice coordinate (shade count per direction)
    k      number of lattice directions, always len(c)
    d      degree cap for the fan polynomials
    gamma  scaling of the c-fan working vectors (None = calibrate at build)
    delta  per-stage tolerance used by the block estimates
    eps    per-stage tolerance used by the iterated-power estimates

All constraints that the construction needs (ordering, disjointness of the
working intervals, positivity) are encoded in :func:`validate`; violations
are returned as data, never raised.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import ConfigError

ScalarValue = Union[float, Fraction]

REAL = "real"
COMPLEX = "complex"
FLOAT = "float"
RATIONAL = "rational"


@dataclass(frozen=True)
class StageParams:
    xi: int
    b: int
    c: tuple[int, ...]
    h: int
    d: int
    gamma: Optional[ScalarValue]
    delta: float
    eps: float

    @property
    def nu(self) -> int:
        return self.xi * (self.b + 1)

    @property
    def k(self) -> int:
        return len(self.c)

    @property
    def fan_end(self) -> int:
        """Last index of the c-fan: h * (c_1 + ... + c_k) + nu."""
        return self.h * sum(self.c) + self.nu


@dataclass(frozen=True)
class StageSchedule:
    stages: tuple[StageParams, ...]
    xi_end: int
    scalar_field: str = REAL
    weight_mode: str = FLOAT

    def __hash__(self) -> int:
        """The dataclass hash of the fields, computed once per instance: a
        schedule keys geometry's lru_caches, and rehashing every stage's
        fields costs more than a lookup.  The cache is kept out of
        __getstate__, since str hashes differ between processes."""
        try:
            return self._hash
        except AttributeError:
            h = hash((self.stages, self.xi_end, self.scalar_field, self.weight_mode))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def stage(self, n: int) -> StageParams:
        """Stage parameters for stage n (1-based)."""
        if not 1 <= n <= self.n_stages:
            raise IndexError(f"stage {n} out of range 1..{self.n_stages}")
        return self.stages[n - 1]

    def xi(self, n: int) -> int:
        """xi_n for n = 0 .. n_stages + 1 (xi_0 = 0)."""
        if n == 0:
            return 0
        if n <= self.n_stages:
            return self.stages[n - 1].xi
        if n == self.n_stages + 1:
            return self.xi_end
        raise IndexError(f"xi_{n} undefined for a {self.n_stages}-stage schedule")

    def with_gammas(self, values: Sequence[ScalarValue]) -> "StageSchedule":
        stages = tuple(
            replace(st, gamma=g) for st, g in zip(self.stages, values, strict=True)
        )
        return replace(self, stages=stages)


def validate(schedule: StageSchedule) -> list[str]:
    """Check every construction invariant; return one message per violation.

    Pure and idempotent: equal schedules yield equal violation lists.
    """
    v: list[str] = []
    if schedule.scalar_field not in (REAL, COMPLEX):
        v.append(f"unknown scalar field {schedule.scalar_field!r}")
    if schedule.weight_mode not in (FLOAT, RATIONAL):
        v.append(f"unknown weight mode {schedule.weight_mode!r}")
    if not schedule.stages:
        v.append("no stages")

    prev_xi = 0
    prev_small = None  # (gamma, delta, eps) of the previous stage
    for n, st in enumerate(schedule.stages, start=1):
        if st.xi <= prev_xi:
            v.append(f"xi growth at stage {n}")
        if st.b <= 2 * st.xi + st.d:
            v.append(f"b lower bound at stage {n}")
        if st.d < 0 or st.d > st.nu:
            v.append(f"degree bound at stage {n}")
        if not st.c:
            v.append(f"fan size at stage {n}")
        if st.h < 1:
            v.append(f"shade count at stage {n}")
        if any(c2 <= c1 for c1, c2 in zip(st.c, st.c[1:])):
            v.append(f"c strictly increasing at stage {n}")
        if st.c and st.c[0] <= st.nu:
            v.append(f"c gap at stage {n} (1)")
        running = 0
        for i, ci in enumerate(st.c, start=1):
            if i > 1 and ci <= st.h * running + st.nu:
                v.append(f"c gap at stage {n} ({i})")
            running += ci
        xi_next = schedule.xi(n + 1)
        if xi_next <= st.fan_end:
            v.append(f"xi_next above fan end at stage {n}")
        for name, val in (("gamma", st.gamma), ("delta", st.delta), ("eps", st.eps)):
            if val is not None and not val > 0:
                v.append(f"{name} positive at stage {n}")
        if prev_small is not None:
            for name, val, prev in zip(
                ("gamma", "delta", "eps"),
                (st.gamma, st.delta, st.eps),
                prev_small,
                strict=True,
            ):
                if val is not None and prev is not None and not val < prev:
                    v.append(f"{name} strictly decreasing at stage {n}")
        prev_xi = st.xi
        prev_small = (st.gamma, st.delta, st.eps)
    return v


# -- config file I/O ---------------------------------------------------------
#
# INI layout: one [schedule] section plus one [stage N] section per stage.
# Fan polynomials live next to their stage as `fan = a0 a1 ... | a0 a1 ...`.

SCHEDULE_KEYS = ("scalar_field", "weight_mode", "xi_end", "n_stages")
STAGE_KEYS = ("xi", "b", "nu", "c", "h", "k", "d", "gamma", "delta", "eps", "fan")


def _format_scalar(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(x)


def _parse_scalar(tok: str, field: str,
                  exact: bool) -> Union[float, Fraction, complex]:
    tok = tok.strip()
    if "/" in tok:
        num, den = map(int, tok.split("/"))
        if den == 0:
            raise ValueError(f"zero denominator in {tok!r}")
        return Fraction(num, den)
    if exact:
        return Fraction(tok)
    if field == COMPLEX and ("j" in tok or "J" in tok):
        return complex(tok)
    f = float(tok)
    return f


def _parse_poly_list(text: str, field: str, exact: bool):
    from .polynet import Poly

    polys = []
    for chunk in text.split("|"):
        coeffs = tuple(_parse_scalar(t, field, exact) for t in chunk.split())
        polys.append(Poly(coeffs))
    return polys


def _format_poly_list(polys) -> str:
    return " | ".join(
        " ".join(_format_scalar(a) for a in (p.coeffs or (0,))) for p in polys
    )


def save_config(path, schedule: StageSchedule, families) -> None:
    cp = configparser.ConfigParser()
    cp["schedule"] = {
        "scalar_field": schedule.scalar_field,
        "weight_mode": schedule.weight_mode,
        "xi_end": str(schedule.xi_end),
        "n_stages": str(schedule.n_stages),
    }
    for n, (st, fam) in enumerate(zip(schedule.stages, families, strict=True), 1):
        cp[f"stage {n}"] = {
            "xi": str(st.xi),
            "b": str(st.b),
            "nu": str(st.nu),
            "c": " ".join(str(ci) for ci in st.c),
            "h": str(st.h),
            "k": str(st.k),
            "d": str(st.d),
            "gamma": "auto" if st.gamma is None else _format_scalar(st.gamma),
            "delta": repr(st.delta),
            "eps": repr(st.eps),
            "fan": _format_poly_list(fam),
        }
    with open(path, "w") as fh:
        cp.write(fh)


def load_config(path):
    """Read a schedule config; returns (schedule, families).

    Raises ConfigError carrying the validator's violation list when the file
    encodes an invalid schedule, or when an optional echo line disagrees with
    what it echoes: n_stages with the number of [stage N] sections, nu with
    xi * (b + 1), k with len(c).  A section other than [schedule] and
    [stage 1] .. [stage N], and a key outside SCHEDULE_KEYS or STAGE_KEYS,
    is refused by name, so that a misspelling cannot fall back to a default.
    In rational weight mode, fan and gamma scalars are parsed exactly.
    """
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    n_stages = sum(name.startswith("stage ") for name in cp.sections())
    allowed = {"schedule": SCHEDULE_KEYS,
               **{f"stage {n}": STAGE_KEYS for n in range(1, n_stages + 1)}}
    unknown = []
    for name in cp.sections():
        if name not in allowed:
            unknown.append(f"section [{name}]")
            continue
        unknown += [f"key {key!r} in [{name}]" for key in cp[name]
                    if key not in allowed[name]]
    if unknown:
        raise ConfigError(f"unknown {', '.join(unknown)} in config {path}")
    try:
        sect = cp["schedule"]
        field = sect.get("scalar_field", REAL)
        mode = sect.get("weight_mode", FLOAT)
        exact = mode == RATIONAL
        xi_end = int(sect["xi_end"])
        stages = []
        families = []
        violations = []
        if "n_stages" in sect and int(sect["n_stages"]) != n_stages:
            violations.append(f"n_stages = {sect['n_stages']} but {n_stages} "
                              "[stage N] sections")
        for n in range(1, n_stages + 1):
            s = cp[f"stage {n}"]
            gamma_tok = s.get("gamma", "auto").strip()
            gamma = None if gamma_tok == "auto" else \
                _parse_scalar(gamma_tok, REAL, exact)
            st = StageParams(
                xi=int(s["xi"]),
                b=int(s["b"]),
                c=tuple(int(t) for t in s["c"].split()),
                h=int(s["h"]),
                d=int(s["d"]),
                gamma=gamma,
                delta=float(s["delta"]),
                eps=float(s["eps"]),
            )
            if "nu" in s and int(s["nu"]) != st.nu:
                violations.append(f"nu-formula at stage {n}")
            if "k" in s and int(s["k"]) != st.k:
                violations.append(f"fan size at stage {n}")
            stages.append(st)
            families.append(tuple(_parse_poly_list(s["fan"], field, exact)))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    schedule = StageSchedule(
        stages=tuple(stages), xi_end=xi_end, scalar_field=field, weight_mode=mode
    )
    violations += validate(schedule)
    if violations:
        raise ConfigError(
            f"invalid schedule in {path}: " + "; ".join(violations)
        )
    return schedule, tuple(families)
