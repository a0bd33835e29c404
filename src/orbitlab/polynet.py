"""Polynomials with l1-norm bookkeeping and finite coefficient nets.

A net of resolution rho inside the l1-ball of radius R is the set of
polynomials whose coefficients lie on the lattice rho * Z (real case; the
complex case puts the lattice with step rho/sqrt(2) on real and imaginary
parts so the per-coefficient covering error stays below rho).  Rounding each
coefficient toward zero shows every |p| <= R of degree <= d is within
(d+1) * rho of a member.

Steering: for x with leading e-coordinate nonzero and any target y supported
no lower than x, forward substitution on the lower-triangular Toeplitz system
produces the unique polynomial p of degree <= xi - r with p(T_xi) x = y.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .errors import NetSizeError
from .schedule import COMPLEX, REAL

NO_CONSTRAINT = "none"
ZERO_CONSTANT_TERM = "zero-constant-term"


def left_sum(xs: Iterable):
    """0 + x_0 + x_1 + ..., added strictly left to right.  The built-in
    sum of floats is compensated (Neumaier) from Python 3.12 on, so report
    values sum through this instead, the same on every version; column_norms
    copies this order."""
    return reduce(operator.add, xs, 0)


def _trim(coeffs: Sequence) -> tuple:
    coeffs = tuple(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


@dataclass(frozen=True)
class Poly:
    """Coefficients a_0..a_d; trailing zeros are trimmed on construction."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def ell1(self):
        return left_sum(abs(a) for a in self.coeffs)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        pa = self.coeffs + (0,) * (n - len(self.coeffs))
        qa = other.coeffs + (0,) * (n - len(other.coeffs))
        return Poly(tuple(a - b for a, b in zip(pa, qa)))

    def __pow__(self, m: int) -> "Poly":
        result = Poly((1,))
        for _ in range(m):
            result = result * self
        return result

    def scale(self, factor) -> "Poly":
        return Poly(tuple(factor * a for a in self.coeffs))

    def shift_up(self, m: int) -> "Poly":
        """Multiply by zeta^m."""
        if self.is_zero:
            return self
        return Poly((0,) * m + self.coeffs)

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else 0

    def __repr__(self):
        return f"Poly({self.coeffs!r})"


ZERO = Poly(())
ONE = Poly((1,))
ZETA = Poly((0, 1))


def ell1_distance(p: Poly, q: Poly):
    return (p - q).ell1


@dataclass(frozen=True)
class PolyNet:
    members: tuple[Poly, ...]

    def __len__(self):
        return len(self.members)


def _count_l1_lattice(dim: int, radius_steps: int) -> int:
    """Number of integer points m in Z^dim with sum |m_i| <= radius_steps."""
    # N(dim, B) = sum_k C(dim, k) 2^k C(B, k)
    total = 0
    for k in range(0, min(dim, radius_steps) + 1):
        total += math.comb(dim, k) * (2 ** k) * math.comb(radius_steps, k)
    return total


def _l1_lattice(dim: int, radius_steps: int) -> Iterable[tuple[int, ...]]:
    """Integer lattice points of the l1 ball, lexicographic order."""
    point = [0] * dim

    def rec(i: int, budget: int):
        if i == dim:
            yield tuple(point)
            return
        for m in range(-budget, budget + 1):
            point[i] = m
            yield from rec(i + 1, budget - abs(m))
        point[i] = 0

    yield from rec(0, radius_steps)


def generate_net(
    degree: int,
    radius: float,
    resolution: float,
    constraint: str = NO_CONSTRAINT,
    field: str = REAL,
    cap: int = 500_000,
) -> PolyNet:
    """Enumerate the coefficient-lattice net of the l1 ball, deterministically.

    Members are ordered by (l1 norm, coefficient tuple).  Raises NetSizeError
    before enumerating if the lattice would exceed `cap` points.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    dim = degree + 1
    if field == COMPLEX:
        step, width, slack = resolution / math.sqrt(2), 2 * dim, 1e-12
    else:
        step, width, slack = resolution, dim, 0
    steps = math.floor(radius / step)
    count = _count_l1_lattice(width, steps)
    if count > cap:
        raise NetSizeError(
            f"net would have up to {count} members, above the cap {cap}"
        )

    members = []
    for m in _l1_lattice(width, steps):
        if field == COMPLEX:
            coeffs = tuple(
                complex(m[2 * i] * step, m[2 * i + 1] * step) for i in range(dim)
            )
        else:
            coeffs = tuple(mi * step for mi in m)
        p = Poly(coeffs)
        if p.ell1 > radius + slack:
            continue
        if constraint == ZERO_CONSTANT_TERM and p.constant_term() != 0:
            continue
        members.append(p)
    members.sort(key=lambda p: (float(p.ell1), _sort_key(p)))
    return PolyNet(members=tuple(members))


def _sort_key(p: Poly):
    out = []
    for a in p.coeffs:
        if isinstance(a, complex):
            out.extend((a.real, a.imag))
        else:
            out.append(float(a))
    return tuple(out)


def nearest_member(family: Sequence[Poly], q: Poly) -> tuple[int, float]:
    """(0-based index, l1 distance) of the closest polynomial; ties pick the
    earliest member."""
    best_i, best_d = 0, None
    for i, p in enumerate(family):
        d = ell1_distance(p, q)
        if best_d is None or d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def b_damped(p: Poly, b: int, degree_cap: int) -> Poly:
    """zeta^b / b * p: coefficients shifted up by b and scaled by 1/b.

    l1 norm drops by the factor b; the degree grows by b and must stay within
    `degree_cap` (the stage's working length).
    """
    if p.is_zero:
        return p
    if p.degree + b > degree_cap:
        raise ValueError(
            f"damped degree {p.degree + b} exceeds the cap {degree_cap}"
        )
    factor = Fraction(1, b) if _is_exact(p) else 1.0 / b
    return p.shift_up(b).scale(factor)


def _is_exact(p: Poly) -> bool:
    return all(isinstance(a, (int, Fraction)) for a in p.coeffs)


@dataclass(frozen=True)
class ToeplitzSystem:
    """p(T_xi) x = y restricted to coordinates [r, xi]; x[0] is the leading
    (nonzero) e_r coordinate of x."""

    xi: int
    r: int
    x: tuple
    y: tuple

    def __post_init__(self):
        m = self.xi - self.r + 1
        if len(self.x) != m or len(self.y) != m:
            raise ValueError(f"coordinate tuples must have length {m}")
        if self.x[0] == 0:
            raise ValueError("leading coefficient must be nonzero")


def solve_poly(sys: ToeplitzSystem) -> Poly:
    """Forward substitution; exact in exact arithmetic, degree <= xi - r."""
    m = sys.xi - sys.r + 1
    a = [0] * m
    for u in range(m):
        s = sys.y[u]
        for i in range(1, u + 1):
            if sys.x[i] != 0 and a[u - i] != 0:
                s = s - sys.x[i] * a[u - i]
        a[u] = s / sys.x[0]
    return Poly(tuple(a))


def steer(x_e: dict, y_e: dict, r: int, xi: int) -> Poly:
    """The polynomial p with p(T_xi) x = y on coordinates [r, xi], x and y
    given as e-coordinate dicts; coordinates outside [r, xi] are ignored."""
    span = range(r, xi + 1)
    return solve_poly(ToeplitzSystem(xi, r, tuple(x_e.get(j, 0) for j in span),
                                     tuple(y_e.get(j, 0) for j in span)))
