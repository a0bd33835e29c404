"""Construction of the adapted basis and the sparse change-of-basis maps.

Column j of ``F`` holds the e-frame coordinates of the basis vector f_j
(supported on rows <= j, nonzero diagonal); column m of ``E`` holds the
f-frame coordinates of e_m, assembled by forward substitution.  The ambient
norm is the l2 norm of f-frame coordinates.

Region rules for f_j:

    seed          f_j = e_j
    lay-off       f_j = w_j e_j, w_j = geometry.layoff_weight(j)
    b-working     f_j = e_j - b * e_{j-b}
    c-working     f_j = gamma^{-1} 4^{1-|r|} (e_j - p_t(T) e_{j - c_t})

where t is the top nonzero lattice coordinate of j and p_t(T) e_m expands
as the plain coefficient shift sum(a_u e_{m+u}).

Storage is columnar: F and E are kept only as CSC arrays (column pointers,
sorted row indices, values), filled one stage-table interval at a time.  In
rational mode the CSC data are the float roundings, and the exact values sit
beside them as two numpy object arrays of Python ints, ``num`` and ``den``,
aligned with ``data``: each pair in lowest terms with ``den > 0``.  The index
arrays are shared, so there is one layout for both modes.  Fractions are
built only where a single scalar or column is read (``f_col``, ``e_col``,
``e0_functional`` and ``F_cols``/``E_cols``), and frame conversion of an
exact vector builds one per output entry.

One exact pair kernel serves assembly, frame conversion, the roundtrip and
operator images.  A product of a pair array by a scalar pair is reduced by
Henrici's rule (``_scaled_pairs``): with both factors in lowest terms,
dividing out the two cross gcds leaves the product in lowest terms.  Sums
group the terms by key (``_group``) and ``_pair_sums`` adds each group: a
lone term passes through as given, a pair is cross-multiplied, and a longer
group is summed over a common multiple of its denominators; only a surviving
sum of two or more terms is reduced, by one gcd.  Matrix products run one
gather-and-sum loop (``_product_blocks``), whose one-column case is frame
conversion.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat

import numpy as np
from scipy import sparse

from . import geometry as geo
from .errors import ScheduleError
from .polynet import ONE, Poly, left_sum
from .schedule import COMPLEX, FLOAT, RATIONAL, StageSchedule

Vec = dict[int, object]  # sparse coordinate vector {index: scalar}


def vec_add(acc: Vec, other: Vec, factor=1) -> None:
    for i, v in other.items():
        acc[i] = acc.get(i, 0) + factor * v


def vec_sub(x: Vec, y: Vec, factor=-1) -> Vec:
    """x + factor * y as a new dict, summed as vec_add sums."""
    out = dict(x)
    vec_add(out, y, factor)
    return out


def vec_project(x: Vec, lo: int, hi: int) -> Vec:
    """The nonzero coordinates of x with index in [lo, hi]."""
    return {j: c for j, c in x.items() if lo <= j <= hi and c != 0}


def vec_clean(v: Vec) -> Vec:
    return {i: x for i, x in v.items() if x != 0}


def vec_norm(v: Vec) -> float:
    """l2 norm of the magnitudes, each converted to float once, squared by
    the C library's pow (as ``x ** 2`` squares) and summed left to right,
    safe against squares overflowing the float range (difference chains
    reach b^xi, whose square can pass 1e308 on deep stages)."""
    a = [float(abs(x)) for x in v.values()]
    m = max(a, default=0.0)
    if m == 0.0:
        return 0.0
    if m > 1e150 or m < 1e-150:
        return m * math.sqrt(left_sum((x / m) ** 2 for x in a))
    return math.sqrt(left_sum(map(math.pow, a, repeat(2.0))))


def column_norms(M: sparse.csc_matrix, lo: int, hi: int) -> np.ndarray:
    """vec_norm of each column lo..hi-1 of a CSC matrix, its entries taken in
    stored order, bit for bit: abs as the C library's hypot (Python's abs of
    a float or a complex), the same rescaling by the column max, squares by
    Python's ``** 2`` (the C library's pow, which can differ from x * x in
    the last bit), and a left-to-right sum down each column, one entry
    position at a time over the columns that long."""
    ptr = M.indptr[lo:hi + 1]
    a = M.data[ptr[0]:ptr[-1]]
    a = np.hypot(a.real, a.imag)
    lens, starts = np.diff(ptr), ptr[:-1] - ptr[0]
    m = np.zeros(len(lens))
    full = lens > 0
    if full.any():
        m[full] = np.maximum.reduceat(a, starts[full])
    scale = np.where((m > 1e150) | ((m > 0) & (m < 1e-150)), m, 1.0)
    x = a / np.repeat(scale, lens)
    sq = np.fromiter(map(math.pow, x.tolist(), repeat(2.0)), float, len(x))
    acc = np.zeros(len(lens))
    for k in range(lens.max(initial=0)):
        live = lens > k
        acc[live] += sq[starts[live] + k]
    return scale * np.sqrt(acc)


def shift_e(v: Vec, m: int, n_trunc: int) -> Vec:
    """Apply the forward shift m times in the e-frame; mass past the
    truncation is dropped (the truncated-operator convention)."""
    return {i + m: x for i, x in v.items() if i + m <= n_trunc}


def shift_exits(v: Vec, m: int, n_trunc: int) -> bool:
    return any(i + m > n_trunc for i, x in v.items() if x != 0)


def poly_shift_apply(p: Poly, v: Vec, n_trunc: int) -> Vec:
    """p(T) v in e-frame coordinates (T = plain shift)."""
    out: Vec = {}
    for u, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for i, x in v.items():
            if i + u <= n_trunc:
                out[i + u] = out.get(i + u, 0) + a * x
    return out


def _scalars(M: sparse.csc_matrix, exact, at) -> list:
    """The scalars stored at positions `at` (a slice or an index array) of a
    stored matrix: its data, or in rational mode (`exact` = its (num, den)
    pair arrays) one Fraction per entry."""
    if exact is None:
        return M.data[at].tolist()
    num, den = exact
    return list(map(Fraction, num[at].tolist(), den[at].tolist()))


def _column(M: sparse.csc_matrix, exact, j: int) -> tuple[list, list]:
    """Rows (ascending) and scalars of column j of a stored matrix."""
    s, e = M.indptr[j], M.indptr[j + 1]
    return M.indices[s:e].tolist(), _scalars(M, exact, slice(s, e))


def _combine(M: sparse.csc_matrix, exact, x: Vec) -> Vec:
    """sum_j x_j * (column j of M), its keys in order of first appearance
    when accumulated column by column in the order of x.  A rational-mode
    vector whose nonzero coefficients are all ints or Fractions is summed
    exactly on the stored pairs (_combine_pairs); any other term by term as
    vec_add sums, on the float images (±inf beyond the float range)."""
    if exact is not None:
        nonzero = {j: c for j, c in x.items() if c != 0}
        if all(isinstance(c, (int, Fraction)) for c in nonzero.values()):
            return _combine_pairs(M, exact, nonzero)
    out: Vec = {}
    for j, c in x.items():
        if c != 0:
            for i, v in zip(*_column(M, None, j)):
                out[i] = out.get(i, 0) + c * v
    return vec_clean(out)


def _combine_pairs(M: sparse.csc_matrix, exact, x: Vec) -> Vec:
    """_combine of nonzero int or Fraction coefficients x on the exact pairs:
    the exact product kernel (_product_blocks) on the one column x, its
    entries in the order of x, or for one term the scaled column, and one
    Fraction (which reduces it) per nonzero output entry, the keys in order
    of first appearance."""
    if not x:
        return {}
    if len(x) == 1:  # one column: its rows are distinct, so nothing is summed
        (j, c), = x.items()
        s, e = M.indptr[j], M.indptr[j + 1]
        vals = map(Fraction, exact[0][s:e] * c.numerator, exact[1][s:e] * c.denominator)
        return {i: v for i, v in zip(M.indices[s:e].tolist(), vals) if v}
    coef = tuple(np.array(v, dtype=object)
                 for v in zip(*(c.as_integer_ratio() for c in x.values())))
    column = np.array([0, len(x)]), np.fromiter(x, np.int64, len(x)), coef
    (_, _, _, rows, first, (num, den)), = _product_blocks(
        (M.indptr, M.indices, exact), column, M.shape[0])
    by_first = np.argsort(first)
    return dict(zip(rows[by_first].tolist(), map(Fraction, num[by_first], den[by_first])))


_DICT_BLOCK = 4096  # columns converted to dicts per block (bounds the transient lists)


def _column_dicts(M: sparse.csc_matrix, exact):
    """A stored matrix's columns in order as {row: value} dicts, converted
    one block of columns at a time."""
    for lo in range(0, M.shape[1], _DICT_BLOCK):
        ptr = M.indptr[lo:lo + _DICT_BLOCK + 1]
        rows = M.indices[ptr[0]:ptr[-1]].tolist()
        data = _scalars(M, exact, slice(ptr[0], ptr[-1]))
        ptr = (ptr - ptr[0]).tolist()
        for s, e in zip(ptr, ptr[1:]):
            # most columns hold one entry, which a dict literal builds fast
            yield ({rows[s]: data[s]} if e - s == 1
                   else dict(zip(rows[s:e], data[s:e])))


class BasisMap:
    """Assembled change-of-basis plus assembly metadata.

    F and E are square of size n_trunc + 1, and ``n_trunc`` is read from
    their shape: an assembled basis spans its schedule's whole truncation,
    so it is ``schedule.xi_end``, the end of the last stage's block.  The
    schedule carries every gamma; ``frame_constants`` maps n to C_n.

    F and E are stored as CSC matrices with sorted row indices and float (or
    complex) data.  In rational mode ``exact`` holds each one's exact values
    as a (num, den) pair of object arrays aligned with its ``data`` (see the
    module docstring); otherwise the data are the scalars.  What the
    schedule decides, such as the lay-off weights, is read from it.
    """

    def __init__(self, schedule, families, F, E, frame_constants,
                 exact=(None, None)):
        self.schedule = schedule
        self.families = families
        self.n_trunc = F.shape[0] - 1
        self._F, self._E = F, E
        self._F_exact, self._E_exact = exact
        self.frame_constants: dict[int, float] = dict(frame_constants)
        self._T = None  # the operator's f-frame matrix, built on first use
        self._lone_diagonals = None  # see operators.power_norms
        self._expand_memo: dict[int, Vec] = {}
        self._e_norms: list[float] = []  # ||e_u|| for u < len, see sup_e_norm

    # -- scalar / column access ------------------------------------------

    @property
    def mode(self) -> str:
        """The weight mode: RATIONAL exactly when the exact pairs are stored."""
        return FLOAT if self._F_exact is None else RATIONAL

    @property
    def gammas(self) -> tuple:
        return tuple(st.gamma for st in self.schedule.stages)

    def gamma(self, n: int):
        return self.schedule.stage(n).gamma

    def f_col(self, j: int) -> Vec:
        return dict(zip(*_column(self._F, self._F_exact, j)))

    def e_col(self, m: int) -> Vec:
        return dict(zip(*_column(self._E, self._E_exact, m)))

    @property
    def F_cols(self):
        return _column_dicts(self._F, self._F_exact)

    @property
    def E_cols(self):
        return _column_dicts(self._E, self._E_exact)

    def f_columns(self, cols=None):
        """F's columns cols (a slice or ascending indices, all when None) as
        poly_image takes X: the CSC block, in rational mode with its pairs."""
        F = self._F if cols is None else self._F[:, cols]
        if self._F_exact is None:
            return F
        keep = np.zeros(self._F.shape[1], dtype=bool)
        keep[slice(None) if cols is None else cols] = True
        return F, tuple(a[np.repeat(keep, np.diff(self._F.indptr))] for a in self._F_exact)

    def diagonal_products(self, m: int, js: np.ndarray) -> np.ndarray:
        """E[j+m, j+m] F[j, j] for each j in js from the stored diagonals, in
        rational mode exact and rounded once, as exact_product rounds it."""
        f, e = self._F.indptr[js + 1] - 1, self._E.indptr[js + m + 1] - 1
        if self._F_exact is None:
            return self._E.data[e] * self._F.data[f]
        (fn, fd), (en, ed) = self._F_exact, self._E_exact
        return _float_images(fn[f] * en[e], fd[f] * ed[e])

    # -- frame conversion --------------------------------------------------

    def f_to_e(self, x: Vec) -> Vec:
        return _combine(self._F, self._F_exact, x)

    def e_to_f(self, a: Vec) -> Vec:
        return _combine(self._E, self._E_exact, a)

    def e_norm(self, a: Vec) -> float:
        """Ambient norm of the vector with e-coordinates a."""
        return vec_norm(self.e_to_f(a))

    # -- scipy views -------------------------------------------------------

    @property
    def F_csc(self) -> sparse.csc_matrix:
        return self._F

    @property
    def E_csc(self) -> sparse.csc_matrix:
        return self._E

    # -- coordinate functional ----------------------------------------------

    def e0_functional(self, n: int) -> dict[int, object]:
        """Row 0 of the f->e map on columns [0, xi_n]: the e_0 coordinate
        functional evaluated on each basis vector f_j."""
        xi_n = self.schedule.xi(n)
        F = self._F
        first = F.indptr[: xi_n + 1]  # every column is nonempty, rows sorted
        js = np.flatnonzero(F.indices[first] == 0)
        vals = _scalars(F, self._F_exact, first[js])
        return {j: v for j, v in zip(js.tolist(), vals) if v != 0}


# -- assembly -------------------------------------------------------------------

class _Columns:
    """CSC arrays of a matrix filled one block of consecutive columns at a
    time; the row and value arrays grow geometrically.

    Values travel as a tuple of arrays aligned with the rows: (data,) of
    floats or complex numbers, or in rational mode (num, den), two object
    arrays of Python ints with every pair in lowest terms and den > 0.  In
    rational mode `images` lists (start, floats) runs of entries whose float
    image the caller already knows exactly; matrix() divides the others.
    """

    def __init__(self, n_cols: int, dtype):
        self.indptr = np.zeros(n_cols + 1, dtype=np.int64)
        self.n_cols = 0
        cap = n_cols + n_cols // 8  # room for the multi-entry working columns
        self.indices = np.empty(cap, dtype=np.int64)
        self.values = tuple(np.empty(cap, dtype=dtype)
                            for _ in range(2 if dtype == object else 1))
        self.images: list[tuple[int, np.ndarray]] = []

    def _extend(self, counts) -> int:
        """Room for len(counts) more columns of `counts` entries each (column
        pointers set, arrays grown); returns where their entries start."""
        start = self.indptr[self.n_cols]
        ptr = self.indptr[self.n_cols + 1:self.n_cols + 1 + len(counts)]
        np.cumsum(counts, out=ptr)
        ptr += start
        self.n_cols += len(counts)
        end = self.indptr[self.n_cols]
        if end > len(self.indices):
            cap = max(end, len(self.indices) * 3 // 2)
            self.indices, *values = (_grown(a, start, cap)
                                     for a in (self.indices, *self.values))
            self.values = tuple(values)
        return start

    def append(self, counts, rows, vals, images=None) -> None:
        """Append len(counts) columns holding `counts` entries each, given
        column after column with rows ascending; `images`, in rational mode,
        are the entries' float images, NaN where matrix() is to divide."""
        start = self._extend(counts)
        if images is not None:
            self.images.append((start, images))
        self.indices[start:start + len(rows)] = rows
        for a, v in zip(self.values, vals):
            a[start:start + len(rows)] = v

    def append_working(self, js, parts, diagonal, n_rows: int) -> None:
        """Append the columns js, column i holding the entries of the gathers
        `parts` (see gather) owned by i, summed per row with exact zeros
        dropped, then its diagonal (js[i], the scalars `diagonal`).  A lone
        gather (a monomial's) has distinct keys in (owner, row) order, so only
        its zeros are dropped; more are merged by _sum_in_order.  Every row is
        less than js[i], so one scatter puts each diagonal at its column's end."""
        if len(parts) == 1:
            (owner, rows, vals), = parts
            keep = vals[0] != 0
            owner, rows, vals = owner[keep], rows[keep], tuple(v[keep] for v in vals)
        else:
            owner, rows, vals = zip(*parts)
            owner, rows, vals = _sum_in_order(
                np.concatenate(owner), np.concatenate(rows),
                tuple(map(np.concatenate, zip(*vals))), n_rows)
        start = self._extend(np.bincount(owner, minlength=len(js)) + 1)
        at = np.arange(start, start + len(owner)) + owner  # after `owner` diagonals
        last = self.indptr[self.n_cols + 1 - len(js):self.n_cols + 1] - 1
        self.indices[at], self.indices[last] = rows, js
        for a, v, x in zip(self.values, vals, diagonal):
            a[at], a[last] = v, x

    def gather(self, src: np.ndarray, factor):
        """The entries of the columns src, column after column, as
        (position of the column in src, row, value * factor); factor is a
        value tuple of scalars, and exact pairs stay in lowest terms."""
        owner, pos = _positions(self.indptr, src)
        vals = tuple(a[pos] for a in self.values)
        return owner, self.indices[pos], (_scaled_pairs(*vals, *factor) if len(vals) == 2
                                          else (vals[0] * factor[0],))

    def matrix(self, n_rows: int):
        """(CSC matrix of the columns so far with float or complex data, its
        exact (num, den) arrays in rational mode, else None)."""
        nnz = self.indptr[self.n_cols]
        values = tuple(a[:nnz].copy() for a in self.values)
        exact = len(values) == 2
        data = values[0]
        if exact:
            data = np.full(nnz, np.nan)
            for start, images in self.images:
                data[start:start + len(images)] = images
            todo = np.flatnonzero(np.isnan(data))
            data[todo] = _float_images(*(v[todo] for v in values))
        M = sparse.csc_matrix((data, self.indices[:nnz], self.indptr[: self.n_cols + 1]),
                              shape=(n_rows, self.n_cols))
        return M, (values if exact else None)


def _positions(indptr: np.ndarray, src: np.ndarray):
    """The stored positions of the columns src, column after column, and the
    position in src of each one's column."""
    starts = indptr[src]
    counts = indptr[src + 1] - starts
    owner = np.repeat(np.arange(len(src)), counts)
    pos = np.arange(len(owner)) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    return owner, pos


_TINY = np.finfo(float).tiny  # the smallest normal float


def _layoff_images(mant: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float images of the weights mant * 2^s (mant < 2^41) and of their
    reciprocals, NaN where an image is not a normal float.  Both are exact
    there: the mantissa is a double, and scaling the correctly rounded
    1 / mant by 2^-s rounds nothing more."""
    with np.errstate(over="ignore", under="ignore"):
        images = np.ldexp(mant.astype(float), s), np.ldexp(1.0 / mant, -s)
    return tuple(np.where((v >= _TINY) & (v < np.inf), v, np.nan) for v in images)


_IMAGE_BLOCK = 4096  # pairs divided together once an array overflows the float range


def _float_images(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den per pair (den > 0), correctly rounded as int / int is (the
    same float as float(Fraction)), +-inf beyond the float range.  Past an
    overflow, only a block of _IMAGE_BLOCK pairs that holds one goes pair by
    pair."""
    try:
        return np.true_divide(num, den).astype(float)
    except OverflowError:
        if len(num) <= _IMAGE_BLOCK:
            return np.frompyfunc(_float_or_inf, 2, 1)(num, den).astype(float)
        return np.concatenate([_float_images(num[i:i + _IMAGE_BLOCK], den[i:i + _IMAGE_BLOCK])
                               for i in range(0, len(num), _IMAGE_BLOCK)])


def _float_or_inf(num: int, den: int) -> float:
    """num / den (den > 0), or +-inf beyond the float range, as float mode
    stores such an entry."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _grown(a: np.ndarray, used: int, cap: int) -> np.ndarray:
    """A copy of a with capacity cap, holding its first `used` entries."""
    new = np.empty(cap, dtype=a.dtype)
    new[:used] = a[:used]
    return new


def _scaled_pairs(num, den, fnum: int, fden: int):
    """(num / den) * (fnum / fden) for lowest-terms pairs with positive
    denominators (an array of them times one), in lowest terms by Henrici's
    rule: dividing out gcd(num, fden) and gcd(fnum, den) first leaves the
    product reduced.  The second gcd may take den already times fden, which
    shares no factor with fnum.  A unit factor costs no gcd and no product."""
    if fden != 1:
        g = np.gcd(num, fden)
        num, den = num // g, den * (fden // g)
    if abs(fnum) != 1:
        g = np.gcd(den, fnum)
        num, den = num * (fnum // g), den // g
    elif fnum == -1:
        num = -num
    return num, den


def _group(key: np.ndarray):
    """(order, starts, sizes): the stable sort of key, and where each run of
    equal keys starts in key[order] and how long it is."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    return order, starts, np.diff(np.append(starts, len(key)))


def _pair_sums(num, den, starts, sizes):
    """(keep, (num, den)): the sums of the groups num[s:s + z] / den[s:s + z]
    (positive denominators) that are not 0, and which groups those are.

    A lone term passes through as given.  A pair is cross-multiplied, and
    its denominator product is formed only if it survives, so a cancelling
    pair costs two big products.  A longer group is summed over a common
    multiple of its denominators: the largest one where it is one, as when
    they are all powers of two (97 % of the long-group denominators of a
    rational-mini frame conversion), else their lcm, which stays small when
    they share their factors.  Exact zeros are dropped before any reduction,
    and each surviving sum of two or more terms is reduced by one gcd; so
    lowest-terms terms give lowest-terms sums."""
    if len(starts) == len(num):  # lone terms only, as in roundtrip blocks of lay-offs
        keep = num != 0
        return keep, (num[keep], den[keep])
    an, ad = num[starts], den[starts]
    two = np.flatnonzero(sizes == 2)
    s = starts[two]
    an[two] = num[s] * den[s + 1] + num[s + 1] * den[s]
    long = sizes > 2
    if long.any():
        terms = np.repeat(long, sizes)
        d, z = den[terms], sizes[long]
        lo = np.cumsum(z) - z
        common = np.maximum.reduceat(d, lo)
        bad = np.logical_or.reduceat(np.repeat(common, z) % d != 0, lo)
        common[bad] = np.lcm.reduceat(d[np.repeat(bad, z)], np.cumsum(z[bad]) - z[bad])
        an[long] = np.add.reduceat(num[terms] * (np.repeat(common, z) // d), lo)
        ad[long] = common
    keep = an != 0
    two = two[keep[two]]
    ad[two] = den[starts[two]] * den[starts[two] + 1]
    summed = np.flatnonzero(keep & (sizes > 1))
    g = np.gcd(an[summed], ad[summed])
    an[summed] //= g
    ad[summed] //= g
    return keep, (an[keep], ad[keep])


def _sum_in_order(owner, rows, vals, n_rows: int):
    """Entries sharing (owner, row) summed, with exact zeros dropped and the
    result ordered by (owner, row).  Float values are summed left to right in
    the given order, as vec_add accumulates them; exact pairs by _pair_sums.

    Assembly calls it only for multi-term working polynomials, which no
    shipped config has; exact_product on every shifted block."""
    key = owner * n_rows + rows
    order, starts, sizes = _group(key)
    key = key[order]
    if len(vals) == 1:
        data = vals[0][order]
        acc = data[starts]
        for p in range(1, sizes.max(initial=1)):
            more = sizes > p
            acc[more] = acc[more] + data[starts[more] + p]
        keep = acc != 0
        acc = (acc[keep],)
    else:
        keep, acc = _pair_sums(*(v[order] for v in vals), starts, sizes)
    key = key[starts[keep]]
    return key // n_rows, key % n_rows, acc


def _fan_rule(tag, st, families, mode):
    """(c_t, p_t, st.gamma^{-1} 4^{1-|r|}) of the c-working interval tagged
    `tag`: its vectors are f_j = scale (e_j - p_t(T) e_{j - c_t})."""
    coord = tag.coord
    t = coord.t
    family = families[tag.n - 1]
    if t > len(family):
        raise ScheduleError(
            [f"fan family of stage {tag.n} has {len(family)} members, index {t} needed"]
        )
    p = family[t - 1]
    if p.degree > st.d:
        raise ScheduleError([f"fan polynomial {t} of stage {tag.n} exceeds degree {st.d}"])
    g = st.gamma
    if mode == RATIONAL:
        g, k = Fraction(g), 2 * (coord.abs_r - 1)  # 4^(1-|r|) = 2^-k
        scale = Fraction(g.denominator << max(-k, 0), g.numerator << max(k, 0))
    else:
        scale = (1.0 / g) * 4.0 ** (1 - coord.abs_r)
    return st.c[t - 1], p, scale


def measure_frame_constant(F: sparse.csc_matrix, nu: int) -> float:
    """Largest singular value of the frame block F[0..nu, 0..nu]: the
    equivalence constant between e-coordinates and the ambient norm on
    span f_[0, nu]."""
    from .operators import op_norm

    return op_norm(F[: nu + 1, : nu + 1]).value


def _calibrate(schedule: StageSchedule, F: sparse.csc_matrix, n: int):
    """(gamma_n, C): delta_n / C for the frame constant C of the block [0, nu_n]
    (F must cover it), capped at 2^{-n-1} so the e_0 functional norms grow;
    in rational mode gamma_n is rounded down to a dyadic."""
    st = schedule.stage(n)
    C = measure_frame_constant(F, st.nu)
    g = min(st.delta / C, 2.0 ** (-n - 1))
    if schedule.weight_mode == RATIONAL:
        g = geo.dyadic(g)
    return g, C


def _check_decrease(stages, n: int) -> None:
    """Refuse a calibrated gamma_n that does not strictly decrease against
    gamma_(n-1) or a declared gamma_(n+1): validate skips auto gammas."""
    lo = max(n - 2, 0)
    for i, (a, b) in enumerate(zip(stages[lo:n], stages[lo + 1:n + 1]), start=lo + 1):
        if b.gamma is not None and not b.gamma < a.gamma:
            raise ScheduleError([f"calibrated gamma of stage {n} breaks gamma strictly "
                                 f"decreasing: stage {i} has {a.gamma}, stage {i + 1} "
                                 f"has {b.gamma}"])


_LAYOFF_BLOCK = 1 << 16  # lay-off weights computed per block (bounds the transient lists)
_FLOAT_EXPONENT_CAP = 1022  # 2^e and 2^-e are normal floats for |e| < 1022


def assemble(schedule: StageSchedule, families) -> BasisMap:
    """Build both triangular maps on [0, xi_end], the schedule's truncation.

    Each stage-table interval is appended to F and E in blocks of
    columns, in one walk over each stage's table.  Working vectors read
    f_j = scale (e_j - p(T) e_{j - shift}) (b-working: scale 1, p = b,
    shift b), so E's column j is e_j / scale plus the earlier E columns
    j - shift + u weighted by p's coefficients: one gather per term of p,
    summed only when p has two or more (see _Columns.append_working).  A
    stage whose gamma is None is calibrated on the fly (see _calibrate) when
    the walk reaches nu_n + 1, the first column above its b-part.  In float
    mode a lay-off interval whose weights or their reciprocals leave the
    normal float range is refused with a ScheduleError before it is formed.
    """
    mode = schedule.weight_mode
    if mode == RATIONAL and schedule.scalar_field == COMPLEX:
        raise ScheduleError(["rational weight mode supports the real field only"])
    if len(families) != schedule.n_stages:
        raise ScheduleError(["one fan family per stage required"])

    exact = mode == RATIONAL
    one = Fraction(1) if exact else 1.0
    dtype = object if exact else complex if schedule.scalar_field == COMPLEX else float
    size = schedule.xi_end + 1
    F, E = _Columns(size, dtype), _Columns(size, dtype)
    stages = list(schedule.stages)
    frame_constants: dict[int, float] = {}

    def scalar(x) -> tuple:
        """x as a value tuple of scalars (see _Columns)."""
        if exact:
            x = Fraction(x)
            return x.numerator, x.denominator
        return (x,)

    def values(xs) -> tuple:
        """The list xs as a value tuple of arrays (see _Columns)."""
        if exact:
            return tuple(np.array(v, dtype=object) for v in zip(*map(scalar, xs)))
        return (np.array(xs, dtype=dtype),)

    def add_diagonal(j_lo, f_vals, e_vals, images=(None, None)):
        ones = np.ones(len(f_vals[0]), dtype=np.int64)
        rows = np.arange(j_lo, j_lo + len(ones))
        F.append(ones, rows, f_vals, images[0])
        E.append(ones, rows, e_vals, images[1])

    def add_layoffs(iv):
        top = 0 if exact else geo.max_abs_exponent(iv, schedule)
        if top >= _FLOAT_EXPONENT_CAP:
            raise ScheduleError([
                f"lay-off interval [{iv.lo}, {iv.hi}] of stage {iv.tag.n} needs "
                f"weights 2^e with |e| up to {top:.0f}, beyond the normal float "
                f"range (|e| < {_FLOAT_EXPONENT_CAP})"])
        for lo in range(iv.lo, iv.hi + 1, _LAYOFF_BLOCK):
            hi = min(lo + _LAYOFF_BLOCK - 1, iv.hi)
            if exact:  # positive weights: a reciprocal is the swapped pair
                mant, s = geo.interval_dyadics(iv, schedule, lo, hi)
                num, den = geo.dyadic_pairs(mant, s)
                add_diagonal(lo, (num, den), (den, num), _layoff_images(mant, s))
            else:
                lam = geo.interval_weights(iv, schedule, lo, hi)
                add_diagonal(lo, (lam,), (one / lam,))

    def add_working(iv, shift, p, scale):
        terms = [(u - shift, a) for u, a in enumerate(p.coeffs) if a != 0]
        f_rows = np.array([d for d, _ in terms] + [0])
        f_vals = values([0 - scale * a for _, a in terms] + [scale])
        factors = [scalar(a) for _, a in terms]
        inverse = scalar(one / scale)
        # the E sources j - shift + u (u <= deg p) of a block at most
        # shift - deg p wide all precede it
        for lo in range(iv.lo, iv.hi + 1, shift - p.degree):
            js = np.arange(lo, min(lo + shift - p.degree, iv.hi + 1))
            F.append(np.full(len(js), len(f_rows)), (js[:, None] + f_rows).ravel(),
                     tuple(np.tile(v, len(js)) for v in f_vals))
            with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
                parts = ([E.gather(js + d, f) for (d, _), f in zip(terms, factors)]
                         or [E.gather(js[:0], scalar(1))])
                E.append_working(js, parts, inverse, size)

    seeds = values([one] * (schedule.xi(1) + 1))
    add_diagonal(0, seeds, seeds)

    for n, st in enumerate(schedule.stages, start=1):
        for iv in geo.stage_table(schedule, n):
            if iv.lo == st.nu + 1 and st.gamma is None:
                g, frame_constants[n] = _calibrate(schedule, F.matrix(F.n_cols)[0], n)
                st = stages[n - 1] = replace(st, gamma=g)
                _check_decrease(stages, n)
            if geo.is_layoff(iv.tag):
                add_layoffs(iv)
            elif isinstance(iv.tag, geo.BWorking):
                add_working(iv, st.b, Poly((st.b,)), one)
            else:
                add_working(iv, *_fan_rule(iv.tag, st, families, mode))

    F_csc, F_exact = F.matrix(size)
    del F  # free its buffers before E's are converted
    E_csc, E_exact = E.matrix(size)
    if frame_constants:  # an equal copy is a slower key for geometry's lru_caches
        schedule = schedule.with_gammas([st.gamma for st in stages])
    return BasisMap(schedule, families, F_csc, E_csc, frame_constants,
                    exact=(F_exact, E_exact))


# -- independent e -> f expansion (structural route) ---------------------------

def expand_e_structural(basis: BasisMap, m: int) -> Vec:
    """f-frame coordinates of e_m from the region rules alone (no linear
    algebra); the independent counterpart of column m of the assembled E."""
    memo = basis._expand_memo
    if m in memo:
        return memo[m]
    sched = basis.schedule
    tag = geo.classify(m, sched)
    if isinstance(tag, geo.Seed):
        out: Vec = {m: 1}
    elif geo.is_layoff(tag):
        out = {m: 1 / geo.layoff_weight(m, sched)}
    elif isinstance(tag, geo.BWorking):
        st = sched.stage(tag.n)
        out = {m: 1}
        vec_add(out, expand_e_structural(basis, m - st.b), st.b)
        out = vec_clean(out)
    else:
        out = lattice_descent(basis, tag.coord).f_coords
    memo[m] = out
    return out


@dataclass(frozen=True)
class DescentTerm:
    coefficient: object       # gamma * 4^(...)
    poly: Poly                # accumulated product of fan polynomials
    f_index: int              # start index the polynomial acts on


@dataclass(frozen=True)
class DescentExpansion:
    coord: geo.LatticeCoord
    terms: tuple[DescentTerm, ...]
    residual_poly: Poly       # product polynomial applied to e_alpha
    f_coords: Vec             # fully expanded f-frame coordinates


def _descent_terms(basis: BasisMap, coord: geo.LatticeCoord):
    """Terms of the unrolled descent.  Returns (terms, residual_poly)."""
    sched = basis.schedule
    st = sched.stage(coord.n)
    family = basis.families[coord.n - 1]
    g = basis.gamma(coord.n)
    four = Fraction(4) if basis.mode == RATIONAL else 4.0
    t = coord.t
    terms: list[DescentTerm] = []
    q_above = ONE
    for l in range(t, 0, -1):
        rl = coord.r[l - 1]
        base_lower = sum(coord.r[i] * st.c[i] for i in range(l - 1))
        for s in range(rl):
            cur_abs = sum(coord.r[: l - 1]) + (rl - s)
            coef = g * four ** (cur_abs - 1)
            terms.append(
                DescentTerm(
                    coefficient=coef,
                    poly=q_above * (family[l - 1] ** s),
                    f_index=base_lower + (rl - s) * st.c[l - 1] + coord.alpha,
                )
            )
        q_above = q_above * (family[l - 1] ** rl)
    return terms, q_above


def lattice_descent(basis: BasisMap, coord: geo.LatticeCoord) -> DescentExpansion:
    """Unroll the defining relation of the c-working vectors one lattice step
    at a time until the remaining e-term has all coordinates zero.

    A shifted term stays inside its working interval while alpha + u <= nu
    and is then a plain basis vector; the rare spill past the interval end is
    expanded through the e-frame (its support sits strictly lower, so the
    recursion terminates).
    """
    sched = basis.schedule
    st = sched.stage(coord.n)
    terms, residual = _descent_terms(basis, coord)
    out: Vec = {}
    for term in terms:
        for u, a in enumerate(term.poly.coeffs):
            if a == 0:
                continue
            if coord.alpha + u <= st.nu:
                j = term.f_index + u
                out[j] = out.get(j, 0) + term.coefficient * a
            else:
                spilled = _shifted_f_in_f(basis, term.f_index, u)
                vec_add(out, spilled, term.coefficient * a)
    for u, a in enumerate(residual.coeffs):
        if a != 0:
            vec_add(out, expand_e_structural(basis, coord.alpha + u), a)
    return DescentExpansion(coord, tuple(terms), residual, vec_clean(out))


def _shifted_f_in_f(basis: BasisMap, j: int, u: int) -> Vec:
    """f-frame coordinates of the u-th shift of f_j, via the e-frame and the
    structural expansion of each landed index (all strictly below j + u)."""
    out: Vec = {}
    for i, v in basis.f_col(j).items():
        if i + u <= basis.n_trunc:
            vec_add(out, expand_e_structural(basis, i + u), v)
    return vec_clean(out)


# -- triangular solve (oracle route) -------------------------------------------

def solve_F(basis: BasisMap, rhs: Vec) -> Vec:
    """Solve F x = rhs by back substitution on the sparse columns.

    Independent of the assembled inverse; used as the oracle against both
    the assembled E and the lattice descent.
    """
    work = {i: v for i, v in rhs.items() if v != 0}
    x: Vec = {}
    heap = [-i for i in work]
    heapq.heapify(heap)
    seen = set(work)
    while heap:
        j = -heapq.heappop(heap)
        val = work.pop(j, 0)
        if val == 0:
            continue
        col = basis.f_col(j)
        xj = val / col[j]
        x[j] = xj
        for i, fv in col.items():
            if i == j:
                continue
            work[i] = work.get(i, 0) - xj * fv
            if i not in seen:
                seen.add(i)
                heapq.heappush(heap, -i)
    return vec_clean(x)


# -- verification helpers --------------------------------------------------------

def roundtrip_max_error(basis: BasisMap, order: str = "FE") -> float:
    """max |(F E - I)_ij| (order "FE") or |(E F - I)_ij| ("EF"), float route."""
    F, E = basis.F_csc, basis.E_csc
    prod = F @ E if order == "FE" else E @ F
    resid = prod - sparse.identity(prod.shape[0], format="csc", dtype=prod.dtype)
    return float(np.max(np.abs(resid.data))) if resid.nnz else 0.0


_ROUNDTRIP_BLOCK = 1 << 16  # product terms summed per block (bounds the transient arrays)


def _product_blocks(outer, inner, n_rows: int):
    """The exact product of two (indptr, indices, (num, den)) matrices in
    blocks of about _ROUNDTRIP_BLOCK product terms: per block of inner
    columns [lo, hi), (lo, hi, owner, rows, first, pairs), its nonzero sums
    ordered by (owner = column - lo, row) and first the position of each
    one's first term in gather order (inner entries in stored order, each
    times the outer column it selects).  The terms (c.num * v.num,
    c.den * v.den) are gathered by index arithmetic, sorted by key before
    they are formed, and summed by _pair_sums (lone terms unreduced)."""
    (o_ptr, o_rows, (onum, oden)), (i_ptr, i_rows, (inum, iden)) = outer, inner
    before = np.concatenate(([0], np.cumsum(np.diff(o_ptr)[i_rows])))[i_ptr]
    lo, n_cols = 0, len(i_ptr) - 1
    while lo < n_cols:
        hi = int(np.searchsorted(before, before[lo] + _ROUNDTRIP_BLOCK, side="right")) - 1
        hi = max(hi, lo + 1)
        col, at = _positions(i_ptr, np.arange(lo, hi))
        src, pos = _positions(o_ptr, i_rows[at])
        key = col[src] * n_rows + o_rows[pos]
        order, starts, sizes = _group(key)
        at, pos = at[src[order]], pos[order]
        keep, pairs = _pair_sums(inum[at] * onum[pos], iden[at] * oden[pos], starts, sizes)
        first = order[starts[keep]]
        yield (lo, hi, *np.divmod(key[first], n_rows), first, pairs)
        lo = hi


def exact_product(outer, inner, terms):
    """(M, (num, den)): outer (sum_u a_u S^u) inner for (CSC, (num, den))
    matrices and int or Fraction a_u, each term shifting inner's rows up by
    u (past outer's columns they drop).  M holds the nonzero entries, rows
    sorted, each rounded once (per block, so only a block beyond the float
    range takes _float_images' slow path); (num, den) the exact values."""
    (O, o_exact), (I, (num, den)) = outer, inner
    n, n_cols = O.shape[1], I.shape[1]
    cols = np.repeat(np.arange(n_cols), np.diff(I.indptr))
    shifted = []
    for u, a in terms:
        a, live = Fraction(a), I.indices + u < n
        shifted.append((cols[live], I.indices[live] + u,
                        *_scaled_pairs(num[live], den[live], a.numerator, a.denominator)))
    cols, rows, *pairs = map(np.concatenate, zip(*shifted))
    cols, rows, pairs = _sum_in_order(cols, rows, pairs, n)
    D = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n_cols)))), rows, pairs
    blocks = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0),
               np.zeros(0, object), np.zeros(0, object))]
    blocks += [(lo + owner, rows, _float_images(*pairs), *pairs)
               for lo, _, owner, rows, _, pairs in
               _product_blocks((O.indptr, O.indices, o_exact), D, O.shape[0])]
    cols, rows, data, *pairs = map(np.concatenate, zip(*blocks))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n_cols))))
    M = sparse.csc_matrix((data, rows, indptr), shape=(O.shape[0], n_cols))
    return M, tuple(pairs)


def roundtrip_exact(basis: BasisMap, order: str = "FE"):
    """Exact columnwise roundtrip F E = I (order "FE") or E F = I ("EF") of a
    rational-mode basis; returns (ok, worst_column, worst_value).

    The product's columns come from the exact product kernel, block by block
    (_product_blocks), so transient memory is bounded per block.  Both maps
    are triangular, so each diagonal entry (m, m) of the product is a lone
    term, which passes through unreduced; it is 1 iff num == den.  A block
    passes iff in each of its columns exactly one entry survives, the
    diagonal, and it is 1; on a passing basis every other sum cancels, and
    nothing is reduced.  The check stops at the first failing block: only
    its first failing column is converted to Fractions, and worst_value is
    the largest |residual| of that column.

    A float basis raises ValueError: its roundtrip holds only up to rounding,
    which roundtrip_max_error measures.
    """
    if basis.mode != RATIONAL:
        raise ValueError(f"roundtrip_exact needs a rational-mode basis, not "
                         f"{basis.mode!r}; use roundtrip_max_error")
    F = basis.F_csc.indptr, basis.F_csc.indices, basis._F_exact
    E = basis.E_csc.indptr, basis.E_csc.indices, basis._E_exact
    outer, inner = (F, E) if order == "FE" else (E, F)
    n = basis.n_trunc + 1
    for lo, hi, owner, rows, _, (num, den) in _product_blocks(outer, inner, n):
        unit = (rows == owner + lo) & (num == den)
        ok = ((np.bincount(owner, minlength=hi - lo) == 1)
              & (np.bincount(owner[unit], minlength=hi - lo) == 1))
        if not ok.all():
            k = int(np.argmin(ok))
            mine = owner == k
            resid = dict(zip(rows[mine].tolist(), map(Fraction, num[mine], den[mine])))
            m = lo + k
            resid[m] = resid.get(m, Fraction(0)) - 1
            return (False, m, max(abs(v) for v in resid.values() if v != 0))
    return (True, None, 0)


def export_matrix_market(path, mat: sparse.spmatrix) -> None:
    from scipy.io import mmwrite

    mmwrite(path, mat.tocoo())
