"""Trace tuples, wealth statistics, dyadic bins, and the f map.

Fix a regular semisimple t.  For g in a pool, the trace tuple at
omitted index i lists tr(t^k g) for k = 0..n skipping k = i, and the
wealth of a trace value r at shift i counts distinct conjugation
invariants among pool elements with tr(t^i g) = r and t^i g semisimple.
Pool elements whose n+1 shifts are all semisimple get sorted into
dyadic bins by the tuple of wealth magnitudes.  Wealth, bins and the
distinct tuple counts are all read off one shift table, which holds the
trace, invariant and semisimplicity of every t^k g, from linear forms
in the pool's compound matrices (Cauchy-Binet); semisimplicity is
rad(chi)(t^k g) = 0, with rad(chi) taken once per class.

The f map sends t to the coefficient vector (r_0, ..., r_{n-1}) with

    tr(t^n g) = r_0 tr(g) + r_1 tr(t g) + ... + r_{n-1} tr(t^{n-1} g)

for every g, read off the characteristic polynomial of t: r_k = -a_k
for k >= 1 and r_0 = (-1)^(n+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial, log

import numpy as np

from . import polys
from .errors import FiberBoundViolation, InvalidWitness, NoBins, NotInGroup
from .field import PrimeField
from .growth import ElementSet
from .matrices import Mat, SpecialLinear, compound_batches
from .vandermonde import omit_one_dets


@dataclass(frozen=True)
class TraceTuple:
    omitted_index: int
    values: tuple


@dataclass(frozen=True)
class ClassTuple:
    omitted_index: int
    values: tuple  # invariant tuple per kept shift


def trace_tuple(space: SpecialLinear, g: Mat, t: Mat, i: int) -> TraceTuple:
    """(tr(t^k g) for k = 0..n, k != i).  The per-pair reference for
    distinct_tuple_counts; perfbench/traced.py looks it up in cli."""
    n = space.n
    if not 0 <= i <= n:
        raise ValueError(f"omitted index {i} out of range 0..{n}")
    powers = space.power_list(t, n)
    values = tuple(
        space.trace_product(powers[k], g) for k in range(n + 1) if k != i
    )
    return TraceTuple(omitted_index=i, values=values)


def class_tuple(space: SpecialLinear, g: Mat, t: Mat, i: int) -> ClassTuple:
    """Invariant tuples of the kept shifts t^k g, k != i (all shifts
    must be semisimple for the tuple to be class-faithful).  The
    per-pair reference for distinct_tuple_counts; perfbench/traced.py
    looks it up in cli."""
    n = space.n
    if not 0 <= i <= n:
        raise ValueError(f"omitted index {i} out of range 0..{n}")
    powers = space.power_list(t, n)
    values = tuple(
        space.char_poly(space.mul(powers[k], g))
        for k in range(n + 1)
        if k != i
    )
    return ClassTuple(omitted_index=i, values=values)


# pool members per block of a shift table: at most SHIFT_BLOCK, and at
# most SHIFT_ENTRIES compound entries, which bounds its temporaries
SHIFT_BLOCK = 128
SHIFT_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ShiftTable:
    """The shifts t^k g, k = 0..n, of every pool member g under one t.

    Column j belongs to members[j], row k to the shift t^k.  A code
    packs the invariant (a_{n-1}, ..., a_1) of `SpecialLinear.char_poly`
    into the integer a_{n-1} p^(n-2) + ... + a_2 p + a_1, so equal codes
    mean equal invariants.
    """

    members: list
    traces: np.ndarray  # (n+1, m) tr(t^k g)
    codes: np.ndarray  # (n+1, m) packed invariant of t^k g
    semisimple: np.ndarray  # (n+1, m) bool


class _Radicals:
    """Class ids of a pool's codes, each radical found once: 0 for a
    squarefree chi, else the row of rad(chi), padded, in `coeffs`."""

    def __init__(self, space: SpecialLinear):
        self.space, self.ids = space, {}
        self.coeffs = np.zeros((1, space.n), dtype=np.int64)

    def _id(self, code) -> int:
        n, p = self.space.n, self.space.p
        chi = [(-1) ** n % p] + [code // p ** (j - 1) % p for j in range(1, n)] + [1]
        rad = polys.radical(chi, self.space.field)
        if rad is None:
            return 0
        self.coeffs = np.vstack([self.coeffs, rad + [0] * (n - len(rad))])
        return len(self.coeffs) - 1

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """The class id of every code, looked up once per distinct code."""
        seen = set(codes.ravel().tolist())
        for code in seen - self.ids.keys():
            self.ids[code] = self._id(code)
        distinct = sorted(seen)
        ids = np.array([self.ids[code] for code in distinct], dtype=np.int64)
        return ids[np.searchsorted(np.array(distinct, dtype=codes.dtype), codes)]


def shift_tables(pool: ElementSet, witnesses, tick=lambda done: None):
    """Yield the shift table of each t in witnesses.

    The pool is decoded once into its compounds L_j(g), j < n, which
    hold C(2n, n) - 2 entries a member: 18 at n = 3, 922 at n = 6 and
    12,868 at n = 8, where decoding costs more than the n^4 products of
    a shift's charpoly would.  As
    e_j(t^k g) = tr(L_j(t^k) L_j(g)), a block's traces and codes take
    one int64 matmul per j, exact as its sums stay below
    C(n, j)^2 (p - 1)^2 < 2^63.  Row k = 0 is tabled once.  Only shifts
    with a non-squarefree chi are formed, to test rad(chi)(t^k g) = 0
    (classify_semisimple's rule).  tick(done) follows every block: 0
    while decoding, then the members tabled so far.
    """
    space = pool.space
    n, p = space.n, space.p
    members = list(pool.members)
    m = len(members)
    ends = np.cumsum([0] + [comb(n, j) ** 2 for j in range(1, n)]).tolist()
    step = max(1, min(SHIFT_BLOCK, SHIFT_ENTRIES // ends[-1]))
    entry = np.min_scalar_type(p - 1)
    compounds = np.empty((ends[-1], m), dtype=entry)
    for lo in range(0, m, step):
        mats = np.array(members[lo : lo + step], dtype=np.int64).reshape(-1, n, n)
        compounds[:, lo : lo + len(mats)] = np.concatenate(
            [lj.reshape(len(mats), -1) for lj in compound_batches(mats, p)[:-1]], axis=1).T
        tick(0)
    # codes < p^(n-1): Python ints past int64
    work = np.int64 if p ** (n - 1) <= np.iinfo(np.int64).max else object
    dtype = np.min_scalar_type(p ** (n - 1) - 1) if work is np.int64 else object
    radicals = _Radicals(space)

    def tabulate(hs, traces, codes, semisimple):
        """Fill rows k of the (K, m) tables with h_k g, hs (K, n, n)."""
        # row k gives a_{n-j}(h_k g) = (-1)^j e_j, as tr(A B) = sum(A^T * B)
        forms = [(-1) ** j * lj.transpose(0, 2, 1).reshape(len(hs), -1)
                 for j, lj in enumerate(compound_batches(hs, p)[:-1], start=1)]
        for lo in range(0, m, step):
            part = slice(lo, lo + step)
            block = compounds[:, part].astype(np.int64)
            for j in range(1, n):  # a_{n-1} first
                a = np.matmul(forms[j - 1], block[ends[j - 1] : ends[j]])
                a %= p
                if j == 1:  # tr = e_1 = -a_{n-1}
                    traces[:, part] = -a % p
                code = a.astype(work, copy=False) if j == 1 else code * p + a
            codes[:, part] = code
            ids = radicals.lookup(code)
            plain = ids == 0  # squarefree chi: semisimple
            semisimple[:, part] = plain
            k, col = np.nonzero(~plain)
            if len(k):
                shifted = np.matmul(hs[k], block[: n * n, col].T.reshape(-1, n, n))
                shifted %= p
                # rad(shifted) = sum_d c_d shifted^d
                coeffs = radicals.coeffs[ids[k, col]]
                value, power = coeffs[:, 1, None, None] * shifted, shifted
                for d in range(2, n):
                    power = np.matmul(power, shifted)
                    power %= p
                    value += coeffs[:, d, None, None] * power
                value.reshape(len(value), -1)[:, :: n + 1] += coeffs[:, :1]
                value %= p
                semisimple[:, part][k, col] = ~value.any(axis=(1, 2))
            tick(min(m, lo + step))

    own = None  # row k = 0, the members: the same in every table
    for t in witnesses:
        powers = np.array(space.power_list(t, n), dtype=np.int64).reshape(n + 1, n, n)
        rows = (np.empty((n + 1, m), dtype=entry), np.empty((n + 1, m), dtype=dtype),
                np.empty((n + 1, m), dtype=bool))
        if own is None:
            tabulate(powers, *rows)
            own = [row[0].copy() for row in rows]
        else:
            for row, first in zip(rows, own):
                row[0] = first
            tabulate(powers[1:], *(row[1:] for row in rows))
        yield ShiftTable(members, *rows)


def shift_table(t: Mat, pool: ElementSet, tick=lambda done: None) -> ShiftTable:
    """The shift table of one witness t: shift_tables(pool, [t], tick)."""
    return next(shift_tables(pool, [t], tick))


def _wealths(table: ShiftTable, i: int, p: int) -> np.ndarray:
    """Per trace value r < p: the number of distinct invariants among
    semisimple shifts t^i g with tr(t^i g) = r (a code fixes its trace)."""
    codes = table.codes[i, table.semisimple[i]]
    distinct = np.array(list(set(codes.tolist())), dtype=codes.dtype)
    top = p ** (len(table.codes) - 3)  # p^(n-2), the place of a_{n-1}: n + 1 rows
    return np.bincount(-(distinct // top).astype(np.int64) % p, minlength=p)


def wealth(t: Mat, i: int, r: int, pool: ElementSet) -> int:
    """Number of distinct invariant tuples kappa(t^i g) over pool
    elements g with tr(t^i g) = r and t^i g semisimple: the paper's
    definition, for one (i, r); dyadic_bins reads every count off one
    shift table instead."""
    space = pool.space
    n, p = space.n, space.p
    if not 0 <= i <= n:
        raise ValueError(f"shift {i} out of range 0..{n}")
    space.require_regular(t, "wealth")
    return int(_wealths(shift_table(t, pool), i, p)[r % p])


@dataclass
class WealthBin:
    """One dyadic cell: pool elements whose wealth vector satisfies
    2^(j_i) <= wealth_i < 2^(j_i + 1) in every coordinate, and their
    shift-table columns when dyadic_bins made it."""

    t: Mat
    jvec: tuple
    members: ElementSet
    columns: np.ndarray | None = None


def _members_at(members: list, columns: np.ndarray) -> frozenset:
    return frozenset(map(members.__getitem__, columns.tolist()))


def dyadic_bins(t: Mat, pool: ElementSet, table: ShiftTable | None = None,
                tick=lambda done: None) -> list[WealthBin]:
    """Partition the eligible part of the pool into dyadic wealth bins.

    Eligible means g, tg, ..., t^n g all semisimple.  Every eligible g
    contributes its own invariant to each wealth count, so all wealths
    are >= 1 and the bin exponents are the bit lengths minus one.
    Returns bins sorted by jvec, their members decoded on first use.
    `table` is `shift_table(t, pool)`, when the caller already has it.
    tick(done) follows the wealth pass of every shift, with the shifts
    passed so far, and the binning, with all n + 1.
    """
    space = pool.space
    n = space.n
    space.require_regular(t, "dyadic bins")
    if table is None:
        table = shift_table(t, pool)
    eligible = np.flatnonzero(table.semisimple.all(axis=0))
    exponents = np.empty((n + 1, len(eligible)), dtype=np.uint8)  # each below 64
    for i in range(n + 1):
        # bit length minus one: an eligible member's own trace has wealth >= 1
        bits = np.frexp(_wealths(table, i, space.p))[1] - 1
        exponents[i] = bits[table.traces[i, eligible]]
        tick(i + 1)
    tick(n + 1)
    if not len(eligible):
        return []
    # columns in jvec order, found by lexsort: np.unique(axis=1) sorts
    # structured rows, some five times slower
    order = np.lexsort(exponents[::-1])
    ranked = exponents[:, order]
    cuts = np.flatnonzero((ranked[:, 1:] != ranked[:, :-1]).any(axis=0)) + 1
    return [
        WealthBin(t=t, jvec=tuple(jvec),
                  members=ElementSet(space, partial(_members_at, table.members, columns),
                                     len(columns)),
                  columns=columns)
        for jvec, columns in zip(ranked[:, np.r_[0, cuts]].T.tolist(),
                                 np.split(eligible[order], cuts))
    ]


def _distinct_columns(values: np.ndarray) -> int:
    """The number of distinct columns, each packed into one int."""
    if not values.size:
        return 0
    base = int(values.max()) + 1
    dtype = np.int64 if base ** len(values) <= np.iinfo(np.int64).max else object
    key = 0
    for row in values:
        key = key * base + row.astype(dtype)
    return len(set(key.tolist()))


def distinct_tuple_counts(table: ShiftTable) -> tuple[list[int], list[int]]:
    """For each omitted index i = 0..n: how many distinct values
    `trace_tuple(g, t, i)` takes over the pool, and how many
    `class_tuple(g, t, i)` takes over its eligible members."""
    eligible = table.semisimple.all(axis=0)
    shifts = range(len(table.traces))
    kept = [[k for k in shifts if k != i] for i in shifts]
    return ([_distinct_columns(table.traces[rows]) for rows in kept],
            [_distinct_columns(table.codes[rows][:, eligible]) for rows in kept])


def popular_tuple(bins: list[WealthBin]) -> WealthBin:
    """The largest bin; ties break toward the lexicographically
    smallest jvec.  Raises NoBins on an empty list."""
    if not bins:
        raise NoBins("no nonempty dyadic bins")
    return min(bins, key=lambda b: (-len(b.members), b.jvec))


def bin_spread(bins: list[WealthBin]) -> int:
    """max_i j_i - min_i j_i, maximized over the bins; 0 for no bins."""
    return max((max(b.jvec) - min(b.jvec) for b in bins), default=0)


@dataclass(frozen=True)
class FVector:
    """Coefficients (r_0, ..., r_{n-1}) of the shifted-trace recursion."""

    coefficients: tuple


def f_from_char_poly(space: SpecialLinear, full: list) -> FVector:
    """f(t) read off the coefficients of det(xI - t) = sum_k a_k x^k,
    lowest degree first, for a t already known to be regular
    semisimple: r_k = -a_k for k = 1..n-1 and r_0 = (-1)^(n+1)
    (Cayley-Hamilton applied to t^n)."""
    n, p = space.n, space.p
    if full[0] != (-1) ** n % p:
        raise NotInGroup("characteristic constant term shows det != 1")
    return FVector(coefficients=((-1) ** (n + 1) % p,)
                   + tuple(-full[k] % p for k in range(1, n)))


def f_of(space: SpecialLinear, t: Mat) -> FVector:
    """The f map, after checking that t is regular semisimple."""
    return f_from_char_poly(space, space.require_regular(t, "the f map"))


def fiber_bound_check(S: ElementSet) -> tuple[int, Fraction]:
    """|f(S)| against the exact lower bound |S|/n! for a commuting set
    of regular semisimple elements.  Returns (image size, bound) and
    raises FiberBoundViolation if the bound ever failed.  The paper's
    lemma, checked by the acceptance tests; no subcommand reports it."""
    space = S.space
    mul = space.mul
    members = S.sorted_members()
    for t in members:
        space.require_regular(t, "fiber bounds")
    for a_idx in range(len(members)):
        for b_idx in range(a_idx + 1, len(members)):
            a, b = members[a_idx], members[b_idx]
            if mul(a, b) != mul(b, a):
                raise InvalidWitness("fiber bounds need a commuting set")
    image = {f_of(space, t).coefficients for t in members}
    bound = Fraction(len(members), factorial(space.n))
    if len(image) < bound:
        raise FiberBoundViolation(
            f"|f(S)| = {len(image)} fell below |S|/n! = {bound}"
        )
    return len(image), bound


def lindep_checks(field: PrimeField, block: list) -> list[bool]:
    """For each list of the n distinct eigenvalues s of a split regular
    witness t (as split_eigenvalues returns them) in block: whether every
    n of the n+1 forms g -> tr(t^i g), i = 0..n, are independent, in
    eigenvalue coordinates.  That holds exactly when each omit-one
    determinant V(s) e_{n-i}(s) is nonzero; all n+1 forms together are
    always dependent, being n+1 forms on the n-dimensional diagonal, so
    there is nothing to check there.  One omit_one_dets call serves the
    whole block."""
    # counted like split_regulars' roots: an .all() here paged in 64 KB more of numpy
    zeros = (omit_one_dets(block, field.p) == 0).sum(axis=1).tolist()
    return [zero_count == 0 for zero_count in zeros]


def fiber_exponent(fiber_size: int, base_size: int) -> float:
    """log(fiber size)/log(base size), 0.0 on degenerate inputs."""
    if fiber_size <= 0 or base_size <= 1:
        return 0.0
    return log(fiber_size) / log(base_size)
