"""Trace tuples, wealth statistics, dyadic bins, and the f map.

Fix a regular semisimple t.  For g in a pool, the trace tuple at
omitted index i lists tr(t^k g) for k = 0..n skipping k = i, and the
wealth of a trace value r at shift i counts distinct conjugation
invariants among pool elements with tr(t^i g) = r and t^i g semisimple.
Pool elements whose n+1 shifts are all semisimple get sorted into
dyadic bins by the tuple of wealth magnitudes.  Wealth, bins and the
distinct tuple counts are all read off one shift table, which holds the
trace, invariant and semisimplicity of every t^k g, computed in numpy;
semisimplicity is rad(chi)(t^k g) = 0, with rad(chi) taken once per
class by polys.radical.

The f map sends t to the coefficient vector (r_0, ..., r_{n-1}) with

    tr(t^n g) = r_0 tr(g) + r_1 tr(t g) + ... + r_{n-1} tr(t^{n-1} g)

for every g, read off the characteristic polynomial of t: r_k = -a_k
for k >= 1 and r_0 = (-1)^(n+1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, log

import numpy as np

from . import polys
from .errors import FiberBoundViolation, InvalidWitness, NoBins, NotInGroup
from .field import PrimeField
from .growth import ElementSet
from .matrices import Mat, SpecialLinear, char_poly_batch
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


# pool members per batched product; bounds the temporaries' memory
SHIFT_CHUNK = 128


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


def _traces_and_codes(space: SpecialLinear, shifted: np.ndarray, dtype):
    """Traces and packed invariants of a stack of matrices in SL_n(F_p),
    read off their characteristic polynomials."""
    n, p = space.n, space.p
    coeffs = char_poly_batch(shifted, p)
    codes = np.zeros(coeffs.shape[:-1], dtype)
    for j in range(n - 1, 0, -1):  # a_{n-1} first
        codes = codes * p + coeffs[..., j].astype(dtype)
    return -coeffs[..., n - 1] % p, codes


@lru_cache(maxsize=1 << 16)
def _radical(n: int, field: PrimeField, code: int):
    """polys.radical of the class's charpoly chi, padded to length n:
    None when the class is regular semisimple.  Cached for the whole
    run: callers with many witnesses over one pool meet the same few
    classes again and again."""
    p = field.p
    chi = [(-1) ** n % p] + [code // p ** (j - 1) % p for j in range(1, n)] + [1]
    rad = polys.radical(chi, field)
    return None if rad is None else tuple(rad) + (0,) * (n - len(rad))


def _semisimple(space: SpecialLinear, shifted: np.ndarray,
                codes: np.ndarray) -> np.ndarray:
    """Semisimplicity of each shifted matrix, decided per class first.

    g is semisimple iff rad(chi)(g) = 0, the rule of
    SpecialLinear.classify_semisimple; a squarefree chi needs no test.
    """
    n, p = space.n, space.p
    flat = codes.ravel().tolist()
    radicals = {code: _radical(n, space.field, code) for code in set(flat)}
    need = [j for j, code in enumerate(flat) if radicals[code] is not None]
    ok = np.ones(len(flat), dtype=bool)
    if need:
        coeffs = np.array([radicals[flat[j]] for j in need], dtype=np.int64)
        mats = shifted.reshape(-1, n, n)[need]
        diag = np.arange(n)
        value = np.zeros_like(mats)
        for d in range(n - 1, -1, -1):  # Horner: value = rad(mats)
            value = np.matmul(value, mats) % p
            value[:, diag, diag] += coeffs[:, d, None]
        ok[need] = ~(value % p).any(axis=(1, 2))
    return ok.reshape(codes.shape)


def shift_table(t: Mat, pool: ElementSet, tick=lambda done: None) -> ShiftTable:
    """Trace, invariant and semisimplicity of t^k g for k = 0..n and
    every g in the pool, in chunks of SHIFT_CHUNK pool members.
    tick(done) follows every chunk, with the members tabled so far."""
    space = pool.space
    n, p = space.n, space.p
    members = list(pool.members)
    m = len(members)
    powers = np.array(space.power_list(t, n), dtype=np.int64).reshape(n + 1, 1, n, n)
    # codes below p^(n-1); past int64 they stay Python ints
    dtype = np.int64 if p ** (n - 1) <= np.iinfo(np.int64).max else object
    traces = np.empty((n + 1, m), dtype=np.int64)
    codes = np.empty((n + 1, m), dtype=dtype)
    semisimple = np.empty((n + 1, m), dtype=bool)
    for lo in range(0, m, SHIFT_CHUNK):
        part = slice(lo, lo + SHIFT_CHUNK)
        chunk = np.array(members[part], dtype=np.int64).reshape(1, -1, n, n)
        shifted = np.matmul(powers, chunk) % p
        traces[:, part], codes[:, part] = _traces_and_codes(space, shifted, dtype)
        semisimple[:, part] = _semisimple(space, shifted, codes[:, part])
        tick(min(m, lo + SHIFT_CHUNK))
    return ShiftTable(members, traces, codes, semisimple)


def _wealths(table: ShiftTable, i: int) -> Counter:
    """Trace value r -> number of distinct invariants among semisimple
    shifts t^i g with tr(t^i g) = r."""
    ss = table.semisimple[i]
    kinds = set(zip(table.traces[i, ss].tolist(), table.codes[i, ss].tolist()))
    return Counter(r for r, _ in kinds)


def wealth(t: Mat, i: int, r: int, pool: ElementSet) -> int:
    """Number of distinct invariant tuples kappa(t^i g) over pool
    elements g with tr(t^i g) = r and t^i g semisimple: the paper's
    definition, for one (i, r); dyadic_bins reads every count off one
    shift table instead."""
    space = pool.space
    n = space.n
    if not 0 <= i <= n:
        raise ValueError(f"shift {i} out of range 0..{n}")
    space.require_regular(t, "wealth")
    return _wealths(shift_table(t, pool), i)[r % space.p]


@dataclass
class WealthBin:
    """One dyadic cell: pool elements whose wealth vector satisfies
    2^(j_i) <= wealth_i < 2^(j_i + 1) in every coordinate."""

    t: Mat
    jvec: tuple
    members: ElementSet


def dyadic_bins(t: Mat, pool: ElementSet, table: ShiftTable | None = None,
                tick=lambda done: None) -> list[WealthBin]:
    """Partition the eligible part of the pool into dyadic wealth bins.

    Eligible means g, tg, ..., t^n g all semisimple.  Every eligible g
    contributes its own invariant to each wealth count, so all wealths
    are >= 1 and the bin exponents are the bit lengths minus one.
    Returns bins sorted by jvec; empty bins are never materialized.
    `table` is `shift_table(t, pool)`, when the caller already has it.
    tick(done) follows the wealth pass of every shift, with the shifts
    passed so far, and the binning, with all n + 1.
    """
    space = pool.space
    space.require_regular(t, "dyadic bins")
    if table is None:
        table = shift_table(t, pool)
    eligible = table.semisimple.all(axis=0)
    columns = []
    for i in range(space.n + 1):
        exponent = {r: w.bit_length() - 1 for r, w in _wealths(table, i).items()}
        columns.append([exponent[r] for r in table.traces[i, eligible].tolist()])
        tick(i + 1)
    members = [g for g, ok in zip(table.members, eligible.tolist()) if ok]
    bins: dict = {}
    for g, jvec in zip(members, zip(*columns)):
        bins.setdefault(jvec, []).append(g)
    tick(space.n + 1)
    return [
        WealthBin(t=t, jvec=jvec, members=ElementSet(space, frozenset(bins[jvec])))
        for jvec in sorted(bins)
    ]


def distinct_tuple_counts(table: ShiftTable) -> tuple[list[int], list[int]]:
    """For each omitted index i = 0..n: how many distinct values
    `trace_tuple(g, t, i)` takes over the pool, and how many
    `class_tuple(g, t, i)` takes over its eligible members."""
    eligible = table.semisimple.all(axis=0)
    traces = table.traces.tolist()
    codes = table.codes[:, eligible].tolist()

    def distinct(rows, i):
        return len(set(zip(*(row for k, row in enumerate(rows) if k != i))))

    shifts = range(len(traces))
    return ([distinct(traces, i) for i in shifts],
            [distinct(codes, i) for i in shifts])


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
