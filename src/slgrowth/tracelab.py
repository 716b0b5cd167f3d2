"""Trace tuples, wealth statistics, dyadic bins, and the f map.

Fix a regular semisimple t.  For g in a pool, the trace tuple at
omitted index i lists tr(t^k g) for k = 0..n skipping k = i, and the
wealth of a trace value r at shift i counts distinct conjugation
invariants among pool elements with tr(t^i g) = r and t^i g semisimple.
Pool elements whose n+1 shifts are all semisimple get sorted into
dyadic bins by the tuple of wealth magnitudes.

The f map sends t to the coefficient vector (r_0, ..., r_{n-1}) with

    tr(t^n g) = r_0 tr(g) + r_1 tr(t g) + ... + r_{n-1} tr(t^{n-1} g)

for every g, read off the characteristic polynomial of t: r_k = -a_k
for k >= 1 and r_0 = (-1)^(n+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log

from . import linalg, polys
from .errors import (
    FiberBoundViolation,
    InvalidWitness,
    NoBins,
    NotInGroup,
    UnsupportedTorus,
)
from .growth import ElementSet
from .matrices import Mat, SemisimplicityClass, SpecialLinear
from .vandermonde import generalized_vandermonde_det


def _require_regular(space: SpecialLinear, t: Mat, what: str) -> list[int]:
    """The coefficients of det(xI - t), lowest degree first, after
    checking that t is regular semisimple (squarefree charpoly)."""
    full = space.char_poly_full(t)
    if not polys.is_squarefree(full, space.field):
        raise InvalidWitness(f"{what} needs a regular semisimple witness")
    return full


def _require_split(space: SpecialLinear, t: Mat, what: str) -> list[int]:
    """The eigenvalues of t sorted ascending as ints, after checking
    that t is regular semisimple (InvalidWitness) and split over F_p
    (UnsupportedTorus)."""
    eigs = space.split_eigenvalues(t)
    if eigs is None:
        if not space.is_regular_semisimple(t):
            raise InvalidWitness(f"{what} needs a regular semisimple witness")
        raise UnsupportedTorus(
            f"{what} needs a split witness "
            "(characteristic polynomial with n rational roots)"
        )
    return eigs


@dataclass(frozen=True)
class TraceTuple:
    omitted_index: int
    values: tuple


@dataclass(frozen=True)
class ClassTuple:
    omitted_index: int
    values: tuple  # invariant tuple per kept shift


def trace_tuple(space: SpecialLinear, g: Mat, t: Mat, i: int) -> TraceTuple:
    """(tr(t^k g) for k = 0..n, k != i)."""
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
    must be semisimple for the tuple to be class-faithful)."""
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


def wealth(t: Mat, i: int, r: int, pool: ElementSet) -> int:
    """Number of distinct invariant tuples kappa(t^i g) over pool
    elements g with tr(t^i g) = r and t^i g semisimple."""
    space = pool.space
    n = space.n
    if not 0 <= i <= n:
        raise ValueError(f"shift {i} out of range 0..{n}")
    _require_regular(space, t, "wealth")
    r %= space.p
    ti = space.power(t, i)
    mul = space.mul
    kappas = set()
    for g in pool.members:
        shifted = mul(ti, g)
        if space.trace(shifted) != r:
            continue
        if space.classify_semisimple(shifted) is SemisimplicityClass.NOT_SEMISIMPLE:
            continue
        kappas.add(space.char_poly(shifted))
    return len(kappas)


@dataclass
class WealthBin:
    """One dyadic cell: pool elements whose wealth vector satisfies
    2^(j_i) <= wealth_i < 2^(j_i + 1) in every coordinate."""

    t: Mat
    jvec: tuple
    members: ElementSet


def dyadic_bins(t: Mat, pool: ElementSet) -> list[WealthBin]:
    """Partition the eligible part of the pool into dyadic wealth bins.

    Eligible means g, tg, ..., t^n g all semisimple.  Every eligible g
    contributes its own invariant to each wealth count, so all wealths
    are >= 1 and the bin exponents are the bit lengths minus one.
    Returns bins sorted by jvec; empty bins are never materialized.
    """
    space = pool.space
    n = space.n
    _require_regular(space, t, "dyadic bins")
    powers = space.power_list(t, n)
    mul = space.mul

    # wealth tables per shift: trace value -> set of invariants seen
    kappa_tables: list[dict] = [dict() for _ in range(n + 1)]
    eligible: dict = {}
    for g in pool.members:
        all_ss = True
        traces = []
        for i in range(n + 1):
            shifted = mul(powers[i], g)
            tr = space.trace(shifted)
            traces.append(tr)
            if space.classify_semisimple(shifted) is SemisimplicityClass.NOT_SEMISIMPLE:
                all_ss = False
            else:
                kappa_tables[i].setdefault(tr, set()).add(
                    space.char_poly(shifted)
                )
        if all_ss:
            eligible[g] = tuple(traces)

    bins: dict = {}
    for g, traces in eligible.items():
        jvec = tuple(
            len(kappa_tables[i][traces[i]]).bit_length() - 1 for i in range(n + 1)
        )
        bins.setdefault(jvec, set()).add(g)
    return [
        WealthBin(t=t, jvec=jvec, members=ElementSet(space, frozenset(bins[jvec])))
        for jvec in sorted(bins)
    ]


def popular_tuple(bins: list[WealthBin]) -> WealthBin:
    """The largest bin; ties break toward the lexicographically
    smallest jvec.  Raises NoBins on an empty list."""
    if not bins:
        raise NoBins("no nonempty dyadic bins")
    return min(bins, key=lambda b: (-len(b.members), b.jvec))


def bin_spread(bins: list[WealthBin], threshold: int = 1) -> int:
    """max_i j_i - min_i j_i, maximized over bins with at least
    `threshold` members; 0 when no bin qualifies."""
    spread = 0
    for b in bins:
        if len(b.members) >= threshold:
            spread = max(spread, max(b.jvec) - min(b.jvec))
    return spread


@dataclass(frozen=True)
class FVector:
    """Coefficients (r_0, ..., r_{n-1}) of the shifted-trace recursion."""

    coefficients: tuple


def f_of(space: SpecialLinear, t: Mat) -> FVector:
    """The f map: r_k = -a_k for k = 1..n-1 and r_0 = (-1)^(n+1), read
    off det(xI - t) = sum_k a_k x^k (Cayley-Hamilton applied to t^n)."""
    n, p = space.n, space.p
    full = _require_regular(space, t, "the f map")  # det(xI - t), once
    if full[0] != (-1) ** n % p:
        raise NotInGroup("characteristic constant term shows det != 1")
    coeffs = [0] * n
    coeffs[0] = (-1) ** (n + 1) % p
    for k in range(1, n):
        coeffs[k] = (-full[k]) % p
    return FVector(coefficients=tuple(coeffs))


def f_relation_holds(space: SpecialLinear, t: Mat, g: Mat) -> bool:
    """Check tr(t^n g) = sum_k r_k tr(t^k g) for one pair (t, g)."""
    n, p = space.n, space.p
    powers = space.power_list(t, n)
    fv = f_of(space, t)
    lhs = space.trace_product(powers[n], g)
    rhs = 0
    for k in range(n):
        rhs += fv.coefficients[k] * space.trace_product(powers[k], g)
    return lhs == rhs % p


def fiber_bound_check(S: ElementSet) -> tuple[int, Fraction]:
    """|f(S)| against the exact lower bound |S|/n! for a commuting set
    of regular semisimple elements.  Returns (image size, bound) and
    raises FiberBoundViolation if the bound ever failed."""
    space = S.space
    mul = space.mul
    members = S.sorted_members()
    for t in members:
        _require_regular(space, t, "fiber bounds")
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


def lindep_check(space: SpecialLinear, t: Mat) -> tuple[bool, bool]:
    """Linear (in)dependence of the forms g -> tr(t^i g), i = 0..n, in
    eigenvalue coordinates of a split regular witness.

    Returns (dependent_all, independent_subsets): the full n+1 forms
    are always dependent on the n-dimensional diagonal; every n-subset
    is independent exactly when each omit-one determinant is nonzero.
    """
    eigs = _require_split(space, t, "dependence checks")
    field = space.field
    n = space.n
    rows = []
    power = [1] * n
    for _ in range(n + 1):
        rows.append(list(power))
        power = [(power[j] * eigs[j]) % space.p for j in range(n)]
    dependent_all = linalg.rank_mod(rows, field) <= n
    independent_subsets = all(
        generalized_vandermonde_det(field, eigs, i) != 0 for i in range(n + 1)
    )
    return dependent_all, independent_subsets


def fiber_exponent(fiber_size: int, base_size: int) -> float:
    """log(fiber size)/log(base size), 0.0 on degenerate inputs."""
    if fiber_size <= 0 or base_size <= 1:
        return 0.0
    return log(fiber_size) / log(base_size)
