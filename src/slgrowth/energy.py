"""Additive energy over Z/pZ and the assembled trace/fiber instance.

E_+(X, Y) counts quadruples (a, b, a', b') in X x Y x X x Y with
a - b = a' - b' mod p, computed as sum_d r(d)^2 from the difference
table.  The assembled instance packages the trace set X over the most
popular wealth bins, the coefficient-vector set Y = f(D), and the fiber
family of realized trace tuples, whose containment certificate is the
shifted-trace recursion itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .field import PrimeField
from .growth import Budget, DEFAULT_BUDGET, ElementSet, check_deadline, word_ball
from .matrices import Mat
from .tracelab import (
    NoBins,
    dyadic_bins,
    f_of,
    fiber_exponent,
    lindep_checks,
    popular_tuple,
    shift_table,
)

_CHUNK_ENTRIES = 8_000_000  # cap on the live difference-table block


@dataclass(frozen=True)
class ScalarSet:
    """A set of canonical residues in one prime field."""

    field: PrimeField
    elements: frozenset

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def sorted_elements(self) -> list[int]:
        return sorted(self.elements)


@dataclass(frozen=True)
class VectorSet:
    """A set of fixed-dimension coordinate tuples over one prime field."""

    field: PrimeField
    elements: frozenset

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def sorted_elements(self) -> list[tuple]:
        return sorted(self.elements)


class FiberFamily:
    """Map y-vector -> set of x-tuples, every tuple certified to satisfy
    the containment y . x in X with all coordinates in X."""

    def __init__(self, x_set: ScalarSet, assignments: dict):
        p = x_set.field.p
        for y, tuples in assignments.items():
            for x in tuples:
                dot = sum(yc * xc for yc, xc in zip(y, x)) % p
                if dot not in x_set.elements:
                    raise ValueError(
                        f"containment certificate failed: {y} . {x} = {dot} not in X"
                    )
                if any(xc not in x_set.elements for xc in x):
                    raise ValueError(f"fiber tuple {x} leaves X")
        self.assignments = {y: frozenset(tuples) for y, tuples in assignments.items()}
        self.excluded_witnesses: tuple = ()

    def __len__(self):
        return len(self.assignments)

    def fiber(self, y) -> frozenset:
        return self.assignments.get(tuple(y), frozenset())


def additive_energy(X: ScalarSet, Y: ScalarSet) -> tuple[int, np.ndarray]:
    """(sum_d r(d)^2, r) with r(d) = #{(a, b) in X x Y : a - b = d mod p}.

    r is the int64 difference-count vector of length p, so |X - Y| is
    its number of nonzero entries.  Each pair gives a + p - b in
    [1, 2p), which is d or d + p, so one bincount over 2p bins per
    block of pairs, folded once as r = c[:p] + c[p:], needs no modulo
    per pair.  Counts stay far inside int64 at desk scale, so the
    energy is exact.  Empty inputs give (0, zeros(p)).
    """
    if X.field != Y.field:
        raise ValueError("energy needs both sets over one field")
    p = X.field.p
    if not X.elements or not Y.elements:
        return 0, np.zeros(p, dtype=np.int64)
    xs = np.array(list(X.elements), dtype=np.int64) + p
    ys = np.array(list(Y.elements), dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // len(ys))
    counts = sum(np.bincount((xs[lo : lo + step, None] - ys).ravel(), minlength=2 * p)
                 for lo in range(0, len(xs), step))
    counts = counts[:p] + counts[p:]
    return int(np.dot(counts, counts)), counts


def dilate(X: ScalarSet, y: int) -> ScalarSet:
    """{y * x mod p : x in X}; a bijection on X for y != 0."""
    p = X.field.p
    y %= p
    return ScalarSet(X.field, frozenset((y * x) % p for x in X.elements))


class VitalInstance(NamedTuple):
    X: ScalarSet
    Y: VectorSet
    fibers: FiberFamily


def assemble_vital_instance(A: ElementSet, D: ElementSet, pool_radius: int,
                            budget: Budget = DEFAULT_BUDGET) -> VitalInstance:
    """Build (X, Y, fibers) from a base set A and torus elements D.

    Pool is the radius-`pool_radius` word ball of A.  Each witness t in
    D must be split regular semisimple; witnesses are also screened by
    the omit-one determinant condition (an effective stand-in for the
    exceptional-set exclusion) and screened-out ones are recorded, not
    fatal.  X collects tr(t^i a) over each witness's most popular bin,
    Y collects the coefficient vectors f(t), and the fiber of f(t) holds
    the realized tuples (tr(a), ..., tr(t^{n-1} a)).  The budget's
    seconds hold for the witness loop too, checked before each witness
    and after every chunk of its shift table.
    """
    space = A.space
    if D.space != space:
        raise ValueError("A and D must share one ambient group")
    if not len(D):
        raise ValueError("vital instances need a nonempty witness set D")
    n = space.n
    field = space.field
    eigenvalues = {t: space.require_split(t, "vital instances") for t in D.members}

    pool = word_ball(A, pool_radius, budget)
    kept: list[Mat] = []
    excluded: list[Mat] = []
    witnesses = D.sorted_members()
    checks = lindep_checks(field, [eigenvalues[t] for t in witnesses])
    for t, independent in zip(witnesses, checks):
        (kept if independent else excluded).append(t)

    x_values: set = set()
    assignments: dict = {}
    deadline = budget.start_clock()
    for done, t in enumerate(kept):
        check_deadline(done, budget, deadline, "vital witnesses")
        table = shift_table(t, pool, lambda _: check_deadline(
            done, budget, deadline, "vital witnesses"))
        try:
            popular = popular_tuple(dyadic_bins(t, pool, table))
            members = popular.members.members
        except NoBins:
            members = frozenset()
        y = f_of(space, t).coefficients
        tuples = assignments.setdefault(y, set())
        # the table's column j holds tr(t^i g) for g = table.members[j]
        columns = [j for j, g in enumerate(table.members) if g in members]
        for shifted_traces in table.traces[:, columns].T.tolist():
            x_values.update(shifted_traces)
            tuples.add(tuple(shifted_traces[:n]))

    X = ScalarSet(field, frozenset(x_values))
    Y = VectorSet(field, frozenset(assignments))
    fibers = FiberFamily(X, assignments)
    fibers.excluded_witnesses = tuple(excluded)
    return VitalInstance(X=X, Y=Y, fibers=fibers)


@dataclass
class VitalReport:
    """Diagnostics for one assembled instance.

    Rows carry per-y fiber data; the summary carries the size of X
    against the p^(1-delta) threshold, the first-coordinate projection
    size, and the fixed-order energy sum over that projection.
    """

    p: int
    delta: Fraction
    x_size: int
    y_size: int
    pi1_size: int
    threshold: float
    x_meets_threshold: bool
    min_fiber: int
    max_fiber: int
    energy_sum: int
    degenerate: bool
    rows: list  # (y tuple, fiber size, fiber exponent)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "delta": str(self.delta),
            "x_size": self.x_size,
            "y_size": self.y_size,
            "pi1_size": self.pi1_size,
            "threshold": self.threshold,
            "x_meets_threshold": self.x_meets_threshold,
            "min_fiber": self.min_fiber,
            "max_fiber": self.max_fiber,
            "energy_sum": self.energy_sum,
            "degenerate": self.degenerate,
            "fibers": [
                {
                    "y": list(y),
                    "size": size,
                    "exponent": exponent,
                }
                for y, size, exponent in self.rows
            ],
        }


def vital_diagnostics(X: ScalarSet, Y: VectorSet, fibers: FiberFamily,
                      delta) -> VitalReport:
    """Size, exponent, and energy diagnostics for an assembled instance.

    The energy sum runs over the distinct first coordinates y_1 of Y in
    ascending order: sum of E_+(X, y_1 * X).  Degenerate inputs
    (|X| <= 1) zero the exponents and flag the report.
    """
    delta = Fraction(delta)
    p = X.field.p
    degenerate = len(X) <= 1
    threshold = float(p) ** float(1 - delta)
    rows = []
    sizes = []
    for y in Y.sorted_elements():
        fib = fibers.fiber(y)
        size = len(fib)
        sizes.append(size)
        rows.append((y, size, fiber_exponent(size, len(X))))
    pi1 = sorted({y[0] for y in Y.elements})
    energy_sum = 0
    for y1 in pi1:
        energy_sum += additive_energy(X, dilate(X, y1))[0]
    return VitalReport(
        p=p,
        delta=delta,
        x_size=len(X),
        y_size=len(Y),
        pi1_size=len(pi1),
        threshold=threshold,
        x_meets_threshold=len(X) <= threshold,
        min_fiber=min(sizes) if sizes else 0,
        max_fiber=max(sizes) if sizes else 0,
        energy_sum=energy_sum,
        degenerate=degenerate,
        rows=rows,
    )
