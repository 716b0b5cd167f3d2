"""The assembled trace/fiber ("vital") instance and its diagnostics.

The instance packages the trace set X over the most popular wealth
bins, the coefficient-vector set Y = f(D), and the fiber family of
realized trace tuples, whose containment certificate is the
shifted-trace recursion itself.  The diagnostics measure it: fiber
sizes and exponents, |X| against the p^(1-delta) threshold, and the
additive energy of X against its dilates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .energy import additive_energy, dilate
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
    shift_tables,
)


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


class VitalInstance(NamedTuple):
    X: ScalarSet
    Y: VectorSet
    fibers: FiberFamily


def assemble_vital_instance(A: ElementSet, D: ElementSet, pool_radius: int,
                            budget: Budget = DEFAULT_BUDGET,
                            eigenvalues: list | None = None) -> VitalInstance:
    """Build (X, Y, fibers) from a base set A and torus elements D.

    Pool is the radius-`pool_radius` word ball of A.  Each witness t in
    D must be split regular semisimple; witnesses are also screened by
    the omit-one determinant condition (an effective stand-in for the
    exceptional-set exclusion) and screened-out ones are recorded, not
    fatal.  X collects tr(t^i a) over each witness's most popular bin,
    Y collects the coefficient vectors f(t), and the fiber of f(t) holds
    the realized tuples (tr(a), ..., tr(t^{n-1} a)).  The budget's
    seconds hold for the witness loop too, checked before each witness,
    after every block of the pool's decoding and of its shift table, and
    after every shift of its dyadic bins.  `eigenvalues`, when given,
    are the caller's split_eigenvalues_batch of D.sorted_members().
    """
    space = A.space
    if D.space != space:
        raise ValueError("A and D must share one ambient group")
    if not len(D):
        raise ValueError("vital instances need a nonempty witness set D")
    n = space.n
    field = space.field
    witnesses = D.sorted_members()
    if eigenvalues is None:
        eigenvalues = space.split_eigenvalues_batch(witnesses)
    if None in eigenvalues:  # require_split raises the reason
        space.require_split(witnesses[eigenvalues.index(None)], "vital instances")

    pool = word_ball(A, pool_radius, budget)
    kept: list[Mat] = []
    excluded: list[Mat] = []
    for t, independent in zip(witnesses, lindep_checks(field, eigenvalues)):
        (kept if independent else excluded).append(t)

    x_values: set = set()
    assignments: dict = {}
    deadline = budget.start_clock()
    done = 0

    def tick(_):
        check_deadline(done, budget, deadline, "vital witnesses")

    # the pool is decoded once, as the first table is asked for
    tables = shift_tables(pool, kept, tick)
    for done, t in enumerate(kept):
        tick(None)
        table = next(tables)
        try:
            columns = popular_tuple(dyadic_bins(t, pool, table, tick)).columns
        except NoBins:
            columns = []
        y = f_of(space, t).coefficients
        # the popular bin's shifted traces, one column per member
        shifted = table.traces[:, columns]
        x_values.update(np.flatnonzero(np.bincount(shifted.ravel(), minlength=field.p)).tolist())
        assignments.setdefault(y, set()).update(zip(*shifted[:n].tolist()))

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
    xs = np.array(X.sorted_elements(), dtype=np.int64)
    energy_sum = sum(additive_energy(xs, dilate(xs, y1, p), p)[0] for y1 in pi1)
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
