"""Maximal tori as centralizers of regular semisimple witnesses.

A regular semisimple g0 pins down one maximal torus, its centralizer.
Intersections with word balls are computed by direct commutation scans;
the full torus order over F_p comes from the factor degrees d_i of the
(squarefree) characteristic polynomial:

    |T(K)| = prod_i (p^{d_i} - 1) / (p - 1),

which gives (p-1)^(n-1) for split witnesses and p+1 for the nonsplit
SL_2 torus.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polys
from .growth import Budget, DEFAULT_BUDGET, ElementSet, _ball_shells, _element_set
from .matrices import Mat, SpecialLinear


def centralizer_torus(A_k: ElementSet, g0: Mat) -> ElementSet:
    """Elements of A_k commuting with the witness g0 (rich_torus_scan
    takes each centralizer from here)."""
    space = A_k.space
    space.require_regular(g0, "the centralizer torus")
    mul = space.mul
    members = frozenset(h for h in A_k.members if mul(h, g0) == mul(g0, h))
    return ElementSet(space, members)


def torus_order_and_split(space: SpecialLinear, g0: Mat) -> tuple[int, bool]:
    """(|T(K)|, split?) for the centralizer torus of g0 over F_p."""
    f = space.require_regular(g0, "the torus order")
    degrees = polys.factor_degrees(f, space.field)
    p = space.p
    order = 1
    for d in degrees:
        order *= p**d - 1
    order //= p - 1
    return order, all(d == 1 for d in degrees)


@dataclass
class TorusReport:
    """Scan result for one maximal torus; to_dict() is its output record."""

    witness: Mat
    witness_kappa: tuple
    torus_order: int
    split: bool
    intersection_sizes: dict
    richness_ratios: dict
    regular_count: int

    def to_dict(self, space: SpecialLinear) -> dict:
        return {
            "witness_kappa": space.kappa_hex(self.witness_kappa),
            "torus_order": self.torus_order,
            "split": self.split,
            "intersections": {str(k): v for k, v in sorted(self.intersection_sizes.items())},
            "richness": {str(k): v for k, v in sorted(self.richness_ratios.items())},
            "regular_count": self.regular_count,
        }


def rich_torus_scan(A: ElementSet, ks,
                    budget: Budget = DEFAULT_BUDGET) -> list[TorusReport]:
    """Scan the radius-max(ks) ball for regular semisimple witnesses,
    one per invariant tuple, and report each distinct centralizer torus.

    The invariant-tuple dedupe is a cheap pre-filter; witnesses whose
    centralizers coincide as sets are then merged exactly.  Reports come
    back sorted by descending |A_kmax intersect T(K)|.
    """
    ks = sorted(set(ks))
    if not ks or any(k < 1 for k in ks):
        raise ValueError("torus scans need a nonempty list of radii >= 1")
    space = A.space
    kmax = ks[-1]
    grow, shells, _ = _ball_shells(A, kmax, budget)
    balls = {k: _element_set(space, grow, shells[:k]) for k in ks}
    ball = balls[kmax]

    by_kappa: dict = {}
    for g in sorted(ball):
        if space.is_regular_semisimple(g):
            kappa = space.char_poly(g)
            if kappa not in by_kappa:
                by_kappa[kappa] = g

    seen_centralizers: dict = {}
    reports: list[TorusReport] = []
    for kappa in sorted(by_kappa):
        g0 = by_kappa[kappa]
        cent = centralizer_torus(ball, g0).members
        if cent in seen_centralizers:
            continue
        seen_centralizers[cent] = kappa
        order, split = torus_order_and_split(space, g0)
        denom_exp = 1.0 / (space.n + 1)
        inter = {}
        rich = {}
        for k in ks:
            size_k = len(balls[k])
            hits = sum(1 for h in cent if h in balls[k])
            inter[k] = hits
            rich[k] = hits / size_k**denom_exp
        regular_count = sum(1 for h in cent if space.is_regular_semisimple(h))
        reports.append(
            TorusReport(
                witness=g0,
                witness_kappa=kappa,
                torus_order=order,
                split=split,
                intersection_sizes=inter,
                richness_ratios=rich,
                regular_count=regular_count,
            )
        )
    reports.sort(
        key=lambda rep: (-rep.intersection_sizes[kmax], space.kappa_hex(rep.witness_kappa))
    )
    return reports
