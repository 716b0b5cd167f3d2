"""Maximal tori as centralizers of regular semisimple witnesses.

A regular semisimple g0 pins down one maximal torus, its centralizer.
Intersections with word balls are computed by direct commutation scans;
the full torus order over F_p comes from the factor degrees d_i of the
(squarefree) characteristic polynomial:

    |T(K)| = prod_i (p^{d_i} - 1) / (p - 1),

which gives (p-1)^(n-1) for split witnesses and p+1 for the nonsplit
SL_2 torus.  Character kernels are cut out in eigenvalue coordinates,
so they are only available for split witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg, polys
from .errors import InvalidWitness
from .growth import Budget, DEFAULT_BUDGET, ElementSet, _ball_shells
from .matrices import Mat, SemisimplicityClass, SpecialLinear
from .tracelab import _require_split


@dataclass(frozen=True)
class TorusHandle:
    """A maximal torus named by its regular semisimple witness."""

    space: SpecialLinear
    witness: Mat

    def __post_init__(self):
        if not self.space.is_regular_semisimple(self.witness):
            raise InvalidWitness("torus witness must be regular semisimple")

    @property
    def kappa(self):
        return self.space.char_poly(self.witness)


def centralizer_torus(A_k: ElementSet, g0: Mat) -> ElementSet:
    """Elements of A_k commuting with the witness g0."""
    space = A_k.space
    if not space.is_regular_semisimple(g0):
        raise InvalidWitness("centralizer witness must be regular semisimple")
    mul = space.mul
    members = frozenset(h for h in A_k.members if mul(h, g0) == mul(g0, h))
    return ElementSet(space, members)


def torus_order_and_split(space: SpecialLinear, g0: Mat) -> tuple[int, bool]:
    """(|T(K)|, split?) for the centralizer torus of g0 over F_p."""
    f = space.char_poly_full(g0)
    if not polys.is_squarefree(f, space.field):
        raise InvalidWitness("torus witness must be regular semisimple")
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
    balls = {k: grow.members(shells[:k]) for k in ks}
    ball = balls[kmax]

    by_kappa: dict = {}
    for g in sorted(ball):
        if space.is_regular_semisimple(g):
            kappa = space.char_poly(g)
            if kappa not in by_kappa:
                by_kappa[kappa] = g

    mul = space.mul
    seen_centralizers: dict = {}
    reports: list[TorusReport] = []
    for kappa in sorted(by_kappa):
        g0 = by_kappa[kappa]
        cent = frozenset(h for h in ball if mul(h, g0) == mul(g0, h))
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


@dataclass(frozen=True)
class CharacterSpec:
    """A torus character t -> prod_i lambda_i(t)^(m_i) in eigenvalue
    coordinates; exponents are bounded ints, not all zero."""

    exponents: tuple
    bound: int = 16

    def __post_init__(self):
        if not self.exponents or all(m == 0 for m in self.exponents):
            raise ValueError("character exponents must not all vanish")
        if any(abs(m) > self.bound for m in self.exponents):
            raise ValueError(f"character exponents exceed bound {self.bound}")


def eigenvector_basis(space: SpecialLinear, g0: Mat) -> tuple[list[int], list[list[int]]]:
    """Eigenvalues of a split regular witness sorted ascending as ints,
    with one deterministic eigenvector per eigenvalue."""
    eigs = _require_split(space, g0, "eigenvalue coordinates")
    n, p = space.n, space.p
    vectors = []
    for lam in eigs:
        rows = space.to_rows(g0)
        for i in range(n):
            rows[i][i] = (rows[i][i] - lam) % p
        vec = linalg.nullspace_vector(rows, space.field)
        assert vec is not None
        vectors.append(vec)
    return eigs, vectors


def character_kernel_members(T_elems: ElementSet, spec: CharacterSpec,
                             g0: Mat) -> ElementSet:
    """Members t of the torus set with prod_i lambda_i(t)^(m_i) = 1.

    Coordinates are read off the witness eigenbasis: for commuting t,
    each eigenvector of g0 is an eigenvector of t, and lambda_i(t) is
    the corresponding scalar.
    """
    space = T_elems.space
    n, p = space.n, space.p
    if len(spec.exponents) != n:
        raise ValueError(f"need {n} character exponents, got {len(spec.exponents)}")
    _, vectors = eigenvector_basis(space, g0)
    mul = space.mul
    anchors = []
    for vec in vectors:
        j = next(i for i, x in enumerate(vec) if x)
        anchors.append((j, space.field.inv(vec[j])))
    kernel = set()
    for t in T_elems.members:
        if mul(t, g0) != mul(g0, t):
            raise ValueError("torus set contains an element not commuting with the witness")
        alpha = 1
        ok = True
        for vec, (j, inv_vj), m in zip(vectors, anchors, spec.exponents):
            tv = [sum(t[i * n + k] * vec[k] for k in range(n)) % p for i in range(n)]
            lam = (tv[j] * inv_vj) % p
            if any(tv[i] != (lam * vec[i]) % p for i in range(n)):
                raise ValueError("torus set member does not share the witness eigenbasis")
            if lam == 0:
                ok = False
                break
            alpha = (alpha * pow(lam, m, p)) % p
        if ok and alpha == 1:
            kernel.add(t)
    return ElementSet(space, frozenset(kernel))


def count_semisimple_classes(B: ElementSet) -> tuple[int, int]:
    """(# distinct invariant tuples among regular semisimple members,
    # members that are semisimple but not regular)."""
    space = B.space
    regular_kappas = set()
    nonregular = 0
    for g in B.members:
        cls = space.classify_semisimple(g)
        if cls is SemisimplicityClass.REGULAR_SEMISIMPLE:
            regular_kappas.add(space.char_poly(g))
        elif cls is SemisimplicityClass.SEMISIMPLE_NOT_REGULAR:
            nonregular += 1
    return len(regular_kappas), nonregular
