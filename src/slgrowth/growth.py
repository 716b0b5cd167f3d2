"""Product-set expansion: word balls, triple products, growth reports.

The working objects are ElementSets, deduplicated collections of group
elements over one ambient SL_n(F_p).  A_r is computed left-to-right as
S * A_{r-1} with S = A u A^{-1} u {1}; the triple product A*A*A is
(A*A)*A with deduplication after every stage and no symmetrization.

Word balls and subgroup closures are breadth-first expansions with two
interchangeable engines that give the same sets:

- the keyed kernel (_KeyedExpander) encodes a matrix as the integer key
  sum_i a_i p^(n^2-1-i) of its row-major entries, multiplies frontier
  chunks by the generators with numpy and deduplicates through a
  bit-packed bitmap over all p^(n^2) keys;
- the tuple path (_TupleExpander) multiplies canonical tuples one pair
  at a time into a Python set.  It is the reference the kernel is
  tested against.

_expander picks the kernel when the bitmap is at most KEYED_MAX_KEYS
bits and at most KEYED_BITS_PER_ELEMENT bits per element the expansion
can reach (|G| for a closure, min(|G|, |S|^radius) for a ball), and the
tuple path otherwise: for wide key spaces such as SL_3(F_7) and for
small sets in a large group.  Expansion runs in one thread.

A closure takes its generators one at a time, skips those it already
holds, and decodes its members only when they are iterated or tested
(ClosureMembers).
"""

from __future__ import annotations

import math
import time
from collections.abc import Set
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from .errors import BudgetExceeded, Indeterminate
from .matrices import Mat, SpecialLinear

DEFAULT_MAX_ELEMENTS = 20_000_000

# Keyed expansion kernel (see _KeyedExpander): a seen-bitmap of at most
# 2 MiB (the cap must stay below 2^31 keys), at most 1024 bitmap bits
# per element the expansion may reach, and chunks of about 2^15 products
# per matmul (and 2^15 keys per decoding pass) to bound temporaries.
KEYED_MAX_KEYS = 1 << 24
KEYED_BITS_PER_ELEMENT = 1024
CHUNK_PRODUCTS = 1 << 15


@dataclass(frozen=True)
class Budget:
    """Caps on stored elements and wall-clock seconds for expansions."""

    max_elements: int = DEFAULT_MAX_ELEMENTS
    max_seconds: Optional[float] = None

    def start_clock(self) -> Optional[float]:
        if self.max_seconds is None:
            return None
        return time.monotonic() + self.max_seconds


DEFAULT_BUDGET = Budget()


class ElementSet:
    """Deduplicated set of elements of one SL_n(F_p).

    Members are flat canonical tuples, which makes tuple identity and
    canonical-byte identity the same thing; encoding only happens at
    serialization boundaries.
    """

    __slots__ = ("space", "members")

    def __init__(self, space: SpecialLinear, members: frozenset):
        self.space = space
        self.members = members

    @classmethod
    def from_matrices(cls, space: SpecialLinear, mats: Iterable[Mat]) -> "ElementSet":
        """Validating constructor: every member must lie in SL_n(F_p)."""
        checked = frozenset(space.check_member(tuple(g)) for g in mats)
        return cls(space, checked)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, g):
        return g in self.members

    def __eq__(self, other):
        return (
            isinstance(other, ElementSet)
            and other.space == self.space
            and other.members == self.members
        )

    def __repr__(self):
        return f"ElementSet({self.space!r}, {len(self.members)} elements)"

    def sorted_members(self) -> list[Mat]:
        """Members in canonical (byte-lexicographic) order."""
        return sorted(self.members)

    def dump_lines(self) -> list[str]:
        """Element dump: header then one hex-encoded element per line."""
        space = self.space
        lines = [f"n={space.n} p={space.p} count={len(self.members)}"]
        lines.extend(space.encode(g).hex() for g in self.sorted_members())
        return lines


def symmetrized(A: ElementSet) -> ElementSet:
    """A u A^{-1} u {identity}."""
    space = A.space
    members = set(A.members)
    members.update(space.inv(g) for g in A.members)
    members.add(space.identity())
    return ElementSet(space, frozenset(members))


class _TupleExpander:
    """Breadth-first expansion one tuple product at a time.

    The reference path: the seen set holds the canonical tuples and a
    shell is a list of tuples.  `left` multiplies as s*x (word balls),
    otherwise as x*s (closures).
    """

    def __init__(self, space: SpecialLinear, start, left: bool):
        self.mul = space.mul
        self.left = left
        self.start = list(start)
        self.seen = set(self.start)

    def __contains__(self, g) -> bool:
        return g in self.seen

    def join(self, shells) -> list:
        return list(chain.from_iterable(shells))

    def step(self, frontier, gens) -> list:
        """The products of the frontier with the generators not seen
        before; marks them seen."""
        mul, seen = self.mul, self.seen
        fresh = []
        for x in frontier:
            for s in gens:
                y = mul(s, x) if self.left else mul(x, s)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        return fresh

    def members(self, shells) -> frozenset:
        return frozenset(chain.from_iterable(shells))


class _KeyedExpander:
    """Breadth-first expansion by numpy over integer element keys.

    The key of a matrix is its row-major entries read as base-p digits,
    sum_i a_i p^(n^2-1-i), so key order is canonical tuple order.  A
    shell is a key array.  Each step multiplies a chunk of the frontier
    by all generators in one batched matmul, drops the products whose
    bit in the seen-bitmap (one bit per key, p^(n^2) bits) is set,
    deduplicates the rest by sorting and sets their bits.  Keys become
    tuples again only in `members`.

    Keys and entries are int32: keys stay below p^(n^2) <= KEYED_MAX_KEYS
    and matmul sums below n p^2 <= KEYED_MAX_KEYS, both under 2^31, and
    int32 halves the cost of the matmul and of the reduction mod p.
    """

    def __init__(self, space: SpecialLinear, start, left: bool):
        n, p = space.n, space.p
        self.n, self.p = n, p
        self.left = left
        self.weights = p ** np.arange(n * n - 1, -1, -1, dtype=np.int32)
        self.seen = np.zeros(-(-(p ** (n * n)) // 8), dtype=np.uint8)
        self.start = self._encode(start)
        self._mark(self.start)

    def _encode(self, mats) -> np.ndarray:
        return np.array(list(mats), dtype=np.int32).reshape(-1, self.n**2) @ self.weights

    def _digits(self, keys) -> np.ndarray:
        """Keys as an (m, n, n) array of matrix entries."""
        n = self.n
        return (keys[:, None] // self.weights % self.p).reshape(-1, n, n)

    def _mark(self, keys):
        np.bitwise_or.at(self.seen, keys >> 3, (1 << (keys & 7)).astype(np.uint8))

    def __contains__(self, g) -> bool:
        key = int(self._encode([g])[0])
        return bool(self.seen[key >> 3] >> (key & 7) & 1)

    def join(self, shells) -> np.ndarray:
        return np.concatenate(shells)

    def step(self, frontier, gens) -> np.ndarray:
        """Keys of the products of the frontier with the generators not
        seen before, sorted within each chunk; marks them seen."""
        gens, p = self._digits(self._encode(gens)), self.p
        size = max(1, CHUNK_PRODUCTS // max(1, len(gens)))
        fresh = []
        for lo in range(0, len(frontier), size):
            x = self._digits(frontier[lo : lo + size])
            if self.left:
                prod = np.matmul(gens[:, None], x[None])
            else:
                prod = np.matmul(x[:, None], gens[None])
            prod = prod.reshape(-1, self.n**2)
            keys = (prod - prod // p * p) @ self.weights  # int32 // beats %
            keys = np.sort(keys[(self.seen[keys >> 3] >> (keys & 7)) & 1 == 0])
            keys = keys[np.diff(keys, prepend=-1) != 0]
            self._mark(keys)
            fresh.append(keys)
        return np.concatenate(fresh) if fresh else frontier[:0]

    def members(self, shells) -> frozenset:
        return frozenset(chain.from_iterable(
            self._tuples(shell[lo : lo + CHUNK_PRODUCTS])
            for shell in shells
            for lo in range(0, len(shell), CHUNK_PRODUCTS)
        ))

    def _tuples(self, keys):
        """Keys back to canonical tuples, decoded column by column."""
        p = self.p
        return zip(*[(keys // w % p).tolist() for w in self.weights.tolist()])


def _expander(space: SpecialLinear, max_count: int):
    """The keyed kernel when its bitmap is small both in absolute terms
    and against the number of elements the expansion may reach (at most
    KEYED_BITS_PER_ELEMENT bits per element), else the tuple path."""
    keys = space.p ** (space.n * space.n)
    if keys <= KEYED_MAX_KEYS and keys <= KEYED_BITS_PER_ELEMENT * max_count:
        return _KeyedExpander
    return _TupleExpander


def _check_budget(count, budget: Budget, deadline, what: str):
    if count > budget.max_elements:
        raise BudgetExceeded(
            f"{what} exceeded {budget.max_elements} stored elements",
            partial_count=count,
        )
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(
            f"{what} exceeded {budget.max_seconds} seconds", partial_count=count
        )


def _word_bound(letters: int, radius: int, order: int) -> int:
    """min(order, letters ** radius) without forming a huge power."""
    bound = 1
    for _ in range(radius if letters > 1 else 0):
        bound *= letters
        if bound >= order:
            return order
    return bound


def _ball_shells(A: ElementSet, radius: int, budget: Budget):
    """Expand the word ball shell by shell up to the given radius.

    Returns (expander, shells, sizes): shells[0] is A u A^{-1} u {1},
    shells[r-1] holds A_r minus A_{r-1}, and sizes maps each radius r to
    |A_r|.  The shells end at the first empty one, or at the one that
    brings the ball to |G|: no product can be new after that, as in
    generated_closure, so no further step is taken.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    space = A.space
    deadline = budget.start_clock()
    seed = sorted(symmetrized(A).members)
    order = space.order()
    bound = _word_bound(len(seed), radius, order)
    grow = _expander(space, bound)(space, seed, left=True)
    shells = [grow.start]
    count = len(seed)
    _check_budget(count, budget, deadline, "word ball")
    sizes = {1: count}
    for r in range(2, radius + 1):
        if len(shells[-1]) and count < order:
            shells.append(grow.step(shells[-1], seed))
            count += len(shells[-1])
            _check_budget(count, budget, deadline, "word ball")
        sizes[r] = count
    return grow, shells, sizes


def word_ball(A: ElementSet, radius: int,
              budget: Budget = DEFAULT_BUDGET) -> ElementSet:
    """A_radius: all products of exactly `radius` factors drawn from
    A u A^{-1} u {1} (monotone in the radius since 1 is a factor)."""
    grow, shells, _ = _ball_shells(A, radius, budget)
    return ElementSet(A.space, grow.members(shells))


def triple_product(A: ElementSet, budget: Budget = DEFAULT_BUDGET) -> ElementSet:
    """(A*A)*A with deduplication after each stage, no symmetrization."""
    space = A.space
    mul = space.mul
    deadline = budget.start_clock()
    members = A.sorted_members()
    aa: set = set()
    for a in members:
        for b in members:
            aa.add(mul(a, b))
        _check_budget(len(aa), budget, deadline, "double product")
    aaa: set = set()
    for ab in aa:
        for c in members:
            aaa.add(mul(ab, c))
        _check_budget(len(aaa), budget, deadline, "triple product")
    return ElementSet(space, frozenset(aaa))


def standard_generators(space: SpecialLinear) -> ElementSet:
    """The elementary transvection E_12(1) and the signed n-cycle."""
    n, p = space.n, space.p
    trans = [list(row) for row in space.to_rows(space.identity())]
    trans[0][1] = 1
    cyc = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        cyc[i][i + 1] = 1
    cyc[n - 1][0] = (-1) ** (n - 1) % p
    return ElementSet.from_matrices(
        space, [space.from_rows(trans), space.from_rows(cyc)]
    )


class ClosureMembers(Set):
    """A closure's members: the size is known at once, and the tuples are
    decoded on first iteration or membership test into `members`."""

    def __init__(self, count: int, decode):
        self._count, self._decode = count, decode

    @cached_property
    def members(self) -> frozenset:
        decode, self._decode = self._decode, None  # frees the shells after
        return decode()

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)  # what the set operators return

    def __len__(self):
        return self._count

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, g):
        return g in self.members


def generated_closure(space: SpecialLinear, A: Optional[ElementSet] = None,
                      budget: Budget = DEFAULT_BUDGET) -> ClosureMembers:
    """Closure of A u A^{-1} under multiplication (the generated
    subgroup), by breadth-first search from the identity.

    The members of A join in canonical order unless the closure so far
    holds them.  A new g multiplies every member so far by g and g^{-1},
    then the search goes on over all generators taken.  The members so
    far are closed under the earlier generators, so a path out of them
    starts in that first new shell.
    """
    if A is None:
        A = standard_generators(space)
    order = space.order()
    if order > budget.max_elements:
        raise Indeterminate(
            f"group order {order} exceeds the closure budget "
            f"{budget.max_elements}"
        )
    deadline = budget.start_clock()
    grow = _expander(space, order)(space, [space.identity()], left=False)
    shells = [grow.start]
    count = 1
    active: list = []
    for g in sorted(A.members):
        if count == order:
            break
        if g in grow:
            continue
        pair = sorted({g, space.inv(g)})
        active.extend(pair)
        frontier, over = grow.join(shells), pair
        while len(frontier):
            frontier = grow.step(frontier, over)
            shells.append(frontier)
            count += len(frontier)
            if count == order:
                break
            _check_budget(count, budget, deadline, "subgroup closure")
            over = active
    return ClosureMembers(count, partial(grow.members, shells))


def full_group(space: SpecialLinear, budget: Budget = DEFAULT_BUDGET) -> ElementSet:
    """All of SL_n(F_p) as an ElementSet (desk-scale orders only): the
    group G of the paper, which the tests check balls and tori against."""
    closure = generated_closure(space, budget=budget)
    if len(closure) != space.order():
        raise RuntimeError("standard generators failed to generate; bug")
    return ElementSet(space, closure.members)


def generates(A: ElementSet, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Does A generate the whole group?  Counts the closure without
    decoding it; Indeterminate when |G| exceeds the closure budget."""
    space = A.space
    return len(generated_closure(space, A, budget)) == space.order()


@dataclass
class GrowthReport:
    """One growth experiment; to_dict() is its output record.

    epsilon_hat is log|AAA|/log|A| - 1; the measured exponents
    log|A_k|/log|A| - 1 ride along per requested radius so tripling and
    ball growth can be compared directly.
    """

    n: int
    p: int
    size_a: int
    size_aaa: int
    epsilon_hat: float
    group_order: int
    saturated: bool
    degenerate: bool
    generation_checked: bool
    generation_ok: Optional[bool]
    ball_sizes: dict = dc_field(default_factory=dict)
    ball_exponents: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "p": self.p,
            "size_A": self.size_a,
            "size_AAA": self.size_aaa,
            "epsilon_hat": self.epsilon_hat,
            "group_order": self.group_order,
            "saturated": self.saturated,
            "degenerate": self.degenerate,
            "generation_checked": self.generation_checked,
            "generation_ok": self.generation_ok,
        }
        for k in sorted(self.ball_sizes):
            out[f"size_A_{k}"] = self.ball_sizes[k]
            out[f"exponent_A_{k}"] = self.ball_exponents[k]
        return out


def growth_scan(A: ElementSet, ks=(), budget: Budget = DEFAULT_BUDGET,
                check_generation: bool = True) -> GrowthReport:
    """Measure |A|, |A*A*A|, epsilon_hat, and ball sizes for each k.

    Generation is checked when the group order fits the budget,
    otherwise skipped and flagged; epsilon_hat degenerates to 0 with a
    flag when |A| <= 1.
    """
    space = A.space
    ks = sorted(set(ks))
    if any(k < 1 for k in ks):
        raise ValueError("ball radii must be >= 1")
    order = space.order()
    generation_ok: Optional[bool] = None
    if check_generation:
        try:
            generation_ok = generates(A, budget)
        except Indeterminate:
            pass  # |G| exceeds the closure budget: generation is not checked
    size_a = len(A)
    aaa = triple_product(A, budget)
    size_aaa = len(aaa)
    degenerate = size_a <= 1
    if degenerate:
        epsilon_hat = 0.0
    else:
        epsilon_hat = math.log(size_aaa) / math.log(size_a) - 1.0
    ball_sizes: dict = {}
    ball_exponents: dict = {}
    if ks:
        _, _, sizes = _ball_shells(A, max(ks), budget)
        for k in ks:
            ball_sizes[k] = sizes[k]
            if degenerate:
                ball_exponents[k] = 0.0
            else:
                ball_exponents[k] = math.log(sizes[k]) / math.log(size_a) - 1.0
    return GrowthReport(
        n=space.n,
        p=space.p,
        size_a=size_a,
        size_aaa=size_aaa,
        epsilon_hat=epsilon_hat,
        group_order=order,
        saturated=size_aaa == order,
        degenerate=degenerate,
        generation_checked=generation_ok is not None,
        generation_ok=generation_ok,
        ball_sizes=ball_sizes,
        ball_exponents=ball_exponents,
    )
