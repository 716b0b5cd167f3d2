"""Product-set expansion: word balls, triple products, growth reports.

The working objects are ElementSets, deduplicated collections of group
elements over one ambient SL_n(F_p).  A_r is computed as A_{r-1} * S
with S = A u A^{-1} u {1}, which is S^r = S * A_{r-1} as S is symmetric
and holds 1; the triple product A*A*A is (A*A)*A with deduplication
after every stage and no symmetrization.

Word balls, subgroup closures and triple products all go through one
step, the products of a frontier with a list of generators that the
engine has not seen before, on one of two interchangeable engines that
give the same sets:

- the keyed kernel (_KeyedExpander) encodes a matrix as the integer key
  sum_i a_i p^(n^2-1-i) of its row-major entries, forms products by
  row-table lookups and deduplicates through a bit-packed bitmap over
  all p^(n^2) keys;
- the tuple path (_TupleExpander) multiplies canonical tuples one pair
  at a time into a Python set.  It is the reference the kernel is
  tested against.

_expander picks the kernel when the bitmap is at most KEYED_MAX_KEYS
bits and at most KEYED_BITS_PER_ELEMENT bits per element the expansion
can reach (|G| for a closure, min(|G|, |S|^radius) for a ball,
min(|G|, |A|^3) for a triple product), and the tuple path otherwise:
for wide key spaces such as SL_3(F_7) and for small sets in a large
group.  Expansion runs in one thread.

A closure takes its generators one at a time and skips those it already
holds.  A triple product is two steps, A*A and then (A*A)*A, each on a
fresh engine with nothing seen.  Each returns an ElementSet that knows
its size at once and decodes its members on first use; it holds the
engine's shells, not its seen set or bitmap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from .errors import BudgetExceeded, Indeterminate
from .matrices import Mat, SpecialLinear

DEFAULT_MAX_ELEMENTS = 20_000_000

# Keyed expansion kernel (see _KeyedExpander): a seen-bitmap of at most
# 2 MiB (the cap must stay below 2^31 keys), at most 1024 bitmap bits
# per element the expansion may reach, and about 2^15 products (table
# entries, keys decoded) per chunk to bound temporaries, with one
# deadline check per chunk of products.
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
    serialization boundaries.  Word balls, closures and triple products
    come back with their count and a call that decodes their members:
    `len` never decodes, and `members` decodes once, on first use.
    """

    __slots__ = ("space", "_members", "_count")

    def __init__(self, space: SpecialLinear, members, count: Optional[int] = None):
        """members: a frozenset, or a call that returns it, with its count."""
        self.space, self._members = space, members
        self._count = len(members) if count is None else count

    @property
    def members(self) -> frozenset:
        if callable(self._members):
            self._members = self._members()
        return self._members

    @classmethod
    def from_matrices(cls, space: SpecialLinear, mats: Iterable[Mat]) -> "ElementSet":
        """Validating constructor: every member must lie in SL_n(F_p)."""
        checked = frozenset(space.check_member(tuple(g)) for g in mats)
        return cls(space, checked)

    def __len__(self):
        return self._count

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
        return f"ElementSet({self.space!r}, {len(self)} elements)"

    def sorted_members(self) -> list[Mat]:
        """Members in canonical (byte-lexicographic) order."""
        return sorted(self.members)

    def dump_lines(self) -> list[str]:
        """Element dump: header then one hex-encoded element per line."""
        space = self.space
        lines = [f"n={space.n} p={space.p} count={len(self)}"]
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
    shell is a list of tuples.
    """

    def __init__(self, space: SpecialLinear, start):
        self.mul = space.mul
        self.start = self.shell(start)
        self.seen = set(self.start)

    def shell(self, mats) -> list:
        return list(mats)

    def __contains__(self, g) -> bool:
        return g in self.seen

    def join(self, shells) -> list:
        return list(chain.from_iterable(shells))

    def step(self, frontier, gens, tick) -> list:
        """The products of the frontier with the generators not seen
        before; marks them seen.  tick(found) follows every chunk."""
        mul, seen = self.mul, self.seen
        size = max(1, CHUNK_PRODUCTS // max(1, len(gens)))
        fresh = []
        for lo in range(0, len(frontier), size):
            for x in frontier[lo : lo + size]:
                for s in gens:
                    y = mul(x, s)
                    if y not in seen:
                        seen.add(y)
                        fresh.append(y)
            tick(len(fresh))
        return fresh

    @staticmethod
    def decode_shells(space: SpecialLinear, shells) -> frozenset:
        return frozenset(chain.from_iterable(shells))


class _KeyedExpander:
    """Breadth-first expansion by numpy over integer element keys.

    The key of a matrix is its row-major entries read as base-p digits,
    sum_i a_i p^(n^2-1-i), so key order is canonical tuple order and the
    base-p^n digits are the rows' keys.  A shell is a key array.  Row i
    of x*s is (row i of x)*s, so a step tables u*s for the frontier's
    distinct rows u and a block of generators s, and a product's key is
    n lookups.  It drops the products whose bit in the seen-bitmap (one
    bit per key, p^(n^2) bits) is set, deduplicates the rest by sorting
    and sets their bits.  Keys become tuples again only in `members`.

    All is int32: keys stay below p^(n^2) <= KEYED_MAX_KEYS < 2^31 and
    the table's matmul sums below n p^2.
    """

    def __init__(self, space: SpecialLinear, start):
        n, p = space.n, space.p
        self.n, self.p, self.rows = n, p, p**n
        self.weights = p ** np.arange(n * n - 1, -1, -1, dtype=np.int32)
        self.places = self.weights[n - 1 :: n].tolist()  # of each row in a key
        self.row_digits = np.arange(self.rows, dtype=np.int32)[:, None] // self.weights[-n:] % p
        self.seen = np.zeros(-(-(p ** (n * n)) // 8), dtype=np.uint8)
        self.start = self.shell(start)
        self._mark(self.start)

    def shell(self, mats) -> np.ndarray:
        """The keys of mats."""
        return np.array(list(mats), dtype=np.int32).reshape(-1, self.n**2) @ self.weights

    def _mark(self, keys):
        """Set the bits of distinct unseen keys (add.at, the fast one)."""
        np.add.at(self.seen, keys >> 3, (1 << (keys & 7)).astype(np.uint8))

    def _rows(self, keys) -> list:
        """The row keys of each key, top row first."""
        return [keys // w % self.rows for w in self.places]

    def _table(self, digits, gens) -> np.ndarray:
        """table[u, s]: the row key of row digits[u] times gens[s]."""
        n, p = self.n, self.p
        prod = digits @ gens.transpose(1, 0, 2).reshape(n, -1)
        prod -= prod // p * p  # int32 // beats %
        return (prod.reshape(-1, n) @ self.weights[-n:]).reshape(len(digits), -1)

    def __contains__(self, g) -> bool:
        key = int(self.shell([g])[0])
        return bool(self.seen[key >> 3] >> (key & 7) & 1)

    def join(self, shells) -> np.ndarray:
        return np.concatenate(shells)

    def step(self, frontier, gens, tick) -> np.ndarray:
        """Keys of the products of the frontier with the generators not
        seen before, sorted within each chunk; marks them seen."""
        n, rows = self.n, self.rows
        present = np.zeros(rows, dtype=bool)
        for lo in range(0, len(frontier), CHUNK_PRODUCTS):
            for r in self._rows(frontier[lo : lo + CHUNK_PRODUCTS]):
                present[r] = True
        index = np.cumsum(present, dtype=np.int32) - 1  # row key -> its table row
        digits = np.compress(present, self.row_digits, axis=0)
        gens = np.array(list(gens), dtype=np.int32).reshape(-1, n, n)
        block = max(1, CHUNK_PRODUCTS // max(1, len(digits)))
        fresh, found = [], 0
        for b in range(0, len(gens), block):
            table = self._table(digits, gens[b : b + block])
            size = max(1, CHUNK_PRODUCTS // table.shape[1])
            for lo in range(0, len(frontier), size):
                # np.take and np.compress: several times faster than [] here
                first, *rest = self._rows(frontier[lo : lo + size])
                keys = np.take(table, index[first], axis=0)
                for r in rest:
                    keys *= rows
                    keys += np.take(table, index[r], axis=0)
                keys = keys.ravel()
                keys = np.sort(np.compress(
                    (np.take(self.seen, keys >> 3) >> (keys & 7)) & 1 == 0, keys))
                keys = np.compress(np.diff(keys, prepend=-1) != 0, keys)
                self._mark(keys)
                fresh.append(keys)
                found += len(keys)
                tick(found)
        return np.concatenate(fresh) if fresh else frontier[:0]

    @staticmethod
    def decode_shells(space: SpecialLinear, shells) -> frozenset:
        """The shells' keys back to canonical tuples, decoded column by
        column in chunks of CHUNK_PRODUCTS keys."""
        p = space.p
        weights = [p**i for i in range(space.n**2 - 1, -1, -1)]
        return frozenset(chain.from_iterable(
            zip(*[(shell[lo : lo + CHUNK_PRODUCTS] // w % p).tolist() for w in weights])
            for shell in shells
            for lo in range(0, len(shell), CHUNK_PRODUCTS)
        ))


def _expander(space: SpecialLinear, max_count: int):
    """The keyed kernel when its bitmap is small both in absolute terms
    and against the number of elements the expansion may reach (at most
    KEYED_BITS_PER_ELEMENT bits per element), else the tuple path."""
    keys = space.p ** (space.n * space.n)
    if keys <= KEYED_MAX_KEYS and keys <= KEYED_BITS_PER_ELEMENT * max_count:
        return _KeyedExpander
    return _TupleExpander


def _element_set(space: SpecialLinear, grow, shells) -> ElementSet:
    """The union of an expansion's shells, decoded on first use.  The
    decoder holds the shells and the space, not the engine, so the
    engine's seen set or bitmap is freed with it."""
    return ElementSet(space, partial(grow.decode_shells, space, shells), sum(map(len, shells)))


def _check_budget(count, budget: Budget, deadline, what: str):
    if count > budget.max_elements:
        raise BudgetExceeded(
            f"{what} exceeded {budget.max_elements} stored elements",
            partial_count=count, stage=what,
        )
    check_deadline(count, budget, deadline, what)


def check_deadline(count, budget: Budget, deadline, what: str):
    """Trip stage `what`, `count` (elements, witnesses) in, past the deadline."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(
            f"{what} exceeded {budget.max_seconds} seconds",
            partial_count=count, stage=what,
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
    grow = _expander(space, bound)(space, seed)
    shells = [grow.start]
    count = len(seed)
    _check_budget(count, budget, deadline, "word ball")
    sizes = {1: count}
    for r in range(2, radius + 1):
        if len(shells[-1]) and count < order:
            shells.append(grow.step(shells[-1], seed, lambda found: check_deadline(
                count + found, budget, deadline, "word ball")))
            count += len(shells[-1])
            _check_budget(count, budget, deadline, "word ball")
        sizes[r] = count
    return grow, shells, sizes


def word_ball(A: ElementSet, radius: int,
              budget: Budget = DEFAULT_BUDGET) -> ElementSet:
    """A_radius: all products of exactly `radius` factors drawn from
    A u A^{-1} u {1} (monotone in the radius since 1 is a factor)."""
    grow, shells, _ = _ball_shells(A, radius, budget)
    return _element_set(A.space, grow, shells)


def triple_product(A: ElementSet, budget: Budget = DEFAULT_BUDGET) -> ElementSet:
    """(A*A)*A with deduplication after each stage, no symmetrization.
    Each stage is one step of a fresh engine with nothing seen; its
    elements and the deadline are checked after every chunk."""
    space = A.space
    deadline = budget.start_clock()
    gens = A.sorted_members()
    engine = _expander(space, min(space.order(), len(gens) ** 3))
    product = engine(space, ()).shell(gens)
    for stage in ("double product", "triple product"):
        product = engine(space, ()).step(product, gens, lambda found: _check_budget(
            found, budget, deadline, stage))
    return _element_set(space, engine, [product])


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


def generated_closure(space: SpecialLinear, A: Optional[ElementSet] = None,
                      budget: Budget = DEFAULT_BUDGET) -> ElementSet:
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
    grow = _expander(space, order)(space, [space.identity()])
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
            frontier = grow.step(frontier, over, lambda found: check_deadline(
                count + found, budget, deadline, "subgroup closure"))
            shells.append(frontier)
            count += len(frontier)
            if count == order:
                break
            _check_budget(count, budget, deadline, "subgroup closure")
            over = active
    return _element_set(space, grow, shells)


def full_group(space: SpecialLinear, budget: Budget = DEFAULT_BUDGET) -> ElementSet:
    """All of SL_n(F_p) as an ElementSet (desk-scale orders only): the
    group G of the paper, which the tests check balls and tori against."""
    closure = generated_closure(space, budget=budget)
    if len(closure) != space.order():
        raise RuntimeError("standard generators failed to generate; bug")
    return closure


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


def growth_scan(A: ElementSet, ks=(), budget: Budget = DEFAULT_BUDGET) -> GrowthReport:
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
    try:
        generation_ok = generates(A, budget)
    except Indeterminate:
        pass  # |G| exceeds the closure budget: generation is not checked
    size_a = len(A)
    size_aaa = len(triple_product(A, budget))
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
