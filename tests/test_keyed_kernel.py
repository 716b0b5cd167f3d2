"""The keyed numpy expansion kernel against the tuple-at-a-time path.

Every comparison runs the same public call twice, once with each
expander forced, and demands identical results: per-radius ball sizes
and sets, subgroup closures, triple products, growth reports, and
budget failures down to the message and the partial count.
"""

import itertools
import tracemalloc
from random import Random

import pytest

from slgrowth import (
    Budget,
    BudgetExceeded,
    ElementSet,
    SpecialLinear,
    full_group,
    generated_closure,
    generates,
    growth_scan,
    standard_generators,
    triple_product,
    word_ball,
)
from slgrowth import growth
from slgrowth.growth import _KeyedExpander, _TupleExpander

from oracles import ball_oracle, closure_oracle, triple_oracle

SPACES = [(2, 3), (2, 5), (2, 7), (2, 11), (2, 13), (3, 5)]
SPACE_IDS = [f"SL{n}F{p}" for n, p in SPACES]


def on_both_paths(monkeypatch, fn):
    """fn() with the tuple path forced, then with the keyed kernel."""
    results = []
    for expander in (_TupleExpander, _KeyedExpander):
        monkeypatch.setattr(growth, "_expander", lambda space, count, e=expander: e)
        results.append(fn())
    monkeypatch.undo()
    return results


def random_set(space, rng, size):
    return ElementSet(space, frozenset(space.random_element(rng) for _ in range(size)))


def embedded_sl2_in_sl3(space3):
    """The standard generators of SL_2 in the top-left block of SL_3."""
    gens = []
    for g in standard_generators(SpecialLinear(2, space3.p)).members:
        a, b, c, d = g
        gens.append(space3.from_rows([[a, b, 0], [c, d, 0], [0, 0, 1]]))
    return ElementSet.from_matrices(space3, gens)


def primitive_root(p):
    return next(a for a in range(2, p) if len({pow(a, k, p) for k in range(1, p)}) == p - 1)


# ---------------------------------------------------------------------------
# word balls


@pytest.mark.parametrize("n,p", SPACES, ids=SPACE_IDS)
def test_ball_shells_match(monkeypatch, n, p):
    space = SpecialLinear(n, p)
    radius = 9 if n == 3 else 2 * p  # SL_2 balls saturate, SL_3(F_5) ones do not
    sets = [standard_generators(space), random_set(space, Random(p), 2)]
    for A in sets:
        def profile():
            grow, shells, sizes = growth._ball_shells(A, radius, growth.DEFAULT_BUDGET)
            balls = [grow.decode_shells(space, shells[:r]) for r in range(1, len(shells) + 1)]
            return type(grow), sizes, balls
        (tuple_kind, tuple_sizes, tuple_balls), (keyed_kind, keyed_sizes, keyed_balls) = (
            on_both_paths(monkeypatch, profile))
        assert (tuple_kind, keyed_kind) == (_TupleExpander, _KeyedExpander)
        assert keyed_sizes == tuple_sizes
        assert keyed_balls == tuple_balls
        assert [len(b) for b in keyed_balls] == [
            keyed_sizes[r] for r in range(1, len(keyed_balls) + 1)]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_saturated_ball_takes_no_further_step(monkeypatch, p):
    """Once a ball holds |G| neither engine takes another step, and the
    sizes and members at every radius are still the oracle's."""
    space = SpecialLinear(2, p)
    A = standard_generators(space)
    radius = 2 * p
    expected = ball_oracle(space, A.members, radius)
    full = [r for r, ball in enumerate(expected, 1) if len(ball) == space.order()]
    assert full and full[0] < radius
    for expander in (_TupleExpander, _KeyedExpander):
        steps = []

        def spy(self, frontier, gens, tick, step=expander.step):
            steps.append(len(frontier))
            return step(self, frontier, gens, tick)

        monkeypatch.setattr(growth, "_expander", lambda space, count, e=expander: e)
        monkeypatch.setattr(expander, "step", spy)
        grow, shells, sizes = growth._ball_shells(A, radius, growth.DEFAULT_BUDGET)
        assert type(grow) is expander
        assert sizes == {r: len(ball) for r, ball in enumerate(expected, 1)}
        assert [grow.decode_shells(space, shells[:r]) for r in range(1, radius + 1)] == expected
        assert len(steps) == full[0] - 1  # radii 2..saturation, none after
        monkeypatch.undo()


@pytest.mark.parametrize("n,p", SPACES, ids=SPACE_IDS)
def test_word_ball_and_growth_scan_match(monkeypatch, n, p):
    space = SpecialLinear(n, p)
    A = word_ball(standard_generators(space), 2)
    balls = on_both_paths(monkeypatch, lambda: word_ball(A, 4))
    assert balls[0] == balls[1]
    # a budget below |SL_3(F_5)| = 372,000 leaves generation unchecked at n = 3
    budget = Budget(max_elements=100_000) if n > 2 else Budget()
    reports = on_both_paths(
        monkeypatch, lambda: growth_scan(A, ks=[1, 3, 5], budget=budget))
    assert reports[0].generation_checked == (n == 2)
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# closures


@pytest.mark.parametrize("n,p", SPACES, ids=SPACE_IDS)
def test_closure_of_standard_generators_match(monkeypatch, n, p):
    space = SpecialLinear(n, p)
    closures = on_both_paths(monkeypatch, lambda: generated_closure(space))
    assert closures[0] == closures[1]
    assert len(closures[1]) == space.order()


def assert_closure_is_oracle(monkeypatch, space, A):
    """Both paths' closures of A are the oracle's, in size and members."""
    expected = closure_oracle(space, A.members)
    for closure in on_both_paths(monkeypatch, lambda: generated_closure(space, A)):
        assert len(closure) == len(expected)
        assert closure.members == expected
    return expected


@pytest.mark.parametrize("n,p", [s for s in SPACES if s[0] == 2], ids=SPACE_IDS[:5])
def test_closure_of_random_sets_match(monkeypatch, n, p):
    space = SpecialLinear(n, p)
    rng = Random(1000 + p)
    sizes = set()
    for trial in range(12):
        A = random_set(space, rng, 1 + trial % 3)
        sizes.add(len(assert_closure_is_oracle(monkeypatch, space, A)))
    assert len(sizes) > 1  # proper subgroups turned up next to the full group
    # the identity, a repeated element, an inverse pair, and members
    # that the closure of the others already holds
    g, h = space.random_element(rng), space.random_element(rng)
    gh, g2 = space.mul(g, h), space.mul(g, g)
    for mats in ([space.identity()], [space.identity(), g], [g, g], [g, space.inv(g)],
                 [g, g2], [g, space.inv(g2)], [g, h, gh], [h, space.inv(gh), g]):
        assert_closure_is_oracle(monkeypatch, space, ElementSet.from_matrices(space, mats))


def irreducible_companion(space):
    """The companion matrix of the first monic irreducible polynomial of
    degree n (n <= 3) with constant term (-1)^n, so det 1: its
    closure is a cyclic subgroup of a nonsplit torus."""
    n, p = space.n, space.p
    const = (-1) ** n % p
    for mid in itertools.product(range(p), repeat=n - 1):
        coeffs = (const, *mid)  # x^n + c_{n-1} x^{n-1} + ... + c_0, low to high
        if all((pow(x, n, p) + sum(c * pow(x, k, p) for k, c in enumerate(coeffs))) % p
               for x in range(p)):
            rows = [[0] * n for _ in range(n)]
            for i in range(1, n):
                rows[i][i - 1] = 1
            for i in range(n):
                rows[i][n - 1] = -coeffs[i]
            return space.check_member(space.from_rows(rows))
    raise AssertionError("no irreducible polynomial found")


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_closure_of_torus_and_borel_match(monkeypatch, p):
    space = SpecialLinear(2, p)
    a = primitive_root(p)
    diag = space.from_rows([[a, 0], [0, pow(a, -1, p)]])
    trans = space.from_rows([[1, 1], [0, 1]])
    torus = ElementSet.from_matrices(space, [diag])
    borel = ElementSet.from_matrices(space, [diag, trans])
    nonsplit = ElementSet.from_matrices(space, [irreducible_companion(space)])
    for A, order in ((torus, p - 1), (borel, p * (p - 1))):
        assert len(assert_closure_is_oracle(monkeypatch, space, A)) == order
    assert (p + 1) % len(assert_closure_is_oracle(monkeypatch, space, nonsplit)) == 0


def test_closure_of_sl3_f5_subgroups_match(monkeypatch):
    space = SpecialLinear(3, 5)
    a, b = 2, 3  # a primitive root mod 5 and its inverse
    tori = [space.from_rows([[a, 0, 0], [0, 1, 0], [0, 0, b]]),
            space.from_rows([[1, 0, 0], [0, a, 0], [0, 0, b]])]
    transvections = [space.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                     space.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 1]])]
    split = ElementSet.from_matrices(space, tori)
    borel = ElementSet.from_matrices(space, tori + transvections)
    nonsplit = ElementSet.from_matrices(space, [irreducible_companion(space)])
    assert len(assert_closure_is_oracle(monkeypatch, space, split)) == 16
    assert len(assert_closure_is_oracle(monkeypatch, space, borel)) == 16 * 125
    assert 31 % len(assert_closure_is_oracle(monkeypatch, space, nonsplit)) == 0


def test_closure_of_block_sl2_in_sl3_match(monkeypatch):
    space = SpecialLinear(3, 5)
    closure = assert_closure_is_oracle(monkeypatch, space, embedded_sl2_in_sl3(space))
    assert len(closure) == SpecialLinear(2, 5).order()
    assert all(g[2] == g[5] == g[6] == g[7] == 0 and g[8] == 1 for g in closure)


@pytest.mark.parametrize("p", [5, 7, 29])
def test_closure_of_radius_three_balls_match_oracle(monkeypatch, p):
    space = SpecialLinear(2, p)
    ball = word_ball(standard_generators(space), 3)
    assert len(assert_closure_is_oracle(monkeypatch, space, ball)) == space.order()


# ---------------------------------------------------------------------------
# the closure's work: generators that add nothing, members never decoded


@pytest.mark.parametrize("expander", [_TupleExpander, _KeyedExpander])
def test_closure_steps_only_over_generators_that_add_something(monkeypatch, expander):
    space = SpecialLinear(2, 29)
    ball = word_ball(standard_generators(space), 3)
    steps = []

    class Spy(expander):
        def step(self, frontier, gens, tick):
            steps.append((len(frontier), len(gens)))
            return super().step(frontier, gens, tick)

    monkeypatch.setattr(growth, "_expander", lambda space, count: Spy)
    assert len(ball) == 36 and generates(ball)
    assert max(width for _, width in steps) == steps[-1][1] == 4  # not 36
    # each member generates the cyclic split torus: after the first, no
    # member forms a product, so every element is multiplied by one pair
    p = 13
    space = SpecialLinear(2, p)
    a = primitive_root(p)
    torus = ElementSet.from_matrices(space, [
        space.from_rows([[pow(a, k, p), 0], [0, pow(a, -k, p)]]) for k in (1, 5, 7, 11)])
    steps.clear()
    assert len(generated_closure(space, torus)) == p - 1
    assert sum(size * width for size, width in steps) == 2 * (p - 1)


def test_generates_never_decodes(monkeypatch):
    space = SpecialLinear(2, 13)
    torus = ElementSet.from_matrices(space, [space.from_rows([[2, 0], [0, 7]])])
    for expander in (_TupleExpander, _KeyedExpander):
        monkeypatch.setattr(expander, "decode_shells", staticmethod(lambda space, shells: 1 / 0))

    def answers():
        with pytest.raises(ZeroDivisionError):
            list(generated_closure(space, torus))  # decoding goes through decode_shells
        return generates(standard_generators(space)), generates(torus)

    assert on_both_paths(monkeypatch, answers) == [(True, False)] * 2


@pytest.mark.parametrize("expander", [_TupleExpander, _KeyedExpander])
def test_expansion_results_decode_once_on_first_use(monkeypatch, expander):
    """Closures, word balls and triple products are ElementSets whose
    len needs no decoding and whose members are decoded once, into a
    frozenset; full_group hands back the closure itself."""
    space = SpecialLinear(2, 5)
    A = standard_generators(space)
    sizes = [space.order(), len(ball_oracle(space, A.members, 3)[-1]),
             len(triple_oracle(space, A.members))]
    decodes = []
    decode_shells = expander.decode_shells

    def counted(space, shells):
        decodes.append(len(shells))
        return decode_shells(space, shells)

    monkeypatch.setattr(growth, "_expander", lambda space, count: expander)
    monkeypatch.setattr(expander, "decode_shells", staticmethod(counted))
    results = [generated_closure(space), word_ball(A, 3), triple_product(A)]
    for result, size in zip(results, sizes):
        assert type(result) is ElementSet and len(result) == size and decodes == []
        members = result.members
        assert type(members) is frozenset and len(members) == size
        assert result.members is members and set(result) == members
        assert all(g in result for g in members) and len(decodes) == 1
        decodes.clear()
    closures = []
    monkeypatch.setattr(growth, "generated_closure", lambda *args, **kwargs: (
        closures.append(generated_closure(*args, **kwargs)) or closures[-1]))
    G = full_group(space)
    assert len(closures) == 1 and G is closures[0]


# ---------------------------------------------------------------------------
# budget trips


def budget_failure(fn):
    with pytest.raises(BudgetExceeded) as info:
        fn()
    return str(info.value), info.value.partial_count


@pytest.mark.parametrize("n,p,cap", [(2, 13, 300), (3, 5, 1000)])
def test_ball_budget_trip_matches(monkeypatch, n, p, cap):
    A = standard_generators(SpecialLinear(n, p))
    failures = on_both_paths(
        monkeypatch, lambda: budget_failure(lambda: word_ball(A, 20, Budget(max_elements=cap))))
    assert failures[0] == failures[1]
    assert failures[1][1] > cap


def test_closure_deadline_trip_matches(monkeypatch):
    space = SpecialLinear(2, 13)
    failures = on_both_paths(
        monkeypatch,
        lambda: budget_failure(
            lambda: generated_closure(space, budget=Budget(max_seconds=1e-9))),
    )
    assert failures[0] == failures[1]
    # The first check follows the first generator pair alone: the
    # identity and its products with the signed 2-cycle and its inverse.
    assert failures[1] == ("subgroup closure exceeded 1e-09 seconds", 3)


# ---------------------------------------------------------------------------
# path choice


def test_path_choice_by_key_space_against_element_count():
    sl2_37 = SpecialLinear(2, 37)
    # closing SL_2(F_37): a 234 KB bitmap for 50,616 elements
    assert growth._expander(sl2_37, sl2_37.order()) is _KeyedExpander
    # a radius-3 ball of two generators: at most 125 elements
    assert growth._expander(sl2_37, 125) is _TupleExpander
    # the first group, in order of key space, whose p^(n^2) keys exceed
    # the cap takes the tuple path even to close the whole group
    wide = next(SpecialLinear(n, p)
                for n, p in ((2, 37), (3, 7), (3, 11), (3, 13), (3, 17))
                if p ** (n * n) > growth.KEYED_MAX_KEYS)
    assert growth._expander(wide, wide.order()) is _TupleExpander


# ---------------------------------------------------------------------------
# the row-table step against the tuple step, shell by shell


def steps_of(monkeypatch, expander, run):
    """run() with the engine forced, and every step's new elements as a
    set, in order."""
    shells = []

    class Spy(expander):
        def __init__(self, space, start):
            super().__init__(space, start)
            self.space = space

        def step(self, frontier, gens, tick):
            fresh = super().step(frontier, gens, tick)
            shells.append(self.decode_shells(self.space, [fresh]))
            return fresh

    with monkeypatch.context() as m:
        m.setattr(growth, "_expander", lambda space, count: Spy)
        return run(), shells


def assert_steps_match(monkeypatch, run):
    """The keyed and the tuple engine add the same set at every step."""
    (_, tuple_shells), (result, keyed_shells) = (
        steps_of(monkeypatch, e, run) for e in (_TupleExpander, _KeyedExpander))
    assert keyed_shells == tuple_shells
    return result, keyed_shells


def assert_balls_are_oracle(monkeypatch, A, radius):
    (grow, shells, sizes), _ = assert_steps_match(
        monkeypatch, lambda: growth._ball_shells(A, radius, growth.DEFAULT_BUDGET))
    expected = ball_oracle(A.space, A.members, radius)  # S * B_{r-1}: the other side
    balls = [grow.decode_shells(A.space, shells[:r]) for r in range(1, len(shells) + 1)]
    assert balls == expected[: len(balls)]
    assert sizes == {r: len(ball) for r, ball in enumerate(expected, 1)}


def borel(space):
    """Diagonal tori and the transvections above the diagonal: a
    subgroup of order (p - 1)^(n-1) p^(n(n-1)/2)."""
    n, p = space.n, space.p
    a = primitive_root(p)
    gens = []
    for i in range(n - 1):
        diag = [[int(r == c) for c in range(n)] for r in range(n)]
        diag[i][i], diag[i + 1][i + 1] = a, pow(a, -1, p)
        trans = [[int(r == c or (r, c) == (i, i + 1)) for c in range(n)] for r in range(n)]
        gens += [space.from_rows(diag), space.from_rows(trans)]
    return ElementSet.from_matrices(space, gens)


# SL_3(F_3) is no space here (p > n), so SL_3(F_7) stands in for it:
# its balls and small subgroups, as its order is 5.6 million
DIFF_SPACES = [(2, 5), (2, 13), (2, 61), (3, 5), (3, 7)]


@pytest.mark.parametrize("n,p", DIFF_SPACES, ids=[f"SL{n}F{p}" for n, p in DIFF_SPACES])
def test_row_table_steps_match_tuple_steps(monkeypatch, n, p):
    space = SpecialLinear(n, p)
    A = standard_generators(space)
    radius = {5: 12, 13: 30}.get(p, 6) if n == 2 else 5
    for seed in (A, random_set(space, Random(n * p), 2)):
        assert_balls_are_oracle(monkeypatch, seed, radius)
    # SL_2(F_61) itself is closed in the test below
    subgroups = [borel(space)] + (
        [embedded_sl2_in_sl3(space)] if n == 3
        else [random_set(space, Random(p), 2), A] if p < 61 else [])
    for gens in subgroups:
        closure, _ = assert_steps_match(monkeypatch, lambda: generated_closure(space, gens))
        assert closure.members == closure_oracle(space, gens.members)


def test_row_table_steps_over_many_generator_blocks(monkeypatch):
    """|S| = 340 needs several generator blocks, and the closure of
    SL_2(F_61) has frontiers wider than CHUNK_PRODUCTS."""
    space = SpecialLinear(2, 61)
    S = word_ball(standard_generators(space), 7)
    assert len(S) == 340
    tables = []
    table = _KeyedExpander._table
    monkeypatch.setattr(_KeyedExpander, "_table",
                        lambda self, *args: tables.append(1) or table(self, *args))
    assert_balls_are_oracle(monkeypatch, S, 2)
    assert len(tables) > 1
    closure, shells = assert_steps_match(monkeypatch, lambda: generated_closure(space))
    assert len(closure) == space.order()
    assert max(map(len, shells)) > growth.CHUNK_PRODUCTS


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_row_table_steps_in_small_chunks(monkeypatch, chunk):
    """CHUNK_PRODUCTS far below the frontiers: one generator per block,
    frontiers split into many chunks, the last one short."""
    monkeypatch.setattr(growth, "CHUNK_PRODUCTS", chunk)
    for n, p in ((2, 13), (3, 5)):
        space = SpecialLinear(n, p)
        A = standard_generators(space)
        assert_balls_are_oracle(monkeypatch, word_ball(A, 2), 4 if n == 2 else 3)
        gens = A if n == 2 else embedded_sl2_in_sl3(space)
        closure, _ = assert_steps_match(monkeypatch, lambda: generated_closure(space, gens))
        assert closure.members == closure_oracle(space, gens.members)


# ---------------------------------------------------------------------------
# deadlines inside a layer, and the step's memory


class StoppedClock:
    """time for growth: the clock reads 0 until `now` is moved."""

    now = 0.0

    def monotonic(self):
        return self.now


@pytest.mark.parametrize("stage", ["word ball", "subgroup closure"])
@pytest.mark.parametrize("expander", [_TupleExpander, _KeyedExpander])
def test_deadline_trips_after_the_first_chunk_of_a_layer(monkeypatch, expander, stage):
    """A deadline that passes as a layer wider than one chunk starts
    trips after that layer's first chunk, with the elements stored up
    to then."""
    space = SpecialLinear(2, 61)
    S = word_ball(standard_generators(space), 7)
    clock = StoppedClock()
    stored, ticks, wide = [], [], []

    class Spy(expander):
        def step(self, frontier, gens, tick):
            if not stored:
                stored.append(len(self.start))  # the seed, stored before any step
            if len(frontier) * len(gens) > growth.CHUNK_PRODUCTS:
                clock.now = 10.0  # past the 1 s deadline
                wide.append(len(frontier) * len(gens))

            def spy(found):
                ticks.append(found)
                tick(found)

            ticks.clear()
            fresh = super().step(frontier, gens, spy)
            stored.append(len(fresh))
            return fresh

    monkeypatch.setattr(growth, "time", clock)
    monkeypatch.setattr(growth, "_expander", lambda space, count: Spy)
    budget = Budget(max_seconds=1.0)
    with pytest.raises(BudgetExceeded) as info:
        if stage == "word ball":
            growth._ball_shells(S, 2, budget)
        else:
            generated_closure(space, budget=budget)
    assert info.value.stage == stage
    assert str(info.value) == f"{stage} exceeded 1.0 seconds"
    assert len(wide) == 1 and len(ticks) == 1 and 0 < ticks[0]
    assert info.value.partial_count == sum(stored) + ticks[0]
    assert ticks[0] <= growth.CHUNK_PRODUCTS < wide[0]


def test_ball_step_memory_stays_bounded():
    """The tracemalloc peak of one step over |S| = 340 generators, the
    bitmap included, against 3.2 MB for the per-product matmul the row
    tables replaced (1.7 MB of it is the bitmap)."""
    space = SpecialLinear(2, 61)
    S = word_ball(standard_generators(space), 7)
    growth._ball_shells(S, 2, growth.DEFAULT_BUDGET)  # imports and caches warm
    tracemalloc.start()
    try:
        grow, _, sizes = growth._ball_shells(S, 2, growth.DEFAULT_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(grow) is _KeyedExpander and sizes == {1: 340, 2: 10320}
    assert peak <= 3.2e6


# ---------------------------------------------------------------------------
# triple products: two steps of a fresh engine each


def is_diagonal(space, g):
    n = space.n
    return all(g[i * n + j] == 0 for i in range(n) for j in range(n) if i != j)


def subgroup_or_generators(space, gens, order, limit=400):
    """The subgroup that gens generate, checked to have the given order,
    when that is at most limit; else gens themselves.  A subgroup is its
    own triple product."""
    if order > limit:
        return gens
    members = closure_oracle(space, gens.members)
    assert len(members) == order
    return ElementSet(space, members)


def triple_cases(space):
    """(name, set) pairs: empty, a singleton, seeded random sets, a
    split torus, the Borel subgroup, block SL_2 in SL_3 and the full
    group, the last three by their generators where they are large."""
    n, p = space.n, space.p
    rng = Random(n * p)
    gens = borel(space)
    torus = ElementSet(space, frozenset(g for g in gens if is_diagonal(space, g)))
    cases = [("empty", ElementSet(space, frozenset())), ("singleton", random_set(space, rng, 1))]
    cases += [(f"random {size}", random_set(space, rng, size)) for size in (2, 5, 12)]
    cases.append(("split torus", subgroup_or_generators(space, torus, (p - 1) ** (n - 1))))
    cases.append(("Borel", subgroup_or_generators(
        space, gens, (p - 1) ** (n - 1) * p ** (n * (n - 1) // 2))))
    if n == 3:
        cases.append(("block SL_2", subgroup_or_generators(
            space, embedded_sl2_in_sl3(space), SpecialLinear(2, p).order())))
    if space.order() <= 400:
        cases.append(("full group", full_group(space)))
    return cases


def assert_triples_are_oracle(monkeypatch, space, cases):
    for name, A in cases:
        expected = triple_oracle(space, A.members)
        for aaa in on_both_paths(monkeypatch, lambda: triple_product(A)):
            assert len(aaa) == len(expected), name
            assert aaa.members == expected, name


TRIPLE_SPACES = SPACES + [(2, 61), (3, 7)]


@pytest.mark.parametrize("n,p", TRIPLE_SPACES, ids=[f"SL{n}F{p}" for n, p in TRIPLE_SPACES])
def test_triple_product_matches_oracle(monkeypatch, n, p):
    space = SpecialLinear(n, p)
    assert_triples_are_oracle(monkeypatch, space, triple_cases(space))


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_triple_product_in_small_chunks(monkeypatch, chunk):
    monkeypatch.setattr(growth, "CHUNK_PRODUCTS", chunk)
    for n, p in ((2, 13), (3, 5)):
        space = SpecialLinear(n, p)
        cases = dict(triple_cases(space))
        assert_triples_are_oracle(monkeypatch, space, [
            (name, cases[name]) for name in ("singleton", "random 5", "split torus")])


TRIPLE_STAGES = ["double product", "triple product"]


def seeded_set_and_double(space):
    """A seeded 12-element set and |A*A|."""
    A = random_set(space, Random(12), 12)
    return A, len({space.mul(a, b) for a in A.members for b in A.members})


@pytest.mark.parametrize("stage", TRIPLE_STAGES)
@pytest.mark.parametrize("expander", [_TupleExpander, _KeyedExpander])
def test_triple_product_element_trip_within_a_chunk(monkeypatch, expander, stage):
    """An element cap met inside a stage trips that stage within one
    chunk of products past the cap."""
    monkeypatch.setattr(growth, "CHUNK_PRODUCTS", 64)
    monkeypatch.setattr(growth, "_expander", lambda space, count: expander)
    space = SpecialLinear(2, 13)
    A, double = seeded_set_and_double(space)
    cap = double // 2 if stage == "double product" else double
    assert len(triple_oracle(space, A.members)) > double + 64
    with pytest.raises(BudgetExceeded) as info:
        triple_product(A, Budget(max_elements=cap))
    assert info.value.stage == stage
    assert str(info.value) == f"{stage} exceeded {cap} stored elements"
    assert cap < info.value.partial_count <= cap + growth.CHUNK_PRODUCTS


@pytest.mark.parametrize("expander", [_TupleExpander, _KeyedExpander])
def test_triple_product_element_budget_counts_the_held_double(monkeypatch, expander):
    """The second stage holds A*A while it finds (A*A)*A, so a cap of
    exactly |A*A*A| elements trips that stage."""
    monkeypatch.setattr(growth, "_expander", lambda space, count: expander)
    space = SpecialLinear(2, 13)
    A, double = seeded_set_and_double(space)
    triple = len(triple_oracle(space, A.members))
    assert (double, triple) == (139, 1192)
    with pytest.raises(BudgetExceeded) as info:
        triple_product(A, Budget(max_elements=triple))
    assert info.value.stage == "triple product"
    assert triple < info.value.partial_count <= double + triple
    assert len(triple_product(A, Budget(max_elements=double + triple))) == triple


@pytest.mark.parametrize("stage", TRIPLE_STAGES)
@pytest.mark.parametrize("expander", [_TupleExpander, _KeyedExpander])
def test_triple_product_deadline_trip_after_the_first_chunk(monkeypatch, expander, stage):
    """A deadline that passes as a stage starts trips after that stage's
    first chunk, with the elements held: those it has found so far, and
    A*A too in the second stage."""
    monkeypatch.setattr(growth, "CHUNK_PRODUCTS", 64)
    clock = StoppedClock()
    steps, ticks = [], []

    class Spy(expander):
        def step(self, frontier, gens, tick):
            steps.append(len(frontier) * len(gens))
            if len(steps) == TRIPLE_STAGES.index(stage) + 1:
                clock.now = 10.0  # past the 1 s deadline

            def spy(found):
                ticks.append(found)
                tick(found)

            ticks.clear()
            return super().step(frontier, gens, spy)

    monkeypatch.setattr(growth, "time", clock)
    monkeypatch.setattr(growth, "_expander", lambda space, count: Spy)
    A, double = seeded_set_and_double(SpecialLinear(2, 13))
    held = double if stage == "triple product" else 0
    with pytest.raises(BudgetExceeded) as info:
        triple_product(A, Budget(max_seconds=1.0))
    assert info.value.stage == stage
    assert str(info.value) == f"{stage} exceeded 1.0 seconds"
    assert len(steps) == TRIPLE_STAGES.index(stage) + 1 and steps[-1] > growth.CHUNK_PRODUCTS
    assert len(ticks) == 1 and 0 < ticks[0] <= growth.CHUNK_PRODUCTS
    assert info.value.partial_count == held + ticks[0]


@pytest.mark.parametrize("expander", [_TupleExpander, _KeyedExpander])
def test_results_keep_no_seen_bitmap(monkeypatch, expander):
    """Once returned, the triple product of 4 elements and the closure
    of a split torus in SL_2(F_61) retain under 64 KB: not the engine's
    seen set, nor its 1.7 MB keyed bitmap."""
    space = SpecialLinear(2, 61)
    A = random_set(space, Random(61), 4)
    a = primitive_root(61)
    torus = ElementSet.from_matrices(space, [space.from_rows([[a, 0], [0, pow(a, -1, 61)]])])
    monkeypatch.setattr(growth, "_expander", lambda space, count: expander)
    for build, size in ((lambda: triple_product(A), len(triple_oracle(space, A.members))),
                        (lambda: generated_closure(space, torus), 60)):
        build()  # imports and caches warm
        tracemalloc.start()
        try:
            result = build()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(result) == size
        assert retained < 64 * 1024
