"""The keyed numpy expansion kernel against the tuple-at-a-time path.

Every comparison runs the same public call twice, once with each
expander forced, and demands identical results: per-radius ball sizes
and sets, subgroup closures, growth reports, and budget failures down
to the message and the partial count.
"""

import itertools
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
    word_ball,
)
from slgrowth import growth
from slgrowth.growth import _KeyedExpander, _TupleExpander

from oracles import ball_oracle, closure_oracle

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
            balls = [grow.members(shells[:r]) for r in range(1, len(shells) + 1)]
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

        def spy(self, frontier, gens, step=expander.step):
            steps.append(len(frontier))
            return step(self, frontier, gens)

        monkeypatch.setattr(growth, "_expander", lambda space, count, e=expander: e)
        monkeypatch.setattr(expander, "step", spy)
        grow, shells, sizes = growth._ball_shells(A, radius, growth.DEFAULT_BUDGET)
        assert type(grow) is expander
        assert sizes == {r: len(ball) for r, ball in enumerate(expected, 1)}
        assert [grow.members(shells[:r]) for r in range(1, radius + 1)] == expected
        assert len(steps) == full[0] - 1  # radii 2..saturation, none after
        monkeypatch.undo()


@pytest.mark.parametrize("n,p", SPACES, ids=SPACE_IDS)
def test_word_ball_and_growth_scan_match(monkeypatch, n, p):
    space = SpecialLinear(n, p)
    A = word_ball(standard_generators(space), 2)
    balls = on_both_paths(monkeypatch, lambda: word_ball(A, 4))
    assert balls[0] == balls[1]
    reports = on_both_paths(
        monkeypatch, lambda: growth_scan(A, ks=[1, 3, 5], check_generation=n == 2))
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
        def step(self, frontier, gens):
            steps.append((len(frontier), len(gens)))
            return super().step(frontier, gens)

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
        monkeypatch.setattr(expander, "members", lambda self, shells: 1 / 0)

    def answers():
        with pytest.raises(ZeroDivisionError):
            list(generated_closure(space, torus))  # decoding goes through members
        return generates(standard_generators(space)), generates(torus)

    assert on_both_paths(monkeypatch, answers) == [(True, False)] * 2


def test_closure_members_act_as_a_frozenset():
    space = SpecialLinear(2, 5)
    closure = generated_closure(space)
    members = closure.members
    assert type(members) is frozenset and closure.members is members
    assert closure == members and members == closure and len(closure) == 120
    assert space.identity() in closure and set(closure) == members
    assert closure | {space.identity()} == members and closure - members == frozenset()
    # full_group hands ElementSet the decoded frozenset itself
    assert type(full_group(space).members) is frozenset


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
