"""Word balls, triple products, generation testing, growth reports."""

from random import Random

import pytest

from slgrowth import (
    Budget,
    BudgetExceeded,
    ElementSet,
    Indeterminate,
    NotInGroup,
    SpecialLinear,
    cli,
    full_group,
    generates,
    growth_scan,
    standard_generators,
    symmetrized,
    triple_product,
    word_ball,
)


def two_gen_set(space):
    """The spec's running pair: a transvection and the signed swap."""
    return ElementSet.from_matrices(
        space,
        [space.from_rows([[1, 1], [0, 1]]), space.from_rows([[0, 1], [4, 0]])],
    )


def singleton(space, g):
    return ElementSet.from_matrices(space, [g])


# ---------------------------------------------------------------------------
# ElementSet basics


def test_from_matrices_validates():
    space = SpecialLinear(2, 5)
    with pytest.raises(NotInGroup):
        ElementSet.from_matrices(space, [(2, 0, 0, 1)])


def test_dump_lines_format():
    space = SpecialLinear(2, 5)
    A = two_gen_set(space)
    lines = word_ball(A, 1).dump_lines()
    assert lines[0] == "n=2 p=5 count=5"
    body = lines[1:]
    assert len(body) == 5
    assert body == sorted(body)
    for entry in body:
        g = space.decode(bytes.fromhex(entry))
        space.check_member(g)


# ---------------------------------------------------------------------------
# word balls


def test_ball_of_identity_is_identity():
    space = SpecialLinear(2, 5)
    A = singleton(space, space.identity())
    for r in (1, 2, 5):
        assert word_ball(A, r).members == frozenset([space.identity()])


def test_ball_one_size_five_example():
    space = SpecialLinear(2, 5)
    A = two_gen_set(space)
    ball = word_ball(A, 1)
    # two generators, two distinct inverses, identity
    assert len(ball) == 5
    assert ball.members == symmetrized(A).members


def test_ball_stabilizes_at_group_order():
    space = SpecialLinear(2, 5)
    A = two_gen_set(space)
    assert len(word_ball(A, 30)) == 120


def test_balls_are_monotone():
    space = SpecialLinear(2, 5)
    A = two_gen_set(space)
    prev = frozenset()
    for r in range(1, 7):
        ball = word_ball(A, r).members
        assert prev <= ball
        prev = ball
    assert A.members <= word_ball(A, 1).members


def test_ball_product_containment():
    # A_r * A_s inside A_{r+s}, spot-checked
    space = SpecialLinear(2, 5)
    A = two_gen_set(space)
    b2 = word_ball(A, 2)
    b3 = word_ball(A, 3)
    b5 = word_ball(A, 5).members
    rng = Random(0)
    pool2 = b2.sorted_members()
    pool3 = b3.sorted_members()
    for _ in range(200):
        x = rng.choice(pool2)
        y = rng.choice(pool3)
        assert space.mul(x, y) in b5


def test_ball_budget_exceeded_carries_partial_count():
    space = SpecialLinear(2, 11)
    A = standard_generators(space)
    with pytest.raises(BudgetExceeded) as info:
        word_ball(A, 6, Budget(max_elements=20))
    assert info.value.partial_count > 20


# ---------------------------------------------------------------------------
# triple products


def test_triple_of_identity():
    space = SpecialLinear(2, 5)
    A = singleton(space, space.identity())
    assert triple_product(A).members == frozenset([space.identity()])


def test_triple_of_singleton_is_cube():
    space = SpecialLinear(2, 5)
    g = space.from_rows([[2, 0], [0, 3]])
    cubed = triple_product(singleton(space, g))
    assert cubed.members == frozenset([space.power_list(g, 3)[3]])


def test_triple_of_full_group_is_full_group():
    space = SpecialLinear(2, 5)
    G = full_group(space)
    assert triple_product(G).members == G.members


def test_triple_inside_ball_three():
    space = SpecialLinear(2, 5)
    A = two_gen_set(space)
    assert triple_product(A).members <= word_ball(A, 3).members
    # equality for symmetric sets containing the identity
    S = symmetrized(A)
    assert triple_product(S).members == word_ball(S, 3).members


# ---------------------------------------------------------------------------
# generation


def test_standard_generators_frozen_sl2():
    space = SpecialLinear(2, 5)
    gens = standard_generators(space)
    assert gens.members == frozenset(
        [(1, 1, 0, 1), (0, 1, 4, 0)]
    )
    assert generates(gens)


def test_standard_generators_generate_sl3():
    assert generates(standard_generators(SpecialLinear(3, 5)))


def test_identity_does_not_generate():
    space = SpecialLinear(2, 5)
    assert not generates(singleton(space, space.identity()))


def test_torus_does_not_generate():
    space = SpecialLinear(2, 5)
    torus = ElementSet.from_matrices(
        space, [space.from_rows([[a, 0], [0, pow(a, 3, 5)]]) for a in (1, 2, 3, 4)]
    )
    assert not generates(torus)


def test_generates_indeterminate_over_budget():
    space = SpecialLinear(2, 11)
    A = standard_generators(space)
    with pytest.raises(Indeterminate):
        generates(A, Budget(max_elements=100))


# ---------------------------------------------------------------------------
# growth reports


def test_growth_scan_full_group_saturates():
    space = SpecialLinear(2, 5)
    G = full_group(space)
    report = growth_scan(G, ks=[1])
    assert report.saturated
    assert report.epsilon_hat == 0.0
    assert not report.degenerate
    assert report.size_a == report.size_aaa == 120


def test_growth_scan_identity_degenerate():
    space = SpecialLinear(2, 5)
    report = growth_scan(singleton(space, space.identity()))
    assert report.degenerate
    assert report.epsilon_hat == 0.0


def test_growth_scan_ball2_sl2_f7_strict_growth():
    space = SpecialLinear(2, 7)
    A = word_ball(standard_generators(space), 2)
    report = growth_scan(A, ks=[2, 3])
    assert report.group_order == 336
    assert report.size_aaa > report.size_a
    assert report.generation_checked and report.generation_ok
    assert report.ball_sizes[2] >= report.size_a
    assert report.ball_sizes[3] >= report.ball_sizes[2]


def test_growth_csv_row_shape(capsys, tmp_path):
    """growth-curve's CSV row for one scan: the fixed columns, then one
    size_A_k column per k, the saturated flag spelled true|false."""
    space = SpecialLinear(2, 7)
    report = growth_scan(word_ball(standard_generators(space), 2), ks=[2, 4])
    target = tmp_path / "curve.csv"
    code = cli.main(["growth-curve", "--n", "2", "--p", "7", "--radius", "2",
                     "--k", "4", "--k", "2", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    header, row = [line.split(",") for line in target.read_text().splitlines()]
    assert len(header) == len(row)
    assert header[:6] == ["n", "p", "size_A", "size_AAA", "epsilon_hat", "saturated"]
    assert header[6:] == ["size_A_2", "size_A_4"]
    assert row[0] == "2" and row[1] == "7"
    assert row[5] in ("true", "false")
    assert row[2:4] == [str(report.size_a), str(report.size_aaa)]


def test_sampled_generating_subsets_grow_strictly():
    """Random generating A != G in SL_2(F_5) always shows |AAA| > |A|."""
    space = SpecialLinear(2, 5)
    G = full_group(space).sorted_members()
    rng = Random(42)
    tested = 0
    while tested < 40:
        size = rng.randint(2, 6)
        A = ElementSet(space, frozenset(rng.sample(G, size)))
        if not generates(A):
            continue
        tested += 1
        aaa = triple_product(A)
        assert len(aaa) > len(A), sorted(A.members)
