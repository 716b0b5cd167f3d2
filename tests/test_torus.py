"""Centralizer tori, torus orders, rich-torus scans."""

import tracemalloc

import pytest

from slgrowth import (
    ElementSet,
    InvalidWitness,
    SpecialLinear,
    centralizer_torus,
    full_group,
    rich_torus_scan,
    standard_generators,
    torus_order_and_split,
    word_ball,
)
from slgrowth import torus as torus_mod


def split_torus(space):
    """{diag(a, a^-1)} for SL_2 as an ElementSet."""
    p = space.p
    return ElementSet.from_matrices(
        space,
        [space.from_rows([[a, 0], [0, pow(a, p - 2, p)]]) for a in range(1, p)],
    )


def commutant_det_one_count(space, g):
    """|{x in F_p[g] : det x = 1}| by literal enumeration of sum c_i g^i.

    For regular semisimple g the commutant algebra is F_p[g] of dimension
    n, so this counts the centralizer torus without touching the group.
    """
    n, p = space.n, space.p
    powers = [space.identity(), g]
    while len(powers) < n:
        powers.append(space.mul(powers[-1], g))
    count = 0
    coeffs = [0] * n
    for idx in range(p**n):
        k = idx
        for slot in range(n):
            coeffs[slot] = k % p
            k //= p
        x = tuple(
            sum(c * mat[e] for c, mat in zip(coeffs, powers)) % p
            for e in range(n * n)
        )
        if space.det(x) == 1:
            count += 1
    return count


# ---------------------------------------------------------------------------
# centralizers


def test_centralizer_of_split_witness_is_diagonal_torus():
    space = SpecialLinear(2, 5)
    G = full_group(space)
    g0 = space.from_rows([[2, 0], [0, 3]])
    T = centralizer_torus(G, g0)
    assert T.members == split_torus(space).members
    assert len(T) == 4


def test_centralizer_of_j_at_p5_is_split_of_order_four():
    # x^2 + 1 factors mod 5 (2^2 = -1), so this witness is split here
    space = SpecialLinear(2, 5)
    G = full_group(space)
    J = space.from_rows([[0, 1], [4, 0]])
    T = centralizer_torus(G, J)
    assert len(T) == 4
    order, split = torus_order_and_split(space, J)
    assert (order, split) == (4, True)


def test_centralizer_nonsplit_order_p_plus_one():
    space = SpecialLinear(2, 5)
    G = full_group(space)
    t = space.from_rows([[0, 4], [1, 1]])  # trace 1, x^2 - x + 1 irreducible
    T = centralizer_torus(G, t)
    assert len(T) == 6
    space7 = SpecialLinear(2, 7)
    G7 = full_group(space7)
    J7 = space7.from_rows([[0, 1], [6, 0]])  # x^2 + 1 irreducible mod 7
    assert len(centralizer_torus(G7, J7)) == 8


def test_centralizer_in_identity_set():
    space = SpecialLinear(2, 5)
    only_i = ElementSet.from_matrices(space, [space.identity()])
    g0 = space.from_rows([[2, 0], [0, 3]])
    assert centralizer_torus(only_i, g0).members == frozenset([space.identity()])


def test_centralizer_rejects_irregular_witness():
    space = SpecialLinear(2, 5)
    G = full_group(space)
    with pytest.raises(InvalidWitness):
        centralizer_torus(G, space.identity())
    with pytest.raises(InvalidWitness):
        centralizer_torus(G, space.from_rows([[1, 1], [0, 1]]))


def test_centralizer_is_a_subgroup():
    for p in (5, 7):
        space = SpecialLinear(2, p)
        G = full_group(space)
        g0 = space.from_rows([[2, 0], [0, pow(2, p - 2, p)]])
        T = centralizer_torus(G, g0)
        members = T.members
        for a in members:
            assert space.inv(a) in members
            for b in members:
                assert space.mul(a, b) in members


# ---------------------------------------------------------------------------
# torus orders from factor degrees


def test_torus_order_split_formula():
    for n, p, diag in (
        (2, 5, (2, 3)),
        (2, 7, (2, 4)),
        (2, 11, (2, 6)),
        (3, 5, (2, 3, 1)),
        (3, 7, (2, 4, 1)),
        (3, 11, (2, 6, 1)),
    ):
        space = SpecialLinear(n, p)
        g = space.from_rows(
            [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )
        order, split = torus_order_and_split(space, g)
        assert split
        assert order == (p - 1) ** (n - 1)


def test_torus_order_matches_commutant_enumeration_sl2():
    space = SpecialLinear(2, 7)
    for rows in ([[2, 0], [0, 4]], [[0, 1], [6, 0]], [[0, 6], [1, 1]]):
        g = space.from_rows(rows)
        order, _ = torus_order_and_split(space, g)
        assert order == commutant_det_one_count(space, g)


def test_torus_order_degree_three_witness():
    # companion of x^3 + x + 6, irreducible over F_7 (no roots)
    space = SpecialLinear(3, 7)
    g = space.from_rows([[0, 0, 1], [1, 0, 6], [0, 1, 0]])
    order, split = torus_order_and_split(space, g)
    assert (order, split) == (57, False)  # (7^3 - 1)/(7 - 1)
    assert order == commutant_det_one_count(space, g)


def test_torus_order_mixed_degree_witness():
    # (x - 3)(x^2 + 2x + 5) with the quadratic irreducible over F_7
    space = SpecialLinear(3, 7)
    g = space.from_rows([[3, 0, 0], [0, 0, 2], [0, 1, 5]])
    order, split = torus_order_and_split(space, g)
    assert (order, split) == (48, False)  # (7 - 1)(7^2 - 1)/(7 - 1)
    assert order == commutant_det_one_count(space, g)


def test_torus_order_rejects_irregular_witness():
    space = SpecialLinear(2, 5)
    with pytest.raises(InvalidWitness):
        torus_order_and_split(space, space.from_rows([[1, 1], [0, 1]]))


# ---------------------------------------------------------------------------
# rich torus scan


def test_scan_full_group_sl2_f5():
    space = SpecialLinear(2, 5)
    G = full_group(space)
    reports = rich_torus_scan(G, [1])
    orders = [rep.torus_order for rep in reports]
    assert orders[0] in {4, 5, 6}
    assert set(orders) == {4, 6}
    # intersections with the whole group are the tori themselves
    for rep in reports:
        assert rep.intersection_sizes[1] == rep.torus_order
        assert rep.split == (rep.torus_order == 4)
    denom = 120 ** (1.0 / 3)
    for rep in reports:
        assert rep.richness_ratios[1] == rep.intersection_sizes[1] / denom
    # a nonsplit sextic torus keeps 4 regular members, the split one 2
    for rep in reports:
        assert rep.regular_count == (4 if rep.torus_order == 6 else 2)
    sizes = [rep.intersection_sizes[1] for rep in reports]
    assert sizes == sorted(sizes, reverse=True)


def test_scan_own_torus_intersection_at_least_three():
    space = SpecialLinear(2, 5)
    g0 = space.from_rows([[2, 0], [0, 3]])
    A = ElementSet.from_matrices(space, [space.identity(), g0, space.inv(g0)])
    reports = rich_torus_scan(A, [1])
    assert len(reports) == 1
    assert reports[0].intersection_sizes[1] >= 3
    assert reports[0].torus_order == 4
    assert reports[0].regular_count == 2


def test_scan_without_regular_elements_is_empty():
    space = SpecialLinear(2, 5)
    A = ElementSet.from_matrices(space, [space.from_rows([[1, 1], [0, 1]])])
    assert rich_torus_scan(A, [1]) == []


def test_scan_rejects_bad_radii():
    space = SpecialLinear(2, 5)
    A = ElementSet.from_matrices(space, [space.identity()])
    with pytest.raises(ValueError):
        rich_torus_scan(A, [])
    with pytest.raises(ValueError):
        rich_torus_scan(A, [0, 2])


def test_scan_sorted_and_monotone_in_radius():
    space = SpecialLinear(2, 7)
    A = word_ball(standard_generators(space), 3)
    reports = rich_torus_scan(A, [2, 3])
    assert reports
    sizes = [rep.intersection_sizes[3] for rep in reports]
    assert sizes == sorted(sizes, reverse=True)
    for rep in reports:
        assert rep.intersection_sizes[2] <= rep.intersection_sizes[3]
        assert rep.intersection_sizes[3] <= rep.torus_order
        assert rep.regular_count >= 1


def test_scan_frees_the_ball_engine_before_the_centralizers(monkeypatch):
    """Past the ball expansion the scan keeps the balls' shells, not the
    engine's seen bitmap: at SL_2(F_37), radius 8, the memory live at
    the first centralizer call stays below that bitmap's 37^4/8 bytes."""
    space = SpecialLinear(2, 37)
    A = standard_generators(space)
    live = []
    centralizer = torus_mod.centralizer_torus

    def spy(*args):
        if not live:
            live.append(tracemalloc.get_traced_memory()[0])
        return centralizer(*args)

    monkeypatch.setattr(torus_mod, "centralizer_torus", spy)
    rich_torus_scan(A, [2, 8])  # imports and caches warm
    live.clear()
    tracemalloc.start()
    try:
        rich_torus_scan(A, [2, 8])
    finally:
        tracemalloc.stop()
    assert live and live[0] < 37**4 // 8
