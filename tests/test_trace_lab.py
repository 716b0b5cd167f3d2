"""Trace tuples, wealth, dyadic bins, the f map, and dependence checks."""

from fractions import Fraction
from random import Random

import pytest

from slgrowth import (
    ElementSet,
    InvalidWitness,
    NoBins,
    NotInGroup,
    PrimeField,
    SemisimplicityClass,
    SpecialLinear,
    UnsupportedTorus,
    WealthBin,
    assemble_vital_instance,
    bin_spread,
    class_tuple,
    dyadic_bins,
    f_of,
    fiber_bound_check,
    fiber_exponent,
    full_group,
    lindep_checks,
    popular_tuple,
    trace_tuple,
    wealth,
)

from oracles import (charpoly_oracle, classify_oracle, diagonal_sum, predicts,
                     regular_semisimple)


def iterated_power(space, t, k):
    """t^k by plain repeated multiplication, no square-and-multiply."""
    acc = space.identity()
    for _ in range(k):
        acc = space.mul(acc, t)
    return acc


def wealth_oracle(space, t, i, r, pool_members):
    """Distinct invariants among semisimple t^i g with trace r, computed
    through the test-side classify and charpoly oracles only."""
    ti = iterated_power(space, t, i)
    seen = set()
    for g in pool_members:
        shifted = space.mul(ti, g)
        if sum(shifted[d * space.n + d] for d in range(space.n)) % space.p != r % space.p:
            continue
        if classify_oracle(space, shifted) is SemisimplicityClass.NOT_SEMISIMPLE:
            continue
        seen.add(tuple(charpoly_oracle(space.n, space.p, shifted)))
    return len(seen)


def split_regulars(space):
    """All split regular semisimple elements of SL_2(F_p) shaped diag."""
    p = space.p
    out = []
    for a in range(2, p - 1):
        if a != pow(a, p - 2, p):
            out.append(space.from_rows([[a, 0], [0, pow(a, p - 2, p)]]))
    return out


# ---------------------------------------------------------------------------
# trace and class tuples


def test_trace_tuple_frozen_examples():
    space = SpecialLinear(2, 5)
    t = space.from_rows([[2, 0], [0, 3]])
    g = space.identity()
    assert trace_tuple(space, g, t, 2).values == (2, 0)
    assert trace_tuple(space, g, t, 0).values == (0, 3)


def test_trace_tuple_identity_witness():
    space = SpecialLinear(2, 5)
    g = space.from_rows([[2, 1], [1, 1]])
    tup = trace_tuple(space, g, space.identity(), 2)
    assert tup.values == (diagonal_sum(space, g),) * 2


def test_trace_tuple_slot_discipline():
    space = SpecialLinear(3, 7)
    rng = Random(7)
    t = regular_semisimple(space, rng)
    g = space.random_element(rng)
    for i in range(4):
        tup = trace_tuple(space, g, t, i)
        assert tup.omitted_index == i
        assert len(tup.values) == 3
        expected = []
        for k in range(4):
            if k == i:
                continue
            tk_g = space.mul(iterated_power(space, t, k), g)
            expected.append(sum(tk_g[d * 3 + d] for d in range(3)) % 7)
        assert list(tup.values) == expected


def test_trace_tuple_index_range():
    space = SpecialLinear(2, 5)
    with pytest.raises(ValueError):
        trace_tuple(space, space.identity(), space.identity(), 3)
    with pytest.raises(ValueError):
        trace_tuple(space, space.identity(), space.identity(), -1)


def test_class_tuple_matches_charpoly_oracle():
    space = SpecialLinear(2, 7)
    rng = Random(11)
    t = regular_semisimple(space, rng)
    g = space.random_element(rng)
    tup = class_tuple(space, g, t, 1)
    assert tup.omitted_index == 1
    expected = []
    for k in (0, 2):
        tk_g = space.mul(iterated_power(space, t, k), g)
        full = charpoly_oracle(2, 7, tk_g)  # low-to-high with lead
        expected.append((full[1],))
    assert list(tup.values) == expected


def test_class_tuple_identity_witness():
    space = SpecialLinear(2, 5)
    g = space.from_rows([[2, 1], [1, 1]])
    tup = class_tuple(space, g, space.identity(), 0)
    assert tup.values == (space.char_poly(g),) * 2


# ---------------------------------------------------------------------------
# wealth


def test_wealth_singleton_pool():
    space = SpecialLinear(2, 5)
    t = space.from_rows([[2, 0], [0, 3]])
    pool = ElementSet.from_matrices(space, [space.identity()])
    assert wealth(t, 0, 2, pool) == 1  # tr(I) = 2
    assert wealth(t, 0, 1, pool) == 0


def test_wealth_full_group_matches_oracle():
    space = SpecialLinear(2, 5)
    G = full_group(space)
    t = space.from_rows([[2, 0], [0, 3]])
    members = G.sorted_members()
    for i in range(3):
        for r in range(5):
            assert wealth(t, i, r, G) == wealth_oracle(space, t, i, r, members)


def test_wealth_monotone_under_pool_growth():
    space = SpecialLinear(2, 5)
    G = full_group(space)
    t = space.from_rows([[2, 0], [0, 3]])
    rng = Random(3)
    members = G.sorted_members()
    small = rng.sample(members, 30)
    big = small + rng.sample([g for g in members if g not in small], 40)
    pool_s = ElementSet.from_matrices(space, small)
    pool_b = ElementSet.from_matrices(space, big)
    for i in range(3):
        for r in range(5):
            assert wealth(t, i, r, pool_s) <= wealth(t, i, r, pool_b)


def test_wealth_rejects_irregular_witness():
    space = SpecialLinear(2, 5)
    pool = ElementSet.from_matrices(space, [space.identity()])
    with pytest.raises(InvalidWitness):
        wealth(space.identity(), 0, 2, pool)


# ---------------------------------------------------------------------------
# dyadic bins


def test_bins_singleton_pool():
    space = SpecialLinear(2, 5)
    t = space.from_rows([[2, 0], [0, 3]])
    pool = ElementSet.from_matrices(space, [space.identity()])
    bins = dyadic_bins(t, pool)
    assert len(bins) == 1
    assert bins[0].jvec == (0, 0, 0)
    assert bins[0].members.members == frozenset([space.identity()])


def test_bins_partition_eligible_pool_exhaustively():
    space = SpecialLinear(2, 5)
    G = full_group(space)
    members = G.sorted_members()
    for t in split_regulars(space):
        bins = dyadic_bins(t, G)
        eligible = 0
        for g in members:
            shifts_ok = True
            for k in range(3):
                tk_g = space.mul(iterated_power(space, t, k), g)
                if classify_oracle(space, tk_g) is SemisimplicityClass.NOT_SEMISIMPLE:
                    shifts_ok = False
                    break
            eligible += shifts_ok
        assert sum(len(b.members) for b in bins) == eligible
        seen = set()
        for b in bins:
            assert not (seen & b.members.members)
            seen |= b.members.members
        assert len(bins) <= (len(G).bit_length()) ** 3


def test_bins_sandwich_recheck_via_public_wealth():
    space = SpecialLinear(2, 5)
    G = full_group(space)
    t = space.from_rows([[2, 0], [0, 3]])
    powers = [iterated_power(space, t, k) for k in range(3)]
    for b in dyadic_bins(t, G):
        for g in b.members.members:
            for i, j in enumerate(b.jvec):
                r = diagonal_sum(space, space.mul(powers[i], g))
                w = wealth(t, i, r, G)
                assert 2**j <= w < 2 ** (j + 1)


def test_bins_unipotent_pool_is_empty():
    space = SpecialLinear(2, 5)
    t = space.from_rows([[2, 0], [0, 3]])
    pool = ElementSet.from_matrices(space, [space.from_rows([[1, 1], [0, 1]])])
    assert dyadic_bins(t, pool) == []


def test_bins_reject_irregular_witness():
    space = SpecialLinear(2, 5)
    pool = ElementSet.from_matrices(space, [space.identity()])
    with pytest.raises(InvalidWitness):
        dyadic_bins(space.identity(), pool)


# ---------------------------------------------------------------------------
# popular tuple and spread


def fake_bins(space, sizes_and_jvecs):
    members = full_group(space).sorted_members()
    out = []
    start = 0
    t = space.from_rows([[2, 0], [0, 3]])
    for size, jvec in sizes_and_jvecs:
        chunk = members[start : start + size]
        start += size
        out.append(
            WealthBin(t=t, jvec=jvec, members=ElementSet(space, frozenset(chunk)))
        )
    return out


def test_popular_tuple_selection():
    space = SpecialLinear(2, 5)
    single = fake_bins(space, [(4, (0, 0, 0))])
    assert popular_tuple(single) is single[0]
    sized = fake_bins(space, [(5, (0, 0, 0)), (3, (1, 0, 0))])
    assert popular_tuple(sized) is sized[0]
    tied = fake_bins(space, [(4, (0, 1, 0)), (4, (0, 0, 1))])
    assert popular_tuple(tied).jvec == (0, 0, 1)
    with pytest.raises(NoBins):
        popular_tuple([])


def test_bin_spread_examples():
    space = SpecialLinear(2, 5)
    flat = fake_bins(space, [(3, (1, 1, 1)), (2, (0, 0, 0))])
    assert bin_spread(flat) == 0
    mixed = fake_bins(space, [(3, (0, 2, 1))])
    assert bin_spread(mixed) == 2
    assert bin_spread([]) == 0


# ---------------------------------------------------------------------------
# the f map


def test_f_of_frozen_example():
    space = SpecialLinear(2, 5)
    t = space.from_rows([[2, 0], [0, 3]])
    fv = f_of(space, t)
    assert fv.coefficients == (4, 0)
    # identity instance of the defining relation, g = I
    t2 = space.mul(t, t)
    assert diagonal_sum(space, t2) == (4 * diagonal_sum(space, space.identity()) + 0) % 5


def test_f_of_leading_coefficient_sign():
    rng = Random(17)
    for n, p in ((2, 7), (3, 7), (4, 11)):
        space = SpecialLinear(n, p)
        t = regular_semisimple(space, rng)
        fv = f_of(space, t)
        assert fv.coefficients[0] == (-1) ** (n + 1) % p


def test_f_relation_random_pairs():
    rng = Random(23)
    for n, p in ((2, 7), (2, 31), (3, 7), (3, 31), (4, 7)):
        space = SpecialLinear(n, p)
        for _ in range(50):
            t = regular_semisimple(space, rng)
            g = space.random_element(rng)
            assert predicts(space, f_of(space, t), space.power_list(t, n), g)


def test_f_relation_two_by_two_shape():
    # tr(t^2 g) = -tr(g) + tr(t) tr(tg) for SL_2
    space = SpecialLinear(2, 11)
    rng = Random(29)
    for _ in range(200):
        t = regular_semisimple(space, rng)
        g = space.random_element(rng)
        lhs = space.trace_product(space.mul(t, t), g)
        rhs = (-diagonal_sum(space, g) + diagonal_sum(space, t) * space.trace_product(t, g)) % 11
        assert lhs == rhs


def test_f_of_rejects_irregular_witness():
    space = SpecialLinear(2, 5)
    with pytest.raises(InvalidWitness):
        f_of(space, space.identity())


def test_f_of_rejects_matrix_outside_the_group():
    space = SpecialLinear(2, 5)
    # regular (eigenvalues 2 and 1) but det 2: the det check still fires
    with pytest.raises(NotInGroup):
        f_of(space, (2, 0, 0, 1))
    # irregular and det 4: regularity is checked first
    with pytest.raises(InvalidWitness):
        f_of(space, (2, 0, 0, 2))


def test_f_of_matches_the_invariant_tuple():
    rng = Random(31)
    for n, p in ((2, 7), (3, 7), (4, 11)):
        space = SpecialLinear(n, p)
        for _ in range(30):
            t = regular_semisimple(space, rng)
            kappa = space.char_poly(t)  # (a_{n-1}, ..., a_1)
            expected = [(-1) ** (n + 1) % p] + [(-kappa[n - 1 - k]) % p for k in range(1, n)]
            assert f_of(space, t).coefficients == tuple(expected)


# ---------------------------------------------------------------------------
# fiber bounds


def test_fiber_bound_swapped_pair():
    space = SpecialLinear(2, 5)
    S = ElementSet.from_matrices(
        space, [space.from_rows([[2, 0], [0, 3]]), space.from_rows([[3, 0], [0, 2]])]
    )
    assert fiber_bound_check(S) == (1, Fraction(1))


def test_fiber_bound_singleton():
    space = SpecialLinear(2, 5)
    S = ElementSet.from_matrices(space, [space.from_rows([[2, 0], [0, 3]])])
    assert fiber_bound_check(S) == (1, Fraction(1, 2))


def test_fiber_bound_full_split_torus_sl2_is_exactly_half():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        space = SpecialLinear(2, p)
        S = ElementSet.from_matrices(space, split_regulars(space))
        image_size, bound = fiber_bound_check(S)
        assert Fraction(image_size, len(S)) == Fraction(1, 2)
        assert bound == Fraction(len(S), 2)


def test_fiber_bound_full_split_torus_sl3():
    space = SpecialLinear(3, 7)
    mats = []
    for a in range(1, 7):
        for b in range(1, 7):
            c = pow(a * b, 5, 7)
            if a != b and b != c and a != c:
                mats.append(space.from_rows([[a, 0, 0], [0, b, 0], [0, 0, c]]))
    S = ElementSet.from_matrices(space, mats)
    image_size, bound = fiber_bound_check(S)
    assert image_size >= -(-len(S) // 6)
    assert bound == Fraction(len(S), 6)


def test_fiber_bound_rejects_bad_sets():
    space = SpecialLinear(2, 5)
    mixed = ElementSet.from_matrices(
        space, [space.from_rows([[2, 0], [0, 3]]), space.from_rows([[0, 1], [4, 0]])]
    )
    with pytest.raises(InvalidWitness):
        fiber_bound_check(mixed)  # regular members, but not commuting
    with_identity = ElementSet.from_matrices(
        space, [space.identity(), space.from_rows([[2, 0], [0, 3]])]
    )
    with pytest.raises(InvalidWitness):
        fiber_bound_check(with_identity)


def test_fiber_exponent_values():
    assert fiber_exponent(0, 10) == 0.0
    assert fiber_exponent(5, 1) == 0.0
    assert fiber_exponent(8, 64) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# linear dependence of the trace forms


def test_lindep_frozen_examples():
    # eigenvalues (2, 4) over F_7: sum 6 and product 1 both nonzero, so
    # every omit-one determinant survives
    assert lindep_checks(PrimeField(7), [[2, 4]]) == [True]
    # eigenvalues (2, 3) over F_5: the sum vanishes, so the subset that
    # omits the degree-1 row is singular; flagged, not an error
    assert lindep_checks(PrimeField(5), [[2, 3]]) == [False]


def test_lindep_power_sums_nonzero_case():
    # eigenvalues (3, 5) over F_7: sum 1, product 1, distinct
    assert lindep_checks(PrimeField(7), [[3, 5]]) == [True]


def test_lindep_rejects_nonsplit_and_irregular():
    # the eigenvalues come from validating D, before any dependence check
    space = SpecialLinear(2, 7)
    A = ElementSet.from_matrices(space, [space.identity()])
    J = space.from_rows([[0, 1], [6, 0]])
    with pytest.raises(UnsupportedTorus):
        assemble_vital_instance(A, ElementSet.from_matrices(space, [J]), 1)
    with pytest.raises(InvalidWitness):
        assemble_vital_instance(A, ElementSet.from_matrices(space, [space.identity()]), 1)
