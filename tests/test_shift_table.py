"""The batched shift table against the per-element kernels and oracles.

The table reads e_j(t^k g) off the compound matrices as
tr(L_j(t^k) L_j(g)) (Cauchy-Binet); `compound_batches` is checked
against `char_poly_full` and `det_oracle` first.  Each entry of
`shift_table(t, pool)` (the trace, the packed invariant and the
semisimple bit of t^k g) is compared with `SpecialLinear.trace`, `char_poly` and
`classify_semisimple`, and at small p with `classify_oracle` in
tests/oracles.py, which decides by rational roots for n <= 3 and by the
brute-force minimal polynomial for n = 4: the table and
`classify_semisimple` share the rad(chi)(g) = 0 rule.  Bins and tuple
counts read off the table are compared with the per-element loop
`dyadic_bins_oracle` and with `trace_tuple`/`class_tuple`.
"""

from itertools import combinations, product
from random import Random

import numpy as np
import pytest

from slgrowth import (
    ElementSet,
    SemisimplicityClass,
    SpecialLinear,
    class_tuple,
    distinct_tuple_counts,
    dyadic_bins,
    full_group,
    shift_table,
    shift_tables,
    trace_tuple,
)
from slgrowth.matrices import compound_batches
from slgrowth.tracelab import SHIFT_BLOCK, SHIFT_ENTRIES

from oracles import (
    classify_oracle,
    det_oracle,
    diagonal_sum,
    dyadic_bins_oracle,
    regular_semisimple,
)

NS = SemisimplicityClass.NOT_SEMISIMPLE


def pack(space, kappa):
    """The table's code of an invariant (a_{n-1}, ..., a_1)."""
    code = 0
    for a in kappa:
        code = code * space.p + a
    return code


def assert_table_matches(space, t, members, use_oracle):
    """Every entry of the table equals the per-element kernels."""
    table = shift_table(t, ElementSet(space, frozenset(members)))
    n = space.n
    assert sorted(table.members) == sorted(set(members))
    assert table.traces.shape == table.codes.shape == table.semisimple.shape
    assert table.traces.shape == (n + 1, len(table.members))
    powers = space.power_list(t, n)
    for j, g in enumerate(table.members):
        for k in range(n + 1):
            shifted = space.mul(powers[k], g)
            assert table.traces[k, j] == diagonal_sum(space, shifted)
            assert table.codes[k, j] == pack(space, space.char_poly(shifted))
            semisimple = space.classify_semisimple(shifted) is not NS
            assert bool(table.semisimple[k, j]) is semisimple, (shifted, k)
            if use_oracle:
                assert (classify_oracle(space, shifted) is not NS) is semisimple


def conjugates(space, mats, rng, count=3):
    """mats plus `count` seeded conjugates of each."""
    out = list(mats)
    for g in mats:
        for _ in range(count):
            h = space.random_element(rng)
            out.append(space.mul(space.mul(h, g), space.inv(h)))
    return out


def stack(space, mats):
    n = space.n
    return np.array(mats, dtype=np.int64).reshape(-1, n, n)


def assert_cauchy_binet(space, hs, gs):
    """e_j(h g) = tr(L_j(h) L_j(g)) for every pair and j = 1..n, with
    e_j read off char_poly_full(h g) as (-1)^j a_{n-j}."""
    n, p = space.n, space.p
    compounds = zip(compound_batches(stack(space, hs), p),
                    compound_batches(stack(space, gs), p))
    for j, (lh, lg) in enumerate(compounds, start=1):
        got = np.einsum("hab,gba->hg", lh, lg) % p
        for a, h in enumerate(hs):
            for b, g in enumerate(gs):
                full = space.char_poly_full(space.mul(h, g))
                assert got[a, b] == (-1) ** j * full[n - j] % p, (h, g, j)


def test_cauchy_binet_exhaustive_sl2_f5():
    space = SpecialLinear(2, 5)
    members = full_group(space).sorted_members()
    assert_cauchy_binet(space, members, members)


@pytest.mark.parametrize("n,p", [(3, 7), (4, 5), (5, 7)])
def test_cauchy_binet_sampled(n, p):
    space = SpecialLinear(n, p)
    rng = Random(100 * n + p)
    hs = [space.random_element(rng) for _ in range(12)]
    gs = [space.random_element(rng) for _ in range(12)] + [space.identity()]
    assert_cauchy_binet(space, hs, gs)


@pytest.mark.parametrize("n,p", [(4, 7), (5, 7), (6, 7)])
def test_every_compound_is_minors(n, p):
    """Entry [I, J] of L_j(g) is det g[I, J] for every j = 1..n, with
    det_oracle's row reduction as the reference."""
    space = SpecialLinear(n, p)
    rng = Random(n * p)
    mats = [space.random_element(rng) for _ in range(3)] + [space.identity()]
    compounds = compound_batches(stack(space, mats), p)
    assert len(compounds) == n
    for j, got in enumerate(compounds, start=1):
        sets = list(combinations(range(n), j))
        assert got.shape == (len(mats), len(sets), len(sets))
        for g, compound in zip(mats, got):
            rows = space.to_rows(g)
            for (a, rs), (b, cs) in product(enumerate(sets), repeat=2):
                minor = det_oracle([[rows[i][c] for c in cs] for i in rs], p)
                assert compound[a, b] == minor, (g, rs, cs)


@pytest.mark.parametrize("p", [5, 7])
def test_table_exhaustive_sl2(p):
    space = SpecialLinear(2, p)
    t = space.from_rows([[2, 0], [0, pow(2, p - 2, p)]])
    assert_table_matches(space, t, full_group(space).sorted_members(), True)


def test_table_sampled_sl3_f5_with_non_regular_classes():
    space = SpecialLinear(3, 5)
    rng = Random(5)
    t = regular_semisimple(space, rng)
    # 5,000 members and 4 shifts: 20,000 classified elements
    sample = [space.random_element(rng) for _ in range(5000)]
    assert_table_matches(space, t, sample, True)
    rows = space.from_rows
    special = [
        space.identity(),
        rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),  # one unipotent block
        rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),  # blocks of size 2 and 1
    ]
    for a in (2, 3, 4):
        b = pow(a * a, 3, 5)  # a^-2
        special.append(rows([[a, 0, 0], [0, a, 0], [0, 0, b]]))
        special.append(rows([[a, 1, 0], [0, a, 0], [0, 0, b]]))
    members = conjugates(space, special, rng)
    assert_table_matches(space, t, members, True)
    table = shift_table(t, ElementSet(space, frozenset(members)))
    # the k = 0 row holds both verdicts on the repeated-root classes
    assert table.semisimple[0].any() and not table.semisimple[0].all()


def test_table_sampled_sl4_generic_newton_path():
    space = SpecialLinear(4, 5)
    rng = Random(4)
    t = regular_semisimple(space, rng)
    rows = space.from_rows
    # q = x^2 + x + 1 is irreducible over F_5; C its companion
    c = [[0, 4], [1, 4]]
    special = [
        space.identity(),
        rows([[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]]),
        rows([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]]),
        rows([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]]),
        rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
        # q^2 with a semisimple and a non-semisimple element
        rows([c[0] + [0, 0], c[1] + [0, 0], [0, 0] + c[0], [0, 0] + c[1]]),
        rows([c[0] + [1, 0], c[1] + [0, 1], [0, 0] + c[0], [0, 0] + c[1]]),
    ]
    members = conjugates(space, special, rng)
    members += [space.random_element(rng) for _ in range(600)]
    assert_table_matches(space, t, members, True)


def non_regular_classes(space):
    """Representatives of classes with a repeated eigenvalue: 1, the
    regular unipotent, and diag(a, ..., a, b) with det 1, plain and with
    one Jordan block of size 2 on a."""
    n, p = space.n, space.p
    out = [space.identity(),
           space.from_rows([[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)])]
    for a in (2, 3):
        b = pow(a, (1 - n) % (p - 1), p)  # a^(1-n): det = a^(n-1) b = 1
        diag = [[a if i == j else 0 for j in range(n)] for i in range(n)]
        diag[n - 1][n - 1] = b
        out.append(space.from_rows(diag))
        diag[0][1] = 1
        out.append(space.from_rows(diag))
    return out


@pytest.mark.parametrize("n,p,size,oracle", [(3, 7, 800, True), (4, 5, 200, True),
                                             (4, 7, 200, False)])
def test_table_seeded_pools_with_non_regular_classes(n, p, size, oracle):
    space = SpecialLinear(n, p)
    rng = Random(10 * n + p)
    t = regular_semisimple(space, rng)
    members = conjugates(space, non_regular_classes(space), rng)
    members += [space.random_element(rng) for _ in range(size)]
    assert_table_matches(space, t, members, oracle)
    table = shift_table(t, ElementSet(space, frozenset(members)))
    assert table.semisimple[0].any() and not table.semisimple[0].all()


def test_tables_of_several_witnesses_equal_one_at_a_time():
    """shift_tables tables row k = 0 once and copies it; every table
    still equals the one shift_table builds for its witness alone."""
    space = SpecialLinear(3, 7)
    rng = Random(37)
    witnesses = [regular_semisimple(space, rng) for _ in range(3)]
    members = conjugates(space, non_regular_classes(space), rng)
    members += [space.random_element(rng) for _ in range(300)]
    pool = ElementSet(space, frozenset(members))
    for t, table in zip(witnesses, shift_tables(pool, witnesses)):
        alone = shift_table(t, pool)
        assert table.members == alone.members
        for got, want in ((table.traces, alone.traces), (table.codes, alone.codes),
                          (table.semisimple, alone.semisimple)):
            assert got.dtype == want.dtype and (got == want).all()


def test_table_wide_codes_stay_exact():
    # p^(n-1) passes the int64 range at n = 5, p = 65521
    space = SpecialLinear(5, 65521)
    rng = Random(65521)
    t = regular_semisimple(space, rng)
    members = [space.random_element(rng) for _ in range(12)]
    members.append(space.identity())
    members.append(space.from_rows(
        [[1 if j in (i, i + 1) else 0 for j in range(5)] for i in range(5)]))
    assert_table_matches(space, t, members, False)
    table = shift_table(t, ElementSet(space, frozenset(members)))
    assert table.codes.dtype == object


@pytest.mark.parametrize(
    "size", [0, 1, SHIFT_BLOCK - 1, SHIFT_BLOCK, SHIFT_BLOCK + 1])
def test_table_chunk_edges(size):
    space = SpecialLinear(3, 5)
    rng = Random(size)
    t = regular_semisimple(space, rng)
    members = set()
    while len(members) < size:
        members.add(space.random_element(rng))
    assert_table_matches(space, t, sorted(members), True)


# members per block at n = 6, where the compounds hold C(12, 6) - 2 = 922
# entries a member
WIDE_BLOCK = SHIFT_ENTRIES // 922


@pytest.mark.parametrize("size", [WIDE_BLOCK - 1, WIDE_BLOCK, WIDE_BLOCK + 1])
def test_table_entry_bound_edges(size):
    space = SpecialLinear(6, 7)
    rng = Random(size)
    t = regular_semisimple(space, rng)
    members = [space.identity()]
    while len(members) < size:
        members.append(space.random_element(rng))
    assert_table_matches(space, t, members, False)


# ---------------------------------------------------------------------------
# bins and tuple counts against the per-element loop


def check_bins_and_counts(space, t, members):
    """Bins and tuple counts equal the oracle's; returns the bins."""
    pool = ElementSet(space, frozenset(members))
    expected = dyadic_bins_oracle(space, t, pool.members)
    bins = dyadic_bins(t, pool)
    assert {b.jvec: b.members.members for b in bins} == expected
    assert [b.jvec for b in bins] == sorted(expected)
    eligible = frozenset().union(*expected.values())
    trace_counts, class_counts = distinct_tuple_counts(shift_table(t, pool))
    for i in range(space.n + 1):
        traces = {trace_tuple(space, g, t, i).values for g in pool.members}
        classes = {class_tuple(space, g, t, i).values for g in eligible}
        assert trace_counts[i] == len(traces)
        assert class_counts[i] == len(classes)
    return bins


def test_bins_and_counts_match_oracle_sl2_full_group():
    space = SpecialLinear(2, 7)
    t = space.from_rows([[3, 0], [0, 5]])
    assert check_bins_and_counts(space, t, full_group(space).members)


def test_bins_and_counts_match_oracle_sl3_f7_with_non_regular_classes():
    space = SpecialLinear(3, 7)
    rng = Random(73)
    t = regular_semisimple(space, rng)
    members = conjugates(space, non_regular_classes(space), rng, count=5)
    members += [space.random_element(rng) for _ in range(400)]
    assert check_bins_and_counts(space, t, members)


def test_bins_keep_jvecs_past_64_bits_apart():
    """At n = 11 a jvec holds 12 exponents, past 64 bits at 6 bits each;
    the bins still equal the per-element loop's, with classify_semisimple
    in place of classify_oracle, whose n! expansion is out of reach."""
    space = SpecialLinear(11, 13)
    rng = Random(11)
    t = regular_semisimple(space, rng)
    members = [space.random_element(rng) for _ in range(24)]
    expected = dyadic_bins_oracle(space, t, members, SpecialLinear.classify_semisimple)
    assert any(jvec[0] for jvec in expected)
    bins = dyadic_bins(t, ElementSet(space, frozenset(members)))
    assert {b.jvec: b.members.members for b in bins} == expected


def test_bins_and_counts_match_oracle_sl3():
    space = SpecialLinear(3, 5)
    rng = Random(3)
    t = regular_semisimple(space, rng)
    members = [space.random_element(rng) for _ in range(700)]
    assert check_bins_and_counts(space, t, members)


def test_bins_and_counts_match_oracle_sl4():
    space = SpecialLinear(4, 5)
    rng = Random(44)
    t = regular_semisimple(space, rng)
    members = [space.random_element(rng) for _ in range(300)]
    members.append(space.identity())
    assert check_bins_and_counts(space, t, members)


def test_bins_and_counts_match_oracle_without_eligible_members():
    space = SpecialLinear(3, 7)
    t = space.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 6]])
    # every member is unipotent and not 1, so its k = 0 shift fails
    members = [space.from_rows([[1, a, b], [0, 1, c], [0, 0, 1]])
               for a in range(7) for b in range(7) for c in range(7)
               if (a, b, c) != (0, 0, 0)]
    assert check_bins_and_counts(space, t, members) == []
    trace_counts, class_counts = distinct_tuple_counts(
        shift_table(t, ElementSet(space, frozenset(members))))
    assert class_counts == [0, 0, 0, 0]
    assert min(trace_counts) > 0


def test_empty_pool_has_no_bins_and_no_tuples():
    space = SpecialLinear(2, 5)
    t = space.from_rows([[2, 0], [0, 3]])
    pool = ElementSet(space, frozenset())
    table = shift_table(t, pool)
    assert table.traces.shape == (3, 0)
    assert dyadic_bins(t, pool, table) == []
    assert distinct_tuple_counts(table) == ([0, 0, 0], [0, 0, 0])
