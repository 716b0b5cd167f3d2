"""The batched shift table against the per-element kernels and oracles.

Each entry of `shift_table(t, pool)` (the trace, the packed invariant
and the semisimple bit of t^k g) is compared with `SpecialLinear.trace`,
`char_poly` and `classify_semisimple`, and at small p with
`classify_oracle` in tests/oracles.py, which decides by rational roots
for n <= 3 and by the brute-force minimal polynomial for n = 4: the
table and `classify_semisimple` share the rad(chi)(g) = 0 rule.  Bins
and tuple counts read off the table are compared with the per-element
loop `dyadic_bins_oracle` and with `trace_tuple`/`class_tuple`.
"""

from random import Random

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
    trace_tuple,
)
from slgrowth.tracelab import SHIFT_CHUNK

from oracles import classify_oracle, diagonal_sum, dyadic_bins_oracle, regular_semisimple

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
    "size", [0, 1, SHIFT_CHUNK - 1, SHIFT_CHUNK, SHIFT_CHUNK + 1])
def test_table_chunk_edges(size):
    space = SpecialLinear(3, 5)
    rng = Random(size)
    t = regular_semisimple(space, rng)
    members = set()
    while len(members) < size:
        members.add(space.random_element(rng))
    assert_table_matches(space, t, sorted(members), True)


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
