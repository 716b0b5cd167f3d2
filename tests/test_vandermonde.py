"""Elementary symmetric values, omit-one Vandermonde determinants, and the
cyclic window products feeding the nonvanishing checks."""

import itertools
import math
from random import Random

import pytest

from slgrowth import (
    PrimeField,
    SpecialLinear,
    cyclic_product_coordinates,
    elementary_symmetric,
    omit_one_dets,
    vandermonde_product,
)
from slgrowth.lemmas import (
    SUITE_BLOCK,
    cyclic_nonvanishing_suite,
    lindep_suite,
    vander_identity_suite,
)
from slgrowth.tracelab import lindep_checks

from oracles import (
    cyclic_nonvanishing_suite_by_trial,
    elementary_symmetric_bruteforce,
    generalized_vandermonde_det,
    lindep_check_by_elimination,
    lindep_suite_by_trial,
    vander_identity_suite_by_trial,
    verify_vander_identity,
)


def closed_form(fld, s, i):
    """prod_{j<k} (s_k - s_j) * e_{n-i}(s) mod p."""
    return vandermonde_product(fld, s) * elementary_symmetric(fld, s, len(s) - i) % fld.p


def elimination_dets(fld, block):
    """Every omit-one determinant of every row, by exact elimination."""
    return [[generalized_vandermonde_det(fld, s, i) for i in range(len(s) + 1)]
            for s in block]


# ---------------------------------------------------------------------------
# elementary symmetric values


def test_elementary_symmetric_frozen():
    f7 = PrimeField(7)
    assert elementary_symmetric(f7, (2, 3), 1) == 5
    assert elementary_symmetric(f7, (2, 3), 2) == 6
    assert elementary_symmetric(f7, (1, 2, 3), 2) == 4


def test_elementary_symmetric_edges():
    f7 = PrimeField(7)
    assert elementary_symmetric(f7, (2, 3, 4), 0) == 1
    with pytest.raises(ValueError):
        elementary_symmetric(f7, (2, 3), 3)
    with pytest.raises(ValueError):
        elementary_symmetric(f7, (2, 3), -1)


def test_elementary_symmetric_matches_bruteforce():
    rng = Random(0)
    for p in (7, 31, 101):
        fld = PrimeField(p)
        for n in range(1, 7):
            for _ in range(40):
                s = tuple(rng.randrange(p) for _ in range(n))
                for m in range(n + 1):
                    assert elementary_symmetric(fld, s, m) == \
                        elementary_symmetric_bruteforce(s, m, p)


def test_charpoly_coefficients_are_signed_elementary_symmetric():
    # det(xI - diag(s)) has coefficient (-1)^m e_m at degree n-m
    rng = Random(1)
    for p, n in ((7, 2), (11, 3), (13, 4)):
        space = SpecialLinear(n, p)
        fld = space.field
        for _ in range(30):
            while True:
                s = [rng.randrange(1, p) for _ in range(n - 1)]
                prod = 1
                for v in s:
                    prod = (prod * v) % p
                s.append(fld.inv(prod))
                break
            g = space.from_rows(
                [[s[i] if i == j else 0 for j in range(n)] for i in range(n)]
            )
            coeffs = space.char_poly_full(g)
            for m in range(n + 1):
                want = elementary_symmetric(fld, s, m)
                if m % 2:
                    want = (-want) % p
                assert coeffs[n - m] == want


# ---------------------------------------------------------------------------
# omit-one determinants and the product identity


def test_gvdet_frozen_omit_middle():
    f7 = PrimeField(7)
    # rows (1, s, s^2) with the power-1 column dropped: [[1,4],[1,2]]
    assert generalized_vandermonde_det(f7, (2, 3), 1) == 5
    assert omit_one_dets([(2, 3)], 7).tolist() == [[6, 5, 1]]


def test_gvdet_repeated_entry_vanishes():
    f7 = PrimeField(7)
    for i in range(4):
        assert generalized_vandermonde_det(f7, (2, 2, 5), i) == 0
    assert omit_one_dets([(2, 2, 5)], 7).tolist() == [[0, 0, 0, 0]]


def test_gvdet_classical_case():
    f11 = PrimeField(11)
    s = (2, 5, 7)
    assert generalized_vandermonde_det(f11, s, 3) == vandermonde_product(f11, s)
    assert omit_one_dets([s], 11)[0, 3] == vandermonde_product(f11, s)


def test_identity_frozen_small():
    f7 = PrimeField(7)
    dets = omit_one_dets([(2, 3)], 7)[0]
    for i in (0, 1, 2):
        assert verify_vander_identity(f7, (2, 3), i)
        assert dets[i] == closed_form(f7, (2, 3), i)


def test_identity_random_quadruples():
    rng = Random(2)
    f101 = PrimeField(101)
    block = [tuple(rng.sample(range(101), 4)) for _ in range(200)]
    dets = omit_one_dets(block, 101).tolist()
    for s, row in zip(block, dets):
        assert row == [closed_form(f101, s, i) for i in range(5)]
        assert verify_vander_identity(f101, s, 2)


def test_identity_with_repeats_is_trivially_true():
    f7 = PrimeField(7)
    for i in range(4):
        assert verify_vander_identity(f7, (3, 3, 6), i)
        assert closed_form(f7, (3, 3, 6), i) == 0
    assert omit_one_dets([(3, 3, 6)], 7).tolist() == [[0, 0, 0, 0]]


def test_identity_fuzz_all_small_fields():
    rng = Random(3)
    for p in (7, 31):
        fld = PrimeField(p)
        for n in (2, 3, 5, 6):
            block = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(50)]
            for s, row in zip(block, omit_one_dets(block, p).tolist()):
                i = rng.randrange(n + 1)
                assert verify_vander_identity(fld, s, i)
                assert row == [closed_form(fld, s, k) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# the batched kernel against exact elimination


@pytest.mark.parametrize("n", [2, 3])
def test_omit_one_dets_exhaustive_f7(n):
    f7 = PrimeField(7)
    block = list(itertools.product(range(7), repeat=n))
    got = omit_one_dets(block, 7)
    assert got.shape == (7**n, n + 1)
    assert got.dtype.name == "int64"
    assert got.tolist() == elimination_dets(f7, block)


@pytest.mark.parametrize("p", [7, 101, 65521])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_omit_one_dets_seeded_blocks(n, p):
    # 65521 is the largest p for which char_poly_batch stays inside int64
    fld = PrimeField(p)
    rng = Random(n * 1000 + p)
    for rows in (1, 17, SUITE_BLOCK):
        block = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rows)]
        assert omit_one_dets(block, p).tolist() == elimination_dets(fld, block)


def test_omit_one_dets_repeated_and_zero_entries():
    for p in (7, 101, 65521):
        fld = PrimeField(p)
        block = [(0, 0, 3), (0, 1, 2), (5, 5, 5), (0, 4, 4), (p - 1, 1, 0)]
        got = omit_one_dets(block, p).tolist()
        assert got == elimination_dets(fld, block)
        for s, row in zip(block, got):
            if len(set(s)) < len(s):
                assert row == [0] * (len(s) + 1)
        # a zero entry kills e_n, so omitting the power 0 gives 0
        assert got[1][0] == 0 and got[4][0] == 0
        quads = [(0, 0, 0, 0), (0, 1, p - 1, 2), (3, 3, 0, 1), (1, 2, 3, 4)]
        assert omit_one_dets(quads, p).tolist() == elimination_dets(fld, quads)


@pytest.mark.parametrize("n,p", [(5, 5), (4, 3), (6, 5), (3, 3)])
def test_omit_one_dets_needs_p_above_n(n, p):
    with pytest.raises(ValueError):
        omit_one_dets([tuple(range(1, n + 1))], p)


# ---------------------------------------------------------------------------
# batched suites against their one-trial-at-a-time forms

TRIAL_COUNTS = sorted({1, SUITE_BLOCK - 1, SUITE_BLOCK, SUITE_BLOCK + 1, 63, 64, 65, 130})


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
def test_vander_suite_matches_per_trial(trials):
    for n, p in ((2, 7), (3, 11), (4, 101), (6, 7)):
        batched, by_trial = Random(trials + n), Random(trials + n)
        assert vander_identity_suite(n, p, trials, batched) == \
            vander_identity_suite_by_trial(n, p, trials, by_trial) == (trials, trials)
        assert batched.getstate() == by_trial.getstate()


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
def test_cyclic_suite_matches_per_trial(trials):
    for n, p in ((2, 5), (3, 7), (4, 101), (5, 11)):
        batched, by_trial = Random(trials + n), Random(trials + n)
        got = cyclic_nonvanishing_suite(n, p, trials, batched)
        assert got == cyclic_nonvanishing_suite_by_trial(n, p, trials, by_trial)
        assert got[1] == trials * (n - 1) * (n + 1)
        assert batched.getstate() == by_trial.getstate()


@pytest.mark.parametrize("n,p,counts", [(3, 7, {0, 2, 4}), (4, 5, {5}),
                                         (4, 7, {0, 2, 5})])
def test_cyclic_window_lengths_pair_up_exhaustively(n, p, counts):
    """The symmetry cyclic_nonvanishing_suite relies on, over every head
    vector: window n-L is a cyclic shift of the reciprocals of window
    L, and its omit-one determinants have as many zeros as L's.  The
    zero counts that occur are frozen; at (4, 5) every window has a
    repeated entry, so all five determinants vanish."""
    fld = PrimeField(p)
    seen = set()
    for head in itertools.product(range(1, p), repeat=n - 1):
        r = list(head) + [fld.inv(math.prod(head) % p)]
        windows = {L: cyclic_product_coordinates(fld, r, L) for L in range(1, n)}
        zeros = {L: sum(generalized_vandermonde_det(fld, q, i) == 0 for i in range(n + 1))
                 for L, q in windows.items()}
        for L in range(1, n):
            inverses = [fld.inv(v) for v in windows[L]]
            assert windows[n - L] == inverses[n - L:] + inverses[:n - L]
            assert zeros[n - L] == zeros[L]
        seen.update(zeros.values())
    assert seen == counts


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
def test_lindep_suite_matches_per_trial(trials):
    # at (2, 5) every split witness has eigenvalues {2, 3} and e_1 = 0
    for n, p in ((2, 5), (3, 7), (4, 101)):
        assert lindep_suite(n, p, trials, Random(trials + n)) == \
            lindep_suite_by_trial(n, p, trials, Random(trials + n))


def zero_entry_rows(fld, n, rng, count):
    """Rows (0, s_1, ..., s_{n-1}) of distinct entries with e_1, ...,
    e_{n-1} nonzero: the 0 kills e_n alone, so of the omit-one
    determinants only the omit-power-0 one, V(s) e_n(s), vanishes.
    Split eigenvalues are units, so the witness stream never has one."""
    rows = []
    while len(rows) < count:
        s = [0] + rng.sample(range(1, fld.p), n - 1)
        if all(elementary_symmetric(fld, s, m) for m in range(1, n)):
            rows.append(s)
    return rows


def test_lindep_checks_match_elimination():
    outcomes = set()
    for n, p in ((2, 5), (2, 7), (3, 7), (4, 11), (4, 101)):
        space = SpecialLinear(n, p)
        stream = space.split_regulars(Random(n * p))
        block = [eigs for _, (_, eigs) in zip(range(2 * SUITE_BLOCK), stream)]
        zeros = zero_entry_rows(space.field, n, Random(n + p), 4)
        vanishing = (omit_one_dets(zeros, p) == 0).tolist()
        assert vanishing == [[True] + [False] * n] * len(zeros)
        repeated = [[s[1]] + s[1:] for s in zeros]  # V(s) = 0: every determinant
        block += zeros + repeated
        want = [lindep_check_by_elimination(space.field, eigs) for eigs in block]
        assert lindep_checks(space.field, block) == want
        assert want[-2 * len(zeros):] == [False] * (2 * len(zeros))
        outcomes.update(want)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# cyclic window products


def test_cyclic_products_frozen():
    f17 = PrimeField(17)
    assert cyclic_product_coordinates(f17, (2, 3, 3), 1) == [2, 3, 3]
    assert cyclic_product_coordinates(f17, (2, 3, 3), 2) == [6, 9, 6]


def test_cyclic_products_all_ones():
    f17 = PrimeField(17)
    for length in (1, 2, 3):
        assert cyclic_product_coordinates(f17, (1, 1, 1, 1), length) == [1, 1, 1, 1]


def test_cyclic_products_validation():
    f17 = PrimeField(17)
    with pytest.raises(ValueError):
        cyclic_product_coordinates(f17, (2, 3), 1)  # product 6 != 1
    with pytest.raises(ValueError):
        cyclic_product_coordinates(f17, (2, 9), 2)  # length must be < n
    with pytest.raises(ValueError):
        cyclic_product_coordinates(f17, (2, 9), 0)


def test_cyclic_window_product_of_all_windows_is_one():
    # multiplying all n cyclic windows of length l uses each r_k l times
    f31 = PrimeField(31)
    rng = Random(4)
    for _ in range(50):
        head = [rng.randrange(1, 31) for _ in range(3)]
        prod = 1
        for v in head:
            prod = (prod * v) % 31
        r = tuple(head + [pow(prod, 29, 31)])
        for length in (1, 2, 3):
            q = cyclic_product_coordinates(f31, r, length)
            total = 1
            for v in q:
                total = (total * v) % 31
            assert total == 1


def test_nonvanishing_rate_under_twenty_percent():
    # sampled zero rate of the omit-one determinants at n=3, p=101
    failures, evals = cyclic_nonvanishing_suite(3, 101, 500, Random(5))
    assert evals == 500 * 2 * 4
    assert failures / evals < 0.20
