"""SL_n(F_p) matrix operations, invariants, and classification."""

import itertools
import tracemalloc
from random import Random

import numpy as np
import pytest

from slgrowth import (
    NotInGroup,
    SemisimplicityClass,
    SingularMatrix,
    SpecialLinear,
    full_group,
)
from slgrowth import cli, draws
from slgrowth.matrices import SPLIT_BLOCK, SPLIT_SCAN_ENTRIES, char_poly_batch

from oracles import (
    charpoly_oracle,
    classify_oracle,
    conjugation_orbit,
    minimal_polynomial_oracle,
    poly_mul,
    regular_semisimple,
    root_multiplicities,
    split_regular_oracle,
)

RS = SemisimplicityClass.REGULAR_SEMISIMPLE
SS = SemisimplicityClass.SEMISIMPLE_NOT_REGULAR
NS = SemisimplicityClass.NOT_SEMISIMPLE


def sl(n, p):
    return SpecialLinear(n, p)


# ---------------------------------------------------------------------------
# construction and validation


def test_space_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SpecialLinear(1, 5)
    with pytest.raises(ValueError):
        SpecialLinear(2, 2)
    with pytest.raises(ValueError):
        SpecialLinear(3, 3)  # needs p > n
    with pytest.raises(ValueError):
        SpecialLinear(2, 9)  # composite


def test_group_order_formula():
    assert sl(2, 5).order() == 120
    assert sl(2, 7).order() == 336
    assert sl(3, 7).order() == 5_630_688
    # cross-check one order against an actual closure count
    assert len(full_group(sl(2, 5))) == 120


def test_check_member_rejects_wrong_determinant():
    space = sl(2, 5)
    with pytest.raises(NotInGroup):
        space.check_member((2, 0, 0, 1))  # det 2
    with pytest.raises(ValueError):
        space.check_member((1, 0, 0, 1, 0))  # bad shape
    assert space.check_member((1, 1, 0, 1)) == (1, 1, 0, 1)


# ---------------------------------------------------------------------------
# products and inverses


def test_product_example_mod5():
    space = sl(2, 5)
    a = space.from_rows([[1, 1], [0, 1]])
    b = space.from_rows([[1, 0], [1, 1]])
    assert space.to_rows(space.mul(a, b)) == [[2, 1], [1, 1]]


def test_identity_is_neutral():
    space = sl(3, 7)
    rng = Random(0)
    e = space.identity()
    for _ in range(50):
        g = space.random_element(rng)
        assert space.mul(e, g) == g
        assert space.mul(g, e) == g


def test_inverse_examples_and_law():
    space = sl(2, 5)
    assert space.inv(space.from_rows([[2, 0], [0, 3]])) == space.from_rows(
        [[3, 0], [0, 2]]
    )
    assert space.inv(space.from_rows([[1, 1], [0, 1]])) == space.from_rows(
        [[1, 4], [0, 1]]
    )
    assert space.inv(space.identity()) == space.identity()
    rng = Random(1)
    for n, p in ((2, 5), (3, 7), (4, 11)):
        sp = sl(n, p)
        for _ in range(50):
            g = sp.random_element(rng)
            assert sp.mul(g, sp.inv(g)) == sp.identity()


def test_inverse_of_singular_raises():
    for rows in (
        [[1, 2], [2, 4]],
        [[1, 2, 3], [2, 4, 6], [0, 0, 1]],  # column 1 has no pivot
        [[0, 1, 2, 3], [0, 4, 5, 6], [0, 0, 0, 1], [0, 2, 1, 5]],  # column 0
        [[1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6], [0, 0, 1, 1]],  # rank 3
    ):
        space = sl(len(rows), 7)
        with pytest.raises(SingularMatrix):
            space.inv(space.from_rows(rows))


def test_det_closed_forms_match_product_rule():
    rng = Random(2)
    for n, p in ((2, 7), (3, 11), (4, 13)):
        space = sl(n, p)
        for _ in range(40):
            g = space.random_element(rng)
            h = space.random_element(rng)
            assert space.det(g) == 1
            assert space.det(space.mul(g, h)) == 1


def test_power_agrees_with_iterated_product():
    rng = Random(3)
    for n, p in ((2, 5), (3, 7)):
        space = sl(n, p)
        for _ in range(30):
            g = space.random_element(rng)
            acc = space.identity()
            for power in space.power_list(g, 6):
                assert power == acc
                acc = space.mul(acc, g)


def test_trace_product_equals_trace_of_product():
    rng = Random(4)
    for n, p in ((2, 5), (3, 7), (4, 11)):
        space = sl(n, p)
        for _ in range(60):
            a = space.random_element(rng)
            b = space.random_element(rng)
            assert space.trace_product(a, b) == space.trace(space.mul(a, b))


# ---------------------------------------------------------------------------
# characteristic polynomial and kappa


def test_kappa_frozen_examples():
    space = sl(2, 5)
    assert space.char_poly(space.identity()) == (3,)
    assert space.char_poly(space.from_rows([[0, 1], [4, 0]])) == (0,)
    assert space.char_poly(space.from_rows([[2, 0], [0, 3]])) == (0,)


def test_kappa_length_and_trace_slot():
    rng = Random(5)
    for n, p in ((2, 7), (3, 7), (4, 11), (5, 13)):
        space = sl(n, p)
        for _ in range(40):
            g = space.random_element(rng)
            kappa = space.char_poly(g)
            assert len(kappa) == n - 1
            # leading kappa slot is a_{n-1} = -trace
            assert kappa[0] == (-space.trace(g)) % p


def test_char_poly_full_matches_permutation_oracle():
    rng = Random(6)
    for n, p in ((2, 5), (3, 7), (4, 11), (5, 13)):
        space = sl(n, p)
        for _ in range(60):
            g = space.random_element(rng)
            assert space.char_poly_full(g) == charpoly_oracle(n, p, g)


def test_char_poly_rejects_nonmembers():
    space = sl(2, 5)
    with pytest.raises(NotInGroup):
        space.char_poly((2, 0, 0, 1))


def test_kappa_conjugation_invariance_sampled():
    rng = Random(7)
    for n, p in ((2, 7), (3, 11)):
        space = sl(n, p)
        for _ in range(300):
            g = space.random_element(rng)
            h = space.random_element(rng)
            conj = space.mul(space.mul(h, g), space.inv(h))
            assert space.char_poly(conj) == space.char_poly(g)


def test_kappa_classes_are_conjugacy_classes_sl2_f5():
    """For regular semisimple elements of SL_2(F_5), equal kappa means
    conjugate in G(K) itself, checked by exhausting orbits."""
    space = sl(2, 5)
    G = full_group(space)
    by_kappa = {}
    for g in G:
        if space.classify_semisimple(g) is RS:
            by_kappa.setdefault(space.char_poly(g), set()).add(g)
    assert len(by_kappa) == 3  # traces 0, 1, 4
    for kappa, members in by_kappa.items():
        rep = min(members)
        assert conjugation_orbit(space, rep) == frozenset(members)


# ---------------------------------------------------------------------------
# semisimplicity classification


def test_classify_frozen_examples():
    space5 = sl(2, 5)
    assert space5.classify_semisimple(space5.from_rows([[2, 0], [0, 3]])) is RS
    assert space5.classify_semisimple(space5.from_rows([[1, 1], [0, 1]])) is NS
    space7 = sl(3, 7)
    assert space7.classify_semisimple(space7.identity()) is SS


def test_classify_exhaustive_sl2_f5_against_oracle():
    space = sl(2, 5)
    for g in full_group(space):
        assert space.classify_semisimple(g) == classify_oracle(space, g)


def test_classify_sampled_sl3_f7_against_oracle():
    space = sl(3, 7)
    rng = Random(8)
    for _ in range(500):
        g = space.random_element(rng)
        assert space.classify_semisimple(g) == classify_oracle(space, g)


def test_classify_sampled_sl4_f5_against_oracle():
    """At n = 4 the oracle decides by the brute-force minimal polynomial,
    a rule independent of the radical classify_semisimple evaluates."""
    space = sl(4, 5)
    rng = Random(45)
    seen = set()
    for _ in range(1500):
        g = space.random_element(rng)
        cls = space.classify_semisimple(g)
        assert cls == classify_oracle(space, g)
        seen.add(cls)
    assert seen == {RS, SS, NS}


def test_classify_sees_nonregular_semisimple_in_sl3():
    # diag(a, a, a^-2) is semisimple with a repeated eigenvalue
    space = sl(3, 7)
    g = space.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])  # 2*2*2 = 8 = 1
    assert space.classify_semisimple(g) is SS
    h = space.from_rows([[3, 0, 0], [0, 3, 0], [0, 0, 4]])  # 3*3*4 = 36 = 1
    assert space.classify_semisimple(h) is SS
    assert not space.is_regular_semisimple(h)


def _linear_factors(roots, p):
    out = [1]
    for r in roots:
        out = poly_mul(out, [(-r) % p, 1], p)
    return out


def _jordan(n, p, blocks):
    """Block-diagonal matrix of Jordan blocks [(eigenvalue, size), ...]."""
    rows = [[0] * n for _ in range(n)]
    i = 0
    for lam, size in blocks:
        for k in range(size):
            rows[i + k][i + k] = lam % p
            if k + 1 < size:
                rows[i + k][i + k + 1] = 1
        i += size
    assert i == n
    return rows


def test_minimal_polynomial_of_non_regular_elements():
    p = 11
    a, b = 3, pow(3, -1, p)  # b = a^-1
    cases = {
        # (n, Jordan blocks): (expected minimal polynomial roots, class)
        (2, ((1, 1), (1, 1))): ([1], SS),
        (2, ((-1, 1), (-1, 1))): ([-1], SS),
        (2, ((1, 2),)): ([1, 1], NS),
        (2, ((-1, 2),)): ([-1, -1], NS),
        (3, ((1, 1), (1, 1), (1, 1))): ([1], SS),
        (3, ((a, 1), (a, 1), (b * b, 1))): ([a, b * b], SS),  # diag(a, a, a^-2)
        (3, ((a, 2), (b * b, 1))): ([a, a, b * b], NS),
        (3, ((1, 2), (1, 1))): ([1, 1], NS),
        (3, ((1, 3),)): ([1, 1, 1], NS),
        (4, ((1, 1),) * 4): ([1], SS),
        (4, ((-1, 1),) * 4): ([-1], SS),
        (4, ((a, 1), (a, 1), (b, 1), (b, 1))): ([a, b], SS),
        (4, ((a, 1), (a, 1), (a, 1), (b ** 3, 1))): ([a, b ** 3], SS),
        (4, ((1, 2), (1, 2))): ([1, 1], NS),
        (4, ((1, 4),)): ([1, 1, 1, 1], NS),
    }
    for (n, blocks), (roots, cls) in cases.items():
        space = sl(n, p)
        g = space.check_member(space.from_rows(_jordan(n, p, blocks)))
        assert minimal_polynomial_oracle(n, p, g) == _linear_factors(roots, p)
        assert space.classify_semisimple(g) is cls, (n, blocks)
        assert classify_oracle(space, g) is cls, (n, blocks)


def test_split_eigenvalues():
    space = sl(2, 5)
    assert space.split_eigenvalues(space.from_rows([[2, 0], [0, 3]])) == [2, 3]
    # x^2 + 1 splits at p=5 since 2^2 = -1
    assert space.split_eigenvalues(space.from_rows([[0, 1], [4, 0]])) == [2, 3]
    # unipotent: repeated eigenvalue, not regular -> None
    assert space.split_eigenvalues(space.from_rows([[1, 1], [0, 1]])) is None
    space7 = sl(2, 7)
    # x^2 + 1 is irreducible at p=7
    assert space7.split_eigenvalues(space7.from_rows([[0, 1], [6, 0]])) is None


def split_eigenvalues_oracle(space, g):
    """Sorted eigenvalues when the permutation-expansion charpoly has n
    simple rational roots, else None."""
    mults = root_multiplicities(charpoly_oracle(space.n, space.p, g), space.p)
    if len(mults) == space.n and all(m == 1 for m in mults.values()):
        return sorted(mults)
    return None


@pytest.mark.parametrize("n, p", [(2, 5), (2, 7)])
def test_split_eigenvalues_exhaustive_against_oracle(n, p):
    space = sl(n, p)
    split = 0
    for g in full_group(space):
        eigs = space.split_eigenvalues(g)
        assert eigs == split_eigenvalues_oracle(space, g)
        split += eigs is not None
    assert 0 < split < space.order()


@pytest.mark.parametrize("n, p, seed", [(3, 5, 41), (4, 7, 43)])
def test_split_eigenvalues_sampled_against_oracle(n, p, seed):
    space = sl(n, p)
    rng = Random(seed)
    split = 0
    for _ in range(2000):
        g = space.random_element(rng)
        eigs = space.split_eigenvalues(g)
        assert eigs == split_eigenvalues_oracle(space, g)
        split += eigs is not None
    assert split > 0


def test_random_regular_semisimple():
    rng = Random(10)
    for n, p in ((2, 5), (3, 7), (4, 11)):
        space = sl(n, p)
        for _ in range(30):
            g = regular_semisimple(space, rng)
            assert space.is_regular_semisimple(g)


@pytest.mark.parametrize("n", [3, 4])
def test_f_identity_builds_the_powers_of_t_once(monkeypatch, n):
    """Each f-identity trial reads t, g and t's charpoly from the
    element stream and builds the powers of t once: one power_list
    call, no char_poly_full call and no random_element call."""
    calls = {"power_list": 0, "char_poly_full": 0, "random_element": 0}
    for name in calls:
        method = getattr(SpecialLinear, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SpecialLinear, name, counted)
    trials = 40
    passes, ran = cli.f_identity_suite(n, 31, trials, Random(2))
    assert passes == ran == trials
    assert calls == {"power_list": trials, "char_poly_full": 0, "random_element": 0}


# ---------------------------------------------------------------------------
# batched characteristic polynomials and the split regular stream


def singular_matrices(n, p, rng, count):
    """Matrices of every rank below n: random ones with a row replaced
    by a combination of the others, the nilpotent Jordan block, zero."""
    out = [(0,) * (n * n), tuple(int(j == i + 1) for i in range(n) for j in range(n))]
    while len(out) < count:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        rank = rng.randrange(n)
        for i in range(rank, n):
            coeffs = [rng.randrange(p) for _ in range(rank)]
            rows[i] = [sum(c * rows[k][j] for k, c in enumerate(coeffs)) % p
                       for j in range(n)]
        rng.shuffle(rows)
        out.append(tuple(x for row in rows for x in row))
    return out


@pytest.mark.parametrize("n,p", [(2, 5), (3, 7), (4, 101), (5, 13), (5, 65521)])
def test_char_poly_batch_matches_char_poly_full(n, p):
    space = sl(n, p)
    rng = Random(n * p)
    members = [space.random_element(rng) for _ in range(40)]
    arbitrary = [tuple(rng.randrange(p) for _ in range(n * n)) for _ in range(40)]
    singular = singular_matrices(n, p, rng, 40)
    for mats in (members, arbitrary, singular):
        stack = np.array(mats, dtype=np.int64).reshape(-1, n, n)
        got = char_poly_batch(stack, p).tolist()
        assert got == [space.char_poly_full(g) for g in mats]
        if p < 1000:
            assert got == [charpoly_oracle(n, p, g) for g in mats]
    # any leading batch shape; the constant term of a singular g is 0
    stack = np.array(singular[:12], dtype=np.int64).reshape(3, 4, n, n)
    coeffs = char_poly_batch(stack, p)
    assert coeffs.shape == (3, 4, n + 1)
    assert not coeffs[..., 0].any()


@pytest.mark.parametrize("n,p,count", [(2, 5, 400), (2, 7, 400), (3, 7, 300),
                                       (3, 31, 300), (4, 101, 100),
                                       (2, 257, 400), (3, 17, 300)])
def test_split_regulars_is_the_sequential_stream(n, p, count):
    """Same (g, eigenvalues) in the same order as one random_element
    draw at a time; at p = 5 about a quarter of the 2x2 chunks are
    singular, so the stream must drop them exactly as it does.  At
    p = 257 and 17, just above a power of two, about half of the
    generator words are rejected, and the counts span several blocks
    of entries, so leftover draws carry from block to block."""
    space = sl(n, p)
    for seed in (0, 1):
        oracle_rng = Random(seed)
        want = [split_regular_oracle(space, oracle_rng) for _ in range(count)]
        assert list(itertools.islice(space.split_regulars(Random(seed)), count)) == want


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (2, 7), (3, 7), (3, 31), (4, 11),
                                 (4, 101), (2, 257), (3, 17), (5, 13)])
def test_elements_is_the_sequential_stream(n, p):
    """Same elements in the same order as one random_element call at a
    time, each with its charpoly; the counts span several blocks."""
    space = sl(n, p)
    count = 3 * SPLIT_BLOCK + 5
    for seed in (0, 1):
        oracle_rng = Random(seed)
        want = [space.random_element(oracle_rng) for _ in range(count)]
        got = list(itertools.islice(space.elements(Random(seed)), count))
        assert [g for g, _ in got] == want
        assert [full for _, full in got] == [charpoly_oracle(n, p, g) for g in want]


class WordsOnly(Random):
    """A generator whose per-call randrange fails: a sampler given one
    must read its entries from getrandbits words."""

    def randrange(self, *args):
        raise AssertionError("per-entry randrange call")


def test_split_regulars_read_whole_words(monkeypatch):
    """The sampler's draw path makes no per-entry randrange call and no
    numpy call (draws.randrange_runs runs with numpy taken away)."""
    monkeypatch.setattr(draws, "np", None)
    space = sl(4, 101)
    oracle_rng = Random(7)
    want = [split_regular_oracle(space, oracle_rng) for _ in range(20)]
    assert list(itertools.islice(space.split_regulars(WordsOnly(7)), 20)) == want


def test_elements_read_whole_words(monkeypatch):
    """The element stream makes no per-entry randrange call and no
    numpy call on its draw path."""
    monkeypatch.setattr(draws, "np", None)
    space = sl(4, 101)
    oracle_rng = Random(7)
    want = [space.random_element(oracle_rng) for _ in range(100)]
    got = [g for g, _ in itertools.islice(space.elements(WordsOnly(7)), 100)]
    assert got == want


def test_split_regulars_bound_the_root_table_at_wide_p():
    space = sl(2, 65521)
    block = min(SPLIT_BLOCK, SPLIT_SCAN_ENTRIES // space.p)
    assert 1 <= block and block * space.p <= SPLIT_SCAN_ENTRIES
    oracle_rng = Random(4)
    want = [split_regular_oracle(space, oracle_rng) for _ in range(5)]
    tracemalloc.start()
    try:
        got = list(itertools.islice(space.split_regulars(Random(4)), 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    # one (block, p) int64 table of values, its zero mask and x^k mod p
    assert peak < 2 * 8 * SPLIT_SCAN_ENTRIES


def test_split_regulars_give_up_on_sl2_f3():
    """SL_2(F_3) has no split regular element: both give up with the
    same error."""
    space = sl(2, 3)
    with pytest.raises(ValueError, match="no split regular element found"):
        split_regular_oracle(space, Random(0))
    with pytest.raises(ValueError, match="no split regular element found"):
        next(space.split_regulars(Random(0)))


# ---------------------------------------------------------------------------
# canonical encoding


def test_encode_identity_frozen():
    space = sl(2, 5)
    assert space.encode(space.identity()) == bytes([1, 0, 0, 1])


def test_encode_roundtrip_and_injectivity():
    rng = Random(11)
    space = sl(2, 5)
    seen = {}
    for _ in range(300):
        g = space.random_element(rng)
        blob = space.encode(g)
        assert len(blob) == 4
        assert space.decode(blob) == g
        if blob in seen:
            assert seen[blob] == g
        seen[blob] = g


def test_encode_wide_entries():
    # p = 257 needs two bytes per entry
    space = sl(2, 257)
    rng = Random(12)
    for _ in range(50):
        g = space.random_element(rng)
        blob = space.encode(g)
        assert len(blob) == 8
        assert space.decode(blob) == g


def test_kappa_hex_is_stable_key():
    space = sl(3, 7)
    rng = Random(13)
    for _ in range(50):
        g = space.random_element(rng)
        kappa = space.char_poly(g)
        assert space.kappa_hex(kappa) == space.kappa_hex(kappa)
        assert isinstance(space.kappa_hex(kappa), str)
