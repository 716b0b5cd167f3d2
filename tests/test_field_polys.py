"""Field arithmetic, dense polynomials, and the small linear algebra kernel."""

from random import Random

import pytest

from slgrowth import PrimeField, is_prime
from slgrowth import polys, linalg

from oracles import matrix_rank_oracle, poly_add, poly_from_roots, poly_mul


# ---------------------------------------------------------------------------
# primality and field basics


def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for k in range(50):
        assert is_prime(k) == (k in primes)


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 91):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_inverse_exhaustive_small_fields():
    for p in (3, 5, 7, 11, 13):
        fld = PrimeField(p)
        for a in range(1, p):
            inv = fld.inv(a)
            assert (a * inv) % p == 1
            assert inv == pow(a, p - 2, p)


def test_inverse_of_zero_rejected():
    fld = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        fld.inv(0)
    with pytest.raises(ZeroDivisionError):
        fld.inv(14)


def test_inverse_beyond_table_limit():
    # 4099 > the precomputed-table cutoff, so this walks the pow path
    fld = PrimeField(4099)
    rng = Random(0)
    for _ in range(200):
        a = rng.randrange(1, 4099)
        assert (a * fld.inv(a)) % 4099 == 1


# ---------------------------------------------------------------------------
# polynomial arithmetic (coefficients low-to-high, zero poly = [])


def test_poly_mul_matches_oracle():
    fld = PrimeField(13)
    rng = Random(2)
    for _ in range(200):
        a = [rng.randrange(13) for _ in range(rng.randint(1, 5))]
        b = [rng.randrange(13) for _ in range(rng.randint(1, 5))]
        got = polys.mul(a, b, 13)
        want = polys.trim(poly_mul(a, b, 13))
        assert got == want


def test_divmod_reconstructs():
    fld = PrimeField(11)
    rng = Random(3)
    for _ in range(200):
        a = [rng.randrange(11) for _ in range(rng.randint(1, 6))]
        b = polys.trim([rng.randrange(11) for _ in range(rng.randint(1, 4))])
        if not b:
            continue
        q, r = polys.divmod_poly(a, b, fld)
        rebuilt = polys.trim(poly_add(polys.mul(q, b, 11), r, 11))
        assert rebuilt == polys.trim(a)
        assert polys.degree(r) < polys.degree(b) or r == []


def test_gcd_of_known_factors():
    fld = PrimeField(7)
    # (x+1)(x+2) and (x+1)(x+3) share exactly (x+1)
    a = polys.mul([1, 1], [2, 1], 7)
    b = polys.mul([1, 1], [3, 1], 7)
    assert polys.gcd(a, b, fld) == [1, 1]
    # coprime pair
    assert polys.gcd([1, 1], [2, 1], fld) == [1]


def test_from_roots_and_evaluate():
    fld = PrimeField(11)
    roots = [2, 5, 7]
    f = poly_from_roots(roots, 11)
    for r in roots:
        assert polys.evaluate(f, r, 11) == 0
    assert polys.evaluate(f, 1, 11) != 0
    assert polys.degree(f) == 3


def test_is_squarefree():
    fld = PrimeField(7)
    sf = poly_from_roots([1, 2, 3], 7)
    assert polys.is_squarefree(sf, fld)
    sq = polys.mul(poly_from_roots([1, 1], 7), [2, 1], 7)
    assert not polys.is_squarefree(sq, fld)


def test_rational_roots_matches_scan():
    fld = PrimeField(13)
    rng = Random(4)
    for _ in range(100):
        f = polys.trim([rng.randrange(13) for _ in range(rng.randint(2, 5))])
        if polys.degree(f) < 1:
            continue
        want = sorted(x for x in range(13) if polys.evaluate(f, x, 13) == 0)
        assert sorted(polys.rational_roots(f, fld)) == want


def test_pow_mod_matches_naive():
    fld = PrimeField(11)
    modulus = poly_from_roots([1, 3, 4], 11)
    base = [2, 1]  # x + 2
    acc = [1]
    for e in range(12):
        assert polys.pow_mod(base, e, modulus, fld) == acc
        _, acc = polys.divmod_poly(polys.mul(acc, base, 11), modulus, fld)


def test_factor_degrees_on_known_products():
    fld = PrimeField(5)
    # x^2 + 2 has no roots mod 5 -> irreducible quadratic
    assert polys.rational_roots([2, 0, 1], fld) == []
    linear = [3, 1]  # x + 3
    f = polys.mul(linear, [2, 0, 1], 5)
    assert sorted(polys.factor_degrees(f, fld)) == [1, 2]
    split = poly_from_roots([1, 2, 4], 5)
    assert sorted(polys.factor_degrees(split, fld)) == [1, 1, 1]


def test_factor_degrees_irreducible_cubic():
    fld = PrimeField(7)
    # x^3 + 2 mod 7: cubes mod 7 are {0,1,6}, so -2=5 is not a cube
    f = [2, 0, 0, 1]
    assert polys.rational_roots(f, fld) == []
    assert polys.factor_degrees(f, fld) == [3]


# ---------------------------------------------------------------------------
# linear algebra kernel


def _perm_det(rows, p):
    import itertools

    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        term = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            length, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        for i in range(n):
            term = (term * rows[i][perm[i]]) % p
        total = (total + sign * term) % p
    return total % p


def test_det_mod_matches_permutation_expansion():
    rng = Random(5)
    for p in (5, 13):
        fld = PrimeField(p)
        for n in (2, 3, 4, 5):
            for _ in range(60):
                rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                assert linalg.det_mod(rows, fld) == _perm_det(rows, p)


def test_nullspace_vector_annihilates():
    fld = PrimeField(11)
    rng = Random(7)
    found = 0
    for _ in range(200):
        rows = [[rng.randrange(11) for _ in range(3)] for _ in range(2)]
        v = linalg.nullspace_vector(rows, fld)
        assert v is not None  # 2x3 always has a kernel
        assert any(v)
        for row in rows:
            assert sum(r * x for r, x in zip(row, v)) % 11 == 0
        found += 1
    assert found == 200


def _check_nullspace_vector(rows, p):
    """The kernel vector is None exactly at full column rank; otherwise
    it annihilates the rows, is 1 at the first free column and 0 at
    every later free column (a column is free when it does not raise
    the rank of the columns before it)."""
    ncols = len(rows[0])
    v = linalg.nullspace_vector(rows, PrimeField(p))
    ranks = [matrix_rank_oracle([row[:c] for row in rows], p)
             for c in range(ncols + 1)]
    free = [c for c in range(ncols) if ranks[c + 1] == ranks[c]]
    if not free:
        assert v is None
        return 0
    for row in rows:
        assert sum(r * x for r, x in zip(row, v)) % p == 0
    assert v[free[0]] == 1
    assert all(v[c] == 0 for c in free[1:])
    return len(free)


def test_nullspace_vector_tall_and_wide_match_oracle():
    rng = Random(12)
    deficient = 0
    for p in (3, 5):
        for _ in range(100):
            tall = [[rng.randrange(p) for _ in range(4)] for _ in range(9)]
            if rng.random() < 0.3:  # force a dependent column
                c = rng.randrange(1, 4)
                for row in tall:
                    row[c] = (row[0] + 2 * row[c - 1]) % p
            deficient += _check_nullspace_vector(tall, p) > 0
            wide = [[rng.randrange(p) for _ in range(5)] for _ in range(2)]
            assert _check_nullspace_vector(wide, p) >= 3
    assert deficient


def test_nullspace_vector_none_for_full_rank():
    fld = PrimeField(5)
    rows = [[1, 0], [0, 1]]
    assert linalg.nullspace_vector(rows, fld) is None
