"""Field arithmetic, dense polynomials, and determinants."""

import itertools
from random import Random

import pytest

from slgrowth import PrimeField, SpecialLinear, is_prime
from slgrowth import polys

from oracles import det_oracle, poly_add, poly_from_roots, poly_mul


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


def test_radical_exhaustive_monic_degree_one_to_four_p5():
    p = 5
    fld = PrimeField(p)
    repeated = 0
    for d in range(1, 5):
        for low in itertools.product(range(p), repeat=d):
            f = list(low) + [1]
            rad = polys.radical(f, fld)
            common = polys.gcd(f, polys.deriv(f, p), fld)
            assert (rad is None) == (polys.degree(common) <= 0), f
            if rad is None:
                continue
            repeated += 1
            assert rad[-1] == 1 and polys.is_squarefree(rad, fld), f
            assert polys.divmod_poly(f, rad, fld)[1] == [], f
            power = [1]
            for _ in range(d):
                power = polys.mul(power, rad, p)
            assert polys.divmod_poly(power, f, fld)[1] == [], f
    assert repeated  # x^2, (x - 1)^2 (x + 2), ... are there


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
# determinants


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


def test_special_linear_det_matches_permutation_expansion():
    """Arbitrary matrices, every fourth made singular (its last row the
    sum of the others), inside SpecialLinear's p > n domain."""
    rng = Random(5)
    for p in (7, 13):
        for n in (2, 3, 4, 5, 6):
            space = SpecialLinear(n, p)
            singular = 0
            for trial in range(40):
                rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                if trial % 4 == 0:
                    rows[-1] = [sum(col) % p for col in zip(*rows[:-1])]
                expected = _perm_det(rows, p)
                singular += expected == 0
                assert space.det(space.from_rows(rows)) == expected
                assert det_oracle(rows, p) == expected
            assert singular >= 10
