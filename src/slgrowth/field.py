"""Prime fields Z/pZ with canonical integer representatives.

Field elements are plain ints in [0, p).  PrimeField owns the modulus
and the inversion machinery; addition and multiplication stay inline
(`(a + b) % p`) at call sites, which is what keeps the hot loops fast.
"""

from __future__ import annotations

# below this modulus we precompute the whole inverse table
_INV_TABLE_LIMIT = 4096


def is_prime(m: int) -> bool:
    """Deterministic primality by trial division (desk-scale moduli)."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field Z/pZ for a prime p.

    Oddness of p, and p > n for a matrix space of size n, are experiment
    hypotheses; they are enforced where the matrix space is set up, not
    here, so a bare field object stays usable for scalar work.
    """

    __slots__ = ("p", "_inv_table")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        if p < _INV_TABLE_LIMIT:
            table = [0] * p
            for a in range(1, p):
                table[a] = pow(a, p - 2, p)
            self._inv_table = table
        else:
            self._inv_table = None

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.p}")
        if self._inv_table is not None:
            return self._inv_table[a]
        return pow(a, self.p - 2, self.p)
