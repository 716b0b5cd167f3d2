"""Elementary symmetric polynomials and generalized Vandermonde
determinants over a prime field.

The central identity: for s = (s_1, ..., s_n) and 0 <= i <= n, the
determinant of the n x n matrix whose row j lists the powers
s_j^0, ..., s_j^n with the power-i column omitted equals

    prod_{j<k} (s_k - s_j)  *  e_{n-i}(s),

where e_m is the m-th elementary symmetric polynomial.  The two sides
come by genuinely different routes, batched Newton charpolys of whole
blocks (omit_one_dets) against the product recurrences below, so the
check is a real one; the tests hold both to exact elimination.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField
from .matrices import char_poly_batch


def elementary_symmetric(field: PrimeField, s, m: int) -> int:
    """e_m(s): the sum of all squarefree degree-m monomials, computed by
    the coefficient recurrence for prod_j (x + s_j)."""
    n = len(s)
    if not 0 <= m <= n:
        raise ValueError(f"m={m} out of range for {n} values")
    p = field.p
    coeffs = [1] + [0] * m  # track e_0..e_m only
    top = 0
    for v in s:
        v %= p
        top = min(top + 1, m)
        for j in range(top, 0, -1):
            coeffs[j] = (coeffs[j] + v * coeffs[j - 1]) % p
    return coeffs[m]


def vandermonde_product(field: PrimeField, s) -> int:
    """prod_{j<k} (s_k - s_j) mod p."""
    p = field.p
    out = 1
    for k in range(1, len(s)):
        sk = s[k]
        for j in range(k):
            out = (out * (sk - s[j])) % p
    return out


def omit_one_dets(values, p: int) -> np.ndarray:
    """The omit-power-i determinants of every row s of a (B, n) block
    of residues, i = 0..n, as a (B, n+1) int64 array.

    Each determinant is (-1)^n times the constant term of its matrix's
    charpoly, which char_poly_batch finds for p > n only; smaller p
    raises ValueError.
    """
    s = np.asarray(values, dtype=np.int64) % p
    count, n = s.shape
    if p <= n:
        raise ValueError(f"omit-one determinants need p > n, got p={p}, n={n}")
    table = np.ones((count, n, n + 1), dtype=np.int64)  # s_j^k mod p
    for k in range(1, n + 1):
        table[:, :, k] = table[:, :, k - 1] * s % p
    mats = np.empty((count, n + 1, n, n), dtype=np.int64)
    for i in range(n + 1):
        mats[:, i, :, :i] = table[:, :, :i]
        mats[:, i, :, i:] = table[:, :, i + 1:]
    return char_poly_batch(mats, p)[:, :, 0] * (-1) ** n % p


def cyclic_product_coordinates(field: PrimeField, r, length: int) -> list[int]:
    """q_k = r_k r_{k+1} ... r_{k+length-1} with indices cyclic mod n.

    Defined on coordinate vectors of product one; 1 <= length <= n-1.
    """
    n = len(r)
    p = field.p
    r = [v % p for v in r]
    prod = 1
    for v in r:
        prod = (prod * v) % p
    if prod != 1:
        raise ValueError("cyclic products need coordinates of product one")
    if not 1 <= length <= n - 1:
        raise ValueError(f"window length {length} out of range for n={n}")
    out = []
    for k in range(n):
        q = 1
        for step in range(length):
            q = (q * r[(k + step) % n]) % p
        out.append(q)
    return out
