"""Dense univariate polynomial helpers over Z/pZ (internal).

A polynomial is a list of canonical coefficients, lowest degree first,
with no trailing zeros; the zero polynomial is the empty list.  These
are building blocks for characteristic polynomial work, so they stay
small and allocation-light rather than general.
"""

from __future__ import annotations

from .field import PrimeField

X = [0, 1]  # the monomial x


def trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f: list) -> int:
    return len(f) - 1  # -1 for the zero polynomial


def sub(f: list, g: list, p: int) -> list:
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return trim(out)


def scale(f: list, c: int, p: int) -> list:
    c %= p
    if c == 0:
        return []
    return trim([(a * c) % p for a in f])


def mul(f: list, g: list, p: int) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def monic(f: list, field: PrimeField) -> list:
    if not f:
        return []
    lead = f[-1]
    if lead == 1:
        return list(f)
    return scale(f, field.inv(lead), field.p)


def divmod_poly(f: list, g: list, field: PrimeField) -> tuple[list, list]:
    """Quotient and remainder of f by g (g nonzero)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    p = field.p
    rem = list(f)
    dg = len(g) - 1
    if len(rem) - 1 < dg:
        return [], trim(rem)
    inv_lead = field.inv(g[-1])
    quot = [0] * (len(rem) - dg)
    for shift in range(len(rem) - 1 - dg, -1, -1):
        c = rem[shift + dg]
        if c:
            q = (c * inv_lead) % p
            quot[shift] = q
            for i, b in enumerate(g):
                rem[shift + i] = (rem[shift + i] - q * b) % p
    return trim(quot), trim(rem)


def gcd(f: list, g: list, field: PrimeField) -> list:
    """Monic gcd by the Euclidean algorithm."""
    a, b = list(f), list(g)
    while b:
        _, r = divmod_poly(a, b, field)
        a, b = b, r
    return monic(a, field)


def deriv(f: list, p: int) -> list:
    return trim([(i * c) % p for i, c in enumerate(f)][1:])


def evaluate(f: list, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def pow_mod(f: list, e: int, modulus: list, field: PrimeField) -> list:
    """f**e mod modulus by square-and-multiply (modulus nonconstant)."""
    if degree(modulus) <= 0:
        return []
    result = [1]
    _, base = divmod_poly(f, modulus, field)
    while e > 0:
        if e & 1:
            _, result = divmod_poly(mul(result, base, field.p), modulus, field)
        e >>= 1
        if e:
            _, base = divmod_poly(mul(base, base, field.p), modulus, field)
    return result


def is_squarefree(f: list, field: PrimeField) -> bool:
    """True when gcd(f, f') is constant (degrees < p, so f' != 0)."""
    return degree(gcd(f, deriv(f, field.p), field)) <= 0


def radical(f: list, field: PrimeField) -> list | None:
    """None when f is squarefree; otherwise rad(f) = f / gcd(f, f'), the
    product of the distinct irreducible factors of f, monic when f is.
    Every multiplicity is below p when deg f < p, so f' keeps each
    repeated factor once less than f does."""
    common = gcd(f, deriv(f, field.p), field)
    if degree(common) <= 0:
        return None
    rad, _ = divmod_poly(f, common, field)
    return rad


def rational_roots(f: list, field: PrimeField) -> list[int]:
    """All roots in Z/pZ in ascending order, by direct scan: the
    per-element path; blocks go through SpecialLinear._split_rows."""
    return [x for x in range(field.p) if evaluate(f, x, field.p) == 0]


def factor_degrees(f: list, field: PrimeField) -> list[int]:
    """Degrees of the irreducible factors of a squarefree monic f.

    Distinct-degree sieve: gcd(x^(p^d) - x, f) collects every factor of
    degree d.  Returns the degree multiset sorted ascending.
    """
    if not is_squarefree(f, field):
        raise ValueError("factor_degrees expects a squarefree polynomial")
    g = monic(f, field)
    degs: list[int] = []
    h = pow_mod(X, 1, g, field)  # x reduced mod g
    d = 0
    while degree(g) > 0:
        d += 1
        if 2 * d > degree(g):
            # whatever is left is a single irreducible factor
            degs.append(degree(g))
            break
        h = pow_mod(h, field.p, g, field)
        common = gcd(sub(h, X, field.p), g, field)
        if degree(common) > 0:
            degs.extend([d] * (degree(common) // d))
            g, r = divmod_poly(g, common, field)
            assert not r
            _, h = divmod_poly(h, g, field)
    return sorted(degs)
