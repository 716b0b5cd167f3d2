"""Exact matrix arithmetic for SL_n(F_p).

A matrix is a flat row-major tuple of n*n canonical ints, so it hashes
fast and goes straight into sets and dict keys.  SpecialLinear carries
the ambient (n, p) plus specialized kernels; the experiment hypotheses
p odd and p > n are enforced here, once, at setup.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

import numpy as np

from . import linalg, polys
from .errors import InvalidWitness, NotInGroup, SingularMatrix, UnsupportedTorus
from .field import PrimeField

Mat = tuple  # flat row-major tuple of ints, length n*n

# candidates per block of SpecialLinear._element_blocks, at most;
# split_regulars cuts its blocks so that their (block, p) root table
# stays within SPLIT_SCAN_ENTRIES entries
SPLIT_BLOCK = 64
SPLIT_SCAN_ENTRIES = 1 << 20
# rejected candidates in a row after which split_regulars gives up
SPLIT_MAX_TRIES = 20_000


class SemisimplicityClass(enum.Enum):
    REGULAR_SEMISIMPLE = "REGULAR_SEMISIMPLE"
    SEMISIMPLE_NOT_REGULAR = "SEMISIMPLE_NOT_REGULAR"
    NOT_SEMISIMPLE = "NOT_SEMISIMPLE"


def _make_mul(n: int, p: int):
    """Multiplication kernel; n=2 and n=3 are unrolled hot paths."""
    if n == 2:

        def mul2(a: Mat, b: Mat) -> Mat:
            a0, a1, a2, a3 = a
            b0, b1, b2, b3 = b
            return (
                (a0 * b0 + a1 * b2) % p,
                (a0 * b1 + a1 * b3) % p,
                (a2 * b0 + a3 * b2) % p,
                (a2 * b1 + a3 * b3) % p,
            )

        return mul2
    if n == 3:

        def mul3(a: Mat, b: Mat) -> Mat:
            a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
            b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
            return (
                (a0 * b0 + a1 * b3 + a2 * b6) % p,
                (a0 * b1 + a1 * b4 + a2 * b7) % p,
                (a0 * b2 + a1 * b5 + a2 * b8) % p,
                (a3 * b0 + a4 * b3 + a5 * b6) % p,
                (a3 * b1 + a4 * b4 + a5 * b7) % p,
                (a3 * b2 + a4 * b5 + a5 * b8) % p,
                (a6 * b0 + a7 * b3 + a8 * b6) % p,
                (a6 * b1 + a7 * b4 + a8 * b7) % p,
                (a6 * b2 + a7 * b5 + a8 * b8) % p,
            )

        return mul3
    if n == 4:

        def mul4(a: Mat, b: Mat) -> Mat:
            (a0, a1, a2, a3, a4, a5, a6, a7,
             a8, a9, a10, a11, a12, a13, a14, a15) = a
            (b0, b1, b2, b3, b4, b5, b6, b7,
             b8, b9, b10, b11, b12, b13, b14, b15) = b
            return (
                (a0 * b0 + a1 * b4 + a2 * b8 + a3 * b12) % p,
                (a0 * b1 + a1 * b5 + a2 * b9 + a3 * b13) % p,
                (a0 * b2 + a1 * b6 + a2 * b10 + a3 * b14) % p,
                (a0 * b3 + a1 * b7 + a2 * b11 + a3 * b15) % p,
                (a4 * b0 + a5 * b4 + a6 * b8 + a7 * b12) % p,
                (a4 * b1 + a5 * b5 + a6 * b9 + a7 * b13) % p,
                (a4 * b2 + a5 * b6 + a6 * b10 + a7 * b14) % p,
                (a4 * b3 + a5 * b7 + a6 * b11 + a7 * b15) % p,
                (a8 * b0 + a9 * b4 + a10 * b8 + a11 * b12) % p,
                (a8 * b1 + a9 * b5 + a10 * b9 + a11 * b13) % p,
                (a8 * b2 + a9 * b6 + a10 * b10 + a11 * b14) % p,
                (a8 * b3 + a9 * b7 + a10 * b11 + a11 * b15) % p,
                (a12 * b0 + a13 * b4 + a14 * b8 + a15 * b12) % p,
                (a12 * b1 + a13 * b5 + a14 * b9 + a15 * b13) % p,
                (a12 * b2 + a13 * b6 + a14 * b10 + a15 * b14) % p,
                (a12 * b3 + a13 * b7 + a14 * b11 + a15 * b15) % p,
            )

        return mul4

    rng = range(n)

    def muln(a: Mat, b: Mat) -> Mat:
        out = []
        for i in rng:
            arow = a[i * n : i * n + n]
            for j in rng:
                s = 0
                for k in rng:
                    s += arow[k] * b[k * n + j]
                out.append(s % p)
        return tuple(out)

    return muln


def char_poly_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of det(xI - g), lowest degree first, for every g of
    an int64 stack (..., n, n) with entries in [0, p): shape (..., n+1).

    Newton's identities on the power traces tr(g^k), k = 1..n, divide
    by k <= n only, so they hold for singular g too when p > n.
    Products stay below n p^2, inside int64 for p < 2^16.
    """
    n = mats.shape[-1]
    power = mats
    ptr = [None, mats.trace(axis1=-2, axis2=-1) % p]  # ptr[k] = tr(g^k)
    for _ in range(2, n + 1):
        power = np.matmul(power, mats) % p
        ptr.append(power.trace(axis1=-2, axis2=-1) % p)
    coeffs = np.empty(mats.shape[:-2] + (n + 1,), dtype=np.int64)
    coeffs[..., n] = 1
    es = [1]  # elementary symmetric functions of the eigenvalues
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * es[k - i] * ptr[i] for i in range(1, k + 1))
        es.append(acc % p * pow(k, -1, p) % p)
        coeffs[..., n - k] = (-1) ** k * es[k] % p
    return coeffs


class SpecialLinear:
    """Ambient context for SL_n(F_p) with its exact matrix operations."""

    __slots__ = ("n", "p", "field", "mul", "_identity", "_entry_width")

    def __init__(self, n: int, p: int | PrimeField):
        field = p if isinstance(p, PrimeField) else PrimeField(p)
        if n < 2:
            raise ValueError(f"matrix size n={n} must be at least 2")
        if field.p == 2:
            raise ValueError("experiments require an odd prime modulus")
        if field.p <= n:
            raise ValueError(f"experiments require p > n, got p={field.p}, n={n}")
        if field.p > 0xFFFF:
            raise ValueError("entries wider than two bytes are unsupported")
        self.n = n
        self.p = field.p
        self.field = field
        self.mul = _make_mul(n, self.p)
        ident = [0] * (n * n)
        for i in range(n):
            ident[i * n + i] = 1
        self._identity = tuple(ident)
        self._entry_width = 1 if self.p < 256 else 2

    # -- construction and bookkeeping ------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SpecialLinear)
            and other.n == self.n
            and other.p == self.p
        )

    def __hash__(self):
        return hash(("SpecialLinear", self.n, self.p))

    def __repr__(self):
        return f"SpecialLinear(n={self.n}, p={self.p})"

    def identity(self) -> Mat:
        return self._identity

    def from_rows(self, rows: Sequence[Sequence[int]]) -> Mat:
        n, p = self.n, self.p
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n}x{n} rows")
        return tuple(int(x) % p for row in rows for x in row)

    def to_rows(self, g: Mat) -> list[list[int]]:
        n = self.n
        return [list(g[i * n : i * n + n]) for i in range(n)]

    def check_member(self, g: Mat) -> Mat:
        """Validate shape, canonical entries, and unit determinant."""
        n = self.n
        if len(g) != n * n:
            raise ValueError(f"expected flat tuple of length {n * n}")
        if any(not (0 <= x < self.p) for x in g):
            raise ValueError("entries must be canonical ints in [0, p)")
        if self.det(g) != 1:
            raise NotInGroup(f"determinant {self.det(g)} != 1")
        return g

    def order(self) -> int:
        """|SL_n(F_p)| = p^(n(n-1)/2) * prod_{i=2..n} (p^i - 1)."""
        n, p = self.n, self.p
        size = p ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            size *= p**i - 1
        return size

    # -- scalar extraction ------------------------------------------------

    def trace(self, g: Mat) -> int:
        n = self.n
        return sum(g[i * n + i] for i in range(n)) % self.p

    def trace_product(self, a: Mat, b: Mat) -> int:
        """tr(a @ b) without forming the product."""
        n = self.n
        s = 0
        for i in range(n):
            arow = a[i * n : i * n + n]
            for k in range(n):
                s += arow[k] * b[k * n + i]
        return s % self.p

    def det(self, g: Mat) -> int:
        p = self.p
        if self.n == 2:
            return (g[0] * g[3] - g[1] * g[2]) % p
        if self.n == 3:
            return (
                g[0] * (g[4] * g[8] - g[5] * g[7])
                - g[1] * (g[3] * g[8] - g[5] * g[6])
                + g[2] * (g[3] * g[7] - g[4] * g[6])
            ) % p
        return linalg.det_mod(self.to_rows(g), self.field)

    # -- products, inverses, powers ---------------------------------------

    def inv(self, g: Mat) -> Mat:
        n, p, field = self.n, self.p, self.field
        if n == 2:
            d = (g[0] * g[3] - g[1] * g[2]) % p
            if d == 0:
                raise SingularMatrix("determinant is zero")
            di = field.inv(d)
            return (
                (g[3] * di) % p,
                (-g[1] * di) % p,
                (-g[2] * di) % p,
                (g[0] * di) % p,
            )
        # Gauss-Jordan on [g | I]
        ident = self._identity
        m, pivots, _ = linalg.row_reduce(
            [g[i * n : i * n + n] + ident[i * n : i * n + n] for i in range(n)],
            field, width=n, jordan=True,
        )
        if len(pivots) < n:
            raise SingularMatrix("determinant is zero")
        return tuple(x for row in m for x in row[n:])

    def power_list(self, g: Mat, top: int) -> list[Mat]:
        """[I, g, g^2, ..., g^top] by repeated multiplication."""
        out = [self._identity]
        for _ in range(top):
            out.append(self.mul(out[-1], g))
        return out

    # -- characteristic polynomials -----------------------------------------

    def char_poly_full(self, g: Mat) -> list[int]:
        """Coefficients of det(xI - g), lowest degree first, monic.  At
        n >= 4 they come from the power traces of power_list(g, n)."""
        n, p = self.n, self.p
        if n == 2:
            return [(g[0] * g[3] - g[1] * g[2]) % p, (-(g[0] + g[3])) % p, 1]
        if n == 3:
            e1 = (g[0] + g[4] + g[8]) % p
            e2 = (
                g[0] * g[4]
                - g[1] * g[3]
                + g[0] * g[8]
                - g[2] * g[6]
                + g[4] * g[8]
                - g[5] * g[7]
            ) % p
            e3 = self.det(g)
            return [(-e3) % p, e2, (-e1) % p, 1]
        # Newton's identities on power traces; valid since p > n
        powers = self.power_list(g, n)
        ptr = [self.trace(powers[i]) for i in range(n + 1)]
        es = [1] + [0] * n
        field = self.field
        for k in range(1, n + 1):
            acc = 0
            sign = 1
            for i in range(1, k + 1):
                acc += sign * es[k - i] * ptr[i]
                sign = -sign
            es[k] = (acc * field.inv(k)) % p
        coeffs = [0] * (n + 1)
        coeffs[n] = 1
        sign = -1
        for k in range(1, n + 1):
            coeffs[n - k] = (sign * es[k]) % p
            sign = -sign
        return coeffs

    def char_poly(self, g: Mat):
        """The conjugation invariant (a_{n-1}, ..., a_1) read off
        det(xI - g) = x^n + a_{n-1} x^(n-1) + ... + a_1 x + (-1)^n.

        Requires det(g) = 1; anything else raises NotInGroup.
        """
        n, p = self.n, self.p
        coeffs = self.char_poly_full(g)
        if coeffs[0] != (-1) ** n % p:
            raise NotInGroup("characteristic constant term shows det != 1")
        return tuple(coeffs[n - 1 - j] for j in range(n - 1))

    # -- semisimplicity ----------------------------------------------------

    def classify_semisimple(self, g: Mat) -> SemisimplicityClass:
        """Regular when chi = det(xI - g) is squarefree; otherwise
        semisimple iff rad(chi)(g) = 0.  Over the perfect field F_p, g is
        semisimple iff its minimal polynomial is squarefree, iff that
        polynomial, which divides chi and has its irreducible factors,
        divides rad(chi) (Humphreys, Linear Algebraic Groups, 15.1).
        tracelab._semisimple applies the same rule per class in numpy.
        No subcommand calls this per-element reference; perfbench/kernels.py
        times it.
        """
        rad = polys.radical(self.char_poly_full(g), self.field)
        if rad is None:
            return SemisimplicityClass.REGULAR_SEMISIMPLE
        n, p = self.n, self.p
        value = self._identity
        for c in rad[-2::-1]:  # Horner from the monic top: deg rad <= n - 1 products
            value = list(self.mul(value, g))
            for i in range(0, n * n, n + 1):
                value[i] = (value[i] + c) % p
        if any(value):
            return SemisimplicityClass.NOT_SEMISIMPLE
        return SemisimplicityClass.SEMISIMPLE_NOT_REGULAR

    def is_regular_semisimple(self, g: Mat) -> bool:
        return polys.is_squarefree(self.char_poly_full(g), self.field)

    def require_regular(self, g: Mat, what: str) -> list[int]:
        """char_poly_full(g), after checking that g is regular semisimple
        (squarefree charpoly); InvalidWitness otherwise."""
        full = self.char_poly_full(g)
        if not polys.is_squarefree(full, self.field):
            raise InvalidWitness(f"{what} needs a regular semisimple witness")
        return full

    def require_split(self, g: Mat, what: str) -> list[int]:
        """split_eigenvalues(g), after checking that g is regular
        semisimple (InvalidWitness) and split over F_p (UnsupportedTorus)."""
        eigs = self.split_eigenvalues(g)
        if eigs is None:
            if not self.is_regular_semisimple(g):
                raise InvalidWitness(f"{what} needs a regular semisimple witness")
            raise UnsupportedTorus(
                f"{what} needs a split witness "
                "(characteristic polynomial with n rational roots)"
            )
        return eigs

    def split_eigenvalues(self, g: Mat) -> Optional[list[int]]:
        """Eigenvalues sorted ascending as ints when g is split regular
        semisimple (n distinct rational roots); None otherwise.  A monic
        degree-n charpoly with n distinct roots is already squarefree."""
        roots = polys.rational_roots(self.char_poly_full(g), self.field)
        if len(roots) != self.n:
            return None
        return roots

    # -- canonical bytes ----------------------------------------------------

    def encode(self, g: Mat) -> bytes:
        """Row-major bytes, one byte per entry for p < 256, else two
        (big-endian).  Injective on canonical matrices; decode inverts."""
        if self._entry_width == 1:
            return bytes(g)
        out = bytearray()
        for x in g:
            out.append(x >> 8)
            out.append(x & 0xFF)
        return bytes(out)

    def decode(self, data: bytes) -> Mat:
        """Inverse of encode, with its length and range checked: reads
        the hex lines of an expand dump back into matrices."""
        n, w = self.n, self._entry_width
        if len(data) != n * n * w:
            raise ValueError(f"expected {n * n * w} bytes, got {len(data)}")
        if w == 1:
            entries = tuple(data)
        else:
            entries = tuple(
                (data[2 * i] << 8) | data[2 * i + 1] for i in range(n * n)
            )
        if any(x >= self.p for x in entries):
            raise ValueError("entry out of range for the field")
        return entries

    def kappa_hex(self, kappa: tuple) -> str:
        """Stable hex rendering of an invariant tuple (same entry width
        as encode)."""
        return self.encode(kappa).hex()

    # -- sampling ------------------------------------------------------------

    def random_element(self, rng) -> Mat:
        """Uniform element: random invertible matrix, then the last
        column is scaled by 1/det (column reduction to determinant one).
        The per-call reference for elements(rng), which draws the same
        stream in blocks."""
        n, p = self.n, self.p
        while True:
            entries = [rng.randrange(p) for _ in range(n * n)]
            d = self.det(tuple(entries))
            if d:
                break
        di = self.field.inv(d)
        for i in range(n):
            entries[i * n + n - 1] = (entries[i * n + n - 1] * di) % p
        return tuple(entries)

    def elements(self, rng):
        """Endless stream of (g, char_poly_full(g)): the elements that
        repeated random_element(rng) calls return, in the same order.
        The stream draws ahead of what it yields: give it a generator
        that nothing else reads."""
        n = self.n
        for mats, coeffs in self._element_blocks(rng, SPLIT_BLOCK):
            yield from zip(map(tuple, mats.reshape(-1, n * n).tolist()), coeffs.tolist())

    def split_regulars(self, rng):
        """Endless stream of (g, eigenvalues sorted ascending) for split
        regular semisimple g: the elements that repeated
        random_element(rng) calls filtered by split_eigenvalues yield.

        A candidate splits iff its charpoly, evaluated at every x through
        powers[k, x] = x^k mod p, has n zeros; one matmul classifies a
        block.  The stream draws ahead of what it yields: give it a
        generator that nothing else reads.  Raises ValueError after
        SPLIT_MAX_TRIES candidates in a row are rejected.
        """
        n, p = self.n, self.p
        block = min(SPLIT_BLOCK, SPLIT_SCAN_ENTRIES // p)
        powers = np.ones((n + 1, p), dtype=np.int64)  # x^k mod p, every x
        for k in range(1, n + 1):
            powers[k] = powers[k - 1] * np.arange(p) % p
        misses = 0
        for mats, coeffs in self._element_blocks(rng, block):
            values = np.matmul(coeffs, powers)
            values %= p
            roots = values == 0
            split = roots.sum(axis=1) == n
            found = zip(map(tuple, mats.reshape(-1, n * n)[split].tolist()),
                        (np.flatnonzero(row).tolist() for row in roots[split]))
            for ok in split.tolist():
                if ok:
                    misses = 0
                    yield next(found)
                    continue
                misses += 1
                if misses == SPLIT_MAX_TRIES:
                    # SL_2(F_3), for one, has no split regular element
                    raise ValueError("no split regular element found; field too small?")

    def _element_blocks(self, rng, block: int):
        """Endless stream of (mats, charpolys), random_element's draws
        in bulk.  Each block of block*n*n consecutive rng.randrange(p)
        values, read from whole generator words by
        draws.randrange_runs, is cut into n x n chunks; the chunks with
        det != 0 (random_element draws singular ones again), their last
        column scaled by 1/det, form the int64 stack mats, and
        charpolys holds their char_poly_batch rows."""
        # imported here, so that only the runs that sample load it
        from .draws import randrange_runs

        n, p = self.n, self.p
        for draws in randrange_runs(rng, p, block * n * n):
            mats = np.array(draws, dtype=np.int64).reshape(-1, n, n)
            det = char_poly_batch(mats, p)[:, 0] * (-1) ** n % p
            mats = mats[det != 0]
            scale = [self.field.inv(d) for d in det[det != 0].tolist()]
            mats[:, :, n - 1] = mats[:, :, n - 1] * np.array(scale, dtype=np.int64)[:, None] % p
            yield mats, char_poly_batch(mats, p)
