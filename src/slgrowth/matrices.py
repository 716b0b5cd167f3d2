"""Exact matrix arithmetic for SL_n(F_p).

A matrix is a flat row-major tuple of n*n canonical ints, so it hashes
fast and goes straight into sets and dict keys.  SpecialLinear carries
the ambient (n, p) plus its kernels; the experiment hypotheses p odd
and p > n are enforced here, once, at setup.  One kernel, generated per
(n, p), forms every product, and Newton's identities live only in
char_poly_batch.  Nothing here row-reduces: when p > n every
determinant and inverse follows from the characteristic polynomial,
det(g) = (-1)^n chi_g(0), and g^-1 by Cayley-Hamilton.
"""

from __future__ import annotations

import enum
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from . import polys
from .errors import InvalidWitness, NotInGroup, SingularMatrix, UnsupportedTorus
from .field import PrimeField

Mat = tuple  # flat row-major tuple of ints, length n*n

# candidates drawn per block of SpecialLinear._element_blocks, whose
# determinants and charpolys one char_poly_batch call each finds; at
# 1024 or 2048 the lemma-check run's peak RSS rose 0.6 or 2.1 MB for no
# time gain
ELEMENT_BLOCK = 512
# rows per slice of a drawn block: split_regulars classifies one slice
# at a time against a (rows, p) root table, at most SPLIT_BLOCK rows
# (512 rows cost the lemma-check run 0.9 MB more peak RSS) and at most
# SPLIT_SCAN_ENTRIES entries at a wide p; elements turns one SPLIT_BLOCK
# slice at a time into tuples
SPLIT_BLOCK = 64
SPLIT_SCAN_ENTRIES = 1 << 20
# rejected candidates in a row after which split_regulars gives up
SPLIT_MAX_TRIES = 20_000


class SemisimplicityClass(enum.Enum):
    REGULAR_SEMISIMPLE = "REGULAR_SEMISIMPLE"
    SEMISIMPLE_NOT_REGULAR = "SEMISIMPLE_NOT_REGULAR"
    NOT_SEMISIMPLE = "NOT_SEMISIMPLE"


def _make_mul(n: int, p: int):
    """The product kernel of SL_n(F_p): one straight-line function mul<n>,
    generated for this (n, p), that unpacks both flat tuples into locals
    and returns the n*n row-by-column sums mod p."""
    a = ", ".join(f"a{i}" for i in range(n * n))
    sums = ", ".join(f"({' + '.join(f'a{i + k} * b{k * n + j}' for k in range(n))}) % p"
                     for i in range(0, n * n, n) for j in range(n))
    source = f"def mul{n}(a, b):\n {a}, = a\n {a.replace('a', 'b')}, = b\n return {sums},\n"
    namespace = {"p": p}
    exec(compile(source, f"<mul{n}>", "exec"), namespace)
    return namespace[f"mul{n}"]


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
        power = np.matmul(power, mats)
        power %= p  # in place: a step holds three stacks, not four
        ptr.append(power.trace(axis1=-2, axis2=-1) % p)
    coeffs = np.empty(mats.shape[:-2] + (n + 1,), dtype=np.int64)
    coeffs[..., n] = 1
    es = [1]  # elementary symmetric functions of the eigenvalues
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * es[k - i] * ptr[i] for i in range(1, k + 1))
        es.append(acc % p * pow(k, -1, p) % p)
        coeffs[..., n - k] = (-1) ** k * es[k] % p
    return coeffs


def compound_batches(mats: np.ndarray, p: int) -> list:
    """The compounds L_1(g), ..., L_n(g) of every g of an int64 stack
    (..., n, n) with entries in [0, p).  Entry [I, J] of L_j(g) is the
    minor det g[I, J] mod p, the j-sets in combinations order, expanded
    along the first row of I over the (j-1)-minors.  By Cauchy-Binet
    L_j is multiplicative, and its trace is e_j."""
    n = mats.shape[-1]
    out = [mats]
    index = {(i,): i for i in range(n)}  # (j-1)-set -> its place
    for j in range(2, n + 1):
        sets = list(combinations(range(n), j))
        first = np.array([s[0] for s in sets])[:, None]
        rest = np.array([index[s[1:]] for s in sets])[:, None]
        total = 0
        for k in range(j):  # (-1)^k g[i_0, J_k] det g[I - i_0, J - J_k]
            term = (mats[..., first, [s[k] for s in sets]]
                    * out[-1][..., rest, [index[s[:k] + s[k + 1 :]] for s in sets]])
            total = total - term if k % 2 else total + term
        out.append(total % p)
        index = {s: a for a, s in enumerate(sets)}
    return out


def inv_batch(mats: np.ndarray, coeffs: np.ndarray, p: int) -> np.ndarray:
    """g^-1 for every g of an int64 stack (m, n, n) with entries in
    [0, p), from coeffs, its char_poly_batch rows: SpecialLinear.inv's
    Cayley-Hamilton rule, its bracket g^(n-1) + a_{n-1} g^(n-2) + ...
    + a_1 I by Horner in n - 2 matmuls.  SingularMatrix when some a_0 = 0."""
    n = mats.shape[-1]
    scale = [p - pow(a, -1, p) if a else None for a in coeffs[:, 0].tolist()]
    if None in scale:
        raise SingularMatrix("determinant is zero")
    diag = np.arange(n)
    value = mats.copy()
    for k in range(n - 1, 0, -1):
        if k < n - 1:
            value = np.matmul(value, mats) % p
        value[:, diag, diag] += coeffs[:, k, None]
    return value % p * np.array(scale, dtype=np.int64)[:, None, None] % p


def space_field(n: int, p: int | PrimeField) -> PrimeField:
    """The field of SL_n(F_p), once the experiment hypotheses hold:
    entries of at most two bytes, p an odd prime, n >= 2 and p > n.
    It builds no kernel, so a config is checked at any n."""
    # before PrimeField, whose trial division would hang on a wide p
    if (p.p if isinstance(p, PrimeField) else p) > 0xFFFF:
        raise ValueError("entries wider than two bytes are unsupported")
    field = p if isinstance(p, PrimeField) else PrimeField(p)
    if n < 2:
        raise ValueError(f"matrix size n={n} must be at least 2")
    if field.p == 2:
        raise ValueError("experiments require an odd prime modulus")
    if field.p <= n:
        raise ValueError(f"experiments require p > n, got p={field.p}, n={n}")
    return field


class SpecialLinear:
    """Ambient context for SL_n(F_p) with its exact matrix operations."""

    __slots__ = ("n", "p", "field", "mul", "_identity", "_entry_width")

    def __init__(self, n: int, p: int | PrimeField):
        field = space_field(n, p)
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
        """det(g) = (-1)^n chi_g(0), from char_poly_full."""
        return (-1) ** self.n * self.char_poly_full(g)[0] % self.p

    # -- products, inverses, powers ---------------------------------------

    def inv(self, g: Mat) -> Mat:
        """g^-1 by Cayley-Hamilton: with det(xI - g) = x^n + a_{n-1} x^(n-1)
        + ... + a_1 x + a_0, g^-1 = -(g^(n-1) + a_{n-1} g^(n-2) + ... + a_1 I)
        / a_0; inv_batch applies the same rule to a stack.  SingularMatrix
        when a_0 = 0, that is when det(g) = 0."""
        full = self.char_poly_full(g)
        if full[0] == 0:
            raise SingularMatrix("determinant is zero")
        p = self.p
        scale = p - self.field.inv(full[0])
        return tuple(x * scale % p for x in self._horner(full[1:], g))

    def _horner(self, coeffs: list[int], g: Mat) -> list[int]:
        """f(g) as a flat list, for the monic f with coefficients `coeffs`,
        lowest degree first: Horner from the top, deg f products."""
        n, p = self.n, self.p
        value = self._identity
        for c in coeffs[-2::-1]:
            value = list(self.mul(value, g))
            for i in range(0, n * n, n + 1):
                value[i] = (value[i] + c) % p
        return value

    def power_list(self, g: Mat, top: int) -> list[Mat]:
        """[I, g, g^2, ..., g^top] by repeated multiplication."""
        out = [self._identity]
        for _ in range(top):
            out.append(self.mul(out[-1], g))
        return out

    # -- characteristic polynomials -----------------------------------------

    def char_poly_full(self, g: Mat) -> list[int]:
        """Coefficients of det(xI - g), lowest degree first, monic: closed
        forms for n = 2 and 3, char_poly_batch of the one matrix past that.
        det and inv read theirs from here."""
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
            e3 = (
                g[0] * (g[4] * g[8] - g[5] * g[7])
                - g[1] * (g[3] * g[8] - g[5] * g[6])
                + g[2] * (g[3] * g[7] - g[4] * g[6])
            ) % p
            return [(-e3) % p, e2, (-e1) % p, 1]
        return char_poly_batch(np.array(g, dtype=np.int64).reshape(n, n), p).tolist()

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
        rad(chi)(g) comes from _horner, which inv shares.
        tracelab.shift_tables applies it per class in numpy.
        No subcommand calls this per-element reference; perfbench/kernels.py
        times it.
        """
        rad = polys.radical(self.char_poly_full(g), self.field)
        if rad is None:
            return SemisimplicityClass.REGULAR_SEMISIMPLE
        if any(self._horner(rad, g)):  # deg rad <= n - 1 products
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
        for mats, coeffs in self._element_blocks(rng):
            flat = mats.reshape(-1, n * n)
            for lo in range(0, len(flat), SPLIT_BLOCK):
                yield from zip(map(tuple, flat[lo : lo + SPLIT_BLOCK].tolist()),
                               coeffs[lo : lo + SPLIT_BLOCK].tolist())
            # dropped before the next block is drawn, which would hold
            # both at its peak; the same in split_regulars
            del mats, coeffs, flat

    def split_eigenvalues_batch(self, members: Sequence[Mat]) -> list[Optional[list[int]]]:
        """split_eigenvalues of each member, SPLIT_BLOCK at a time."""
        n, out = self.n, []
        for lo in range(0, len(members), SPLIT_BLOCK):
            mats = np.array(members[lo : lo + SPLIT_BLOCK], dtype=np.int64).reshape(-1, n, n)
            split, found = self._split_rows(char_poly_batch(mats, self.p))
            found = iter(found)
            out += [next(found) if ok else None for ok in split]
        return out

    def split_regulars(self, rng):
        """Endless stream of (g, eigenvalues sorted ascending) for split
        regular semisimple g: the elements that repeated
        random_element(rng) calls filtered by split_eigenvalues yield.
        The stream draws ahead of what it yields: give it a generator
        that nothing else reads.  Raises ValueError after SPLIT_MAX_TRIES
        candidates in a row are rejected.
        """
        misses = 0
        for mats, coeffs in self._element_blocks(rng):
            split, found = self._split_rows(coeffs)
            found = zip(map(tuple, mats.reshape(len(mats), -1)[split].tolist()), found)
            for ok in split:
                if ok:
                    misses = 0
                    yield next(found)
                    continue
                misses += 1
                if misses == SPLIT_MAX_TRIES:
                    # SL_2(F_3), for one, has no split regular element
                    raise ValueError("no split regular element found; field too small?")
            del mats, coeffs, found

    def _split_rows(self, coeffs: np.ndarray) -> tuple[list[bool], list[list[int]]]:
        """Whether each charpoly row of coeffs has n roots in F_p, and the
        roots, ascending, of each row that has: one matmul against
        x^k mod p per slice of min(SPLIT_BLOCK, SPLIT_SCAN_ENTRIES // p)
        rows."""
        n, p = self.n, self.p
        rows = min(SPLIT_BLOCK, SPLIT_SCAN_ENTRIES // p)
        powers = np.ones((n + 1, p), dtype=np.int64)
        for k in range(1, n + 1):
            powers[k] = powers[k - 1] * np.arange(p) % p
        split: list = []
        found: list = []
        for lo in range(0, len(coeffs), rows):
            values = np.matmul(coeffs[lo : lo + rows], powers)
            values %= p  # in place: the slice's largest array
            row, root = np.nonzero(values == 0)
            ok = np.bincount(row, minlength=len(values)) == n
            del values
            split += ok.tolist()
            found += root[ok[row]].reshape(-1, n).tolist()
        return split, found

    def _element_blocks(self, rng):
        """Endless stream of (mats, charpolys), random_element's draws
        in bulk.  Each block of ELEMENT_BLOCK*n*n consecutive
        rng.randrange(p) values, read from whole generator words by
        draws.randrange_runs, is cut into n x n chunks; the chunks with
        det != 0 (random_element draws singular ones again), their last
        column scaled by 1/det, form the int64 stack mats, and
        charpolys holds their char_poly_batch rows."""
        # imported here, so that only the runs that sample load it
        from .draws import randrange_runs

        n, p = self.n, self.p
        for draws in randrange_runs(rng, p, ELEMENT_BLOCK * n * n):
            mats = np.array(draws, dtype=np.int64).reshape(-1, n, n)
            del draws  # the one reference: randrange_runs keeps none
            det = char_poly_batch(mats, p)[:, 0] * (-1) ** n % p
            mats = mats[det != 0]
            scale = [self.field.inv(d) for d in det[det != 0].tolist()]
            mats[:, :, n - 1] = mats[:, :, n - 1] * np.array(scale, dtype=np.int64)[:, None] % p
            yield mats, char_poly_batch(mats, p)
