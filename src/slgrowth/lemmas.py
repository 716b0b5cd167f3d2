"""The lemma-check property suites, also driven by the acceptance tests;
apart from cli, so that the module every subcommand compiles stays small."""

from __future__ import annotations

from math import prod
from operator import mul
from random import Random

from .field import PrimeField
from .matrices import SpecialLinear
from .polys import is_squarefree
from .tracelab import f_from_char_poly, lindep_checks
from .vandermonde import (cyclic_product_coordinates, elementary_symmetric,
                          omit_one_dets, vandermonde_product)

SUITE_BLOCK = 32  # rows per omit_one_dets call; at 64, lemma-check's peak RSS rose


def vander_identity_suite(n: int, p: int, trials: int, rng: Random) -> tuple[int, int]:
    """Random (s, i) checks of the omit-one determinant identity: the
    batched charpoly determinant against the product recurrence."""
    fld = PrimeField(p)
    passes = 0
    for start in range(0, trials, SUITE_BLOCK):
        draws = [(tuple(rng.randrange(p) for _ in range(n)), rng.randrange(n + 1))
                 for _ in range(min(SUITE_BLOCK, trials - start))]
        dets = omit_one_dets([s for s, _ in draws], p).tolist()
        for (s, i), row in zip(draws, dets):
            closed = vandermonde_product(fld, s) * elementary_symmetric(fld, s, n - i)
            if row[i] == closed % p:
                passes += 1
    return passes, trials


def f_identity_suite(n: int, p: int, trials: int, rng: Random) -> tuple[int, int]:
    """Random (t, g) checks of the shifted-trace recursion: t is the next
    element of the seeded stream whose charpoly, which also gives f(t),
    is squarefree, and g the element after it.  Each trial builds the
    powers of t once."""
    space = SpecialLinear(n, p)
    stream = space.elements(rng)
    passes = 0
    for _ in range(trials):
        t, full = next((t, full) for t, full in stream if is_squarefree(full, space.field))
        g, _ = next(stream)
        if f_from_char_poly(space, full).predicts(space, space.power_list(t, n), g):
            passes += 1
    return passes, trials


def kappa_conjugation_suite(n: int, p: int, trials: int, rng: Random) -> tuple[int, int]:
    """Random (g, h) checks that the charpoly, and with it the invariant
    tuple, survives conjugation."""
    space = SpecialLinear(n, p)
    stream = space.elements(rng)
    passes = 0
    for _ in range(trials):
        (g, full), (h, _) = next(stream), next(stream)
        conj = space.mul(space.mul(h, g), space.inv(h))
        if space.char_poly_full(conj) == full:
            passes += 1
    return passes, trials


def lindep_suite(n: int, p: int, trials: int, rng: Random) -> tuple[int, int]:
    """Split regular witnesses: the omit-one subsets of the n+1 forms
    must be independent exactly when no e_m vanishes."""
    space = SpecialLinear(n, p)
    fld = space.field
    passes = 0
    witnesses = space.split_regulars(rng)
    for start in range(0, trials, SUITE_BLOCK):
        block = [next(witnesses)[1] for _ in range(min(SUITE_BLOCK, trials - start))]
        for eigs, independent in zip(block, lindep_checks(fld, block)):
            expected = all(elementary_symmetric(fld, eigs, m) for m in range(1, n))
            if independent == expected:
                passes += 1
    return passes, trials


def cyclic_nonvanishing_suite(n: int, p: int, trials: int,
                              rng: Random) -> tuple[int, int]:
    """Sampled vanishing rate of the omit-one determinants built from
    cyclic window products of product-one coordinate vectors.  Returns
    (zero determinants seen, determinants evaluated) over every window
    length L = 1..n-1.

    Only L <= n/2 is evaluated, and each L < n/2 counts twice.  This is
    exact: prod r = 1, so the window of length n-L is a cyclic shift of
    the reciprocals of window L, and e_{n-i}(1/s) = e_i(s)/e_n(s) with
    V(1/s) = 0 iff V(s) = 0, so the omit-power-i determinant of 1/s
    vanishes iff the omit-power-(n-i) one of s does."""
    fld = PrimeField(p)
    lengths = range(1, n // 2 + 1)
    weights = [1 if 2 * length == n else 2 for length in lengths]
    failures = 0
    block = max(1, SUITE_BLOCK // len(lengths))  # len(lengths) windows per trial
    for start in range(0, trials, block):
        windows = []
        for _ in range(min(block, trials - start)):
            head = [rng.randrange(1, p) for _ in range(n - 1)]
            r = head + [fld.inv(prod(head) % p)]
            windows += [cyclic_product_coordinates(fld, r, k) for k in lengths]
        zeros = (omit_one_dets(windows, p) == 0).reshape(-1, len(lengths), n + 1)
        failures += sum(map(mul, weights, zeros.sum(axis=(0, 2)).tolist()))
    return failures, trials * (n - 1) * (n + 1)
