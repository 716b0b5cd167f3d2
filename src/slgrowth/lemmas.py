"""The lemma-check property suites, also driven by the acceptance tests;
apart from cli, so that the module every subcommand compiles stays small."""

from __future__ import annotations

from itertools import islice
from math import prod
from operator import mul
from random import Random

import numpy as np

from .field import PrimeField
from .matrices import SpecialLinear, char_poly_batch, inv_batch
from .polys import is_squarefree
from .tracelab import f_from_char_poly, lindep_checks
from .vandermonde import (cyclic_product_coordinates, elementary_symmetric,
                          omit_one_dets, vandermonde_product)

# rows per omit_one_dets or char_poly_batch call; at 64, lemma-check's peak RSS rose
SUITE_BLOCK = 32


def vander_identity_suite(n: int, p: int, trials: int, rng: Random,
                          tick=lambda done: None) -> tuple[int, int]:
    """Random (s, i) checks of the omit-one determinant identity: the
    batched charpoly determinant against the product recurrence.  In
    every suite here, tick(done) precedes each block, with the trials
    done so far."""
    fld = PrimeField(p)
    passes = 0
    for start in range(0, trials, SUITE_BLOCK):
        tick(start)
        draws = [(tuple(rng.randrange(p) for _ in range(n)), rng.randrange(n + 1))
                 for _ in range(min(SUITE_BLOCK, trials - start))]
        dets = omit_one_dets([s for s, _ in draws], p).tolist()
        for (s, i), row in zip(draws, dets):
            closed = vandermonde_product(fld, s) * elementary_symmetric(fld, s, n - i)
            if row[i] == closed % p:
                passes += 1
    return passes, trials


def f_identity_suite(n: int, p: int, trials: int, rng: Random,
                     tick=lambda done: None) -> tuple[int, int]:
    """Random (t, g) checks of the shifted-trace recursion
    tr(t^n g) = sum_k r_k tr(t^k g): t is the next element of the seeded
    stream whose charpoly, which also gives f(t) = (r_0, ..., r_{n-1}),
    is squarefree, and g the element after it.  A block of triples
    (t, f(t), g) takes its traces tr(t^k g), k = 0..n, from n batched
    matmuls."""
    space = SpecialLinear(n, p)
    stream = space.elements(rng)
    passes = 0
    for start in range(0, trials, SUITE_BLOCK):
        tick(start)
        triples = []
        for _ in range(min(SUITE_BLOCK, trials - start)):
            t, full = next((t, full) for t, full in stream if is_squarefree(full, space.field))
            triples.append((t, f_from_char_poly(space, full).coefficients, next(stream)[0]))
        t, r, g = (np.array(column, dtype=np.int64) for column in zip(*triples))
        t = t.reshape(-1, n, n)
        shifted = g.reshape(-1, n, n)  # t^k g
        traces = [shifted.trace(axis1=1, axis2=2)]
        for _ in range(n):
            shifted = np.matmul(t, shifted) % p
            traces.append(shifted.trace(axis1=1, axis2=2))
        rhs = sum(r[:, k] * traces[k] for k in range(n))
        passes += int((traces[n] % p == rhs % p).sum())
    return passes, trials


def kappa_conjugation_suite(n: int, p: int, trials: int, rng: Random,
                            tick=lambda done: None) -> tuple[int, int]:
    """Random (g, h) checks that the charpoly, and with it the invariant
    tuple, survives conjugation: g and h are consecutive elements of the
    seeded stream, and a block's conjugates h g h^-1 are formed in numpy,
    each h^-1 by inv_batch from the charpoly that the stream yields with
    h, and read by one char_poly_batch call."""
    space = SpecialLinear(n, p)
    stream = space.elements(rng)
    passes = 0
    for start in range(0, trials, SUITE_BLOCK):
        tick(start)
        items = list(islice(stream, 2 * min(SUITE_BLOCK, trials - start)))
        mats = np.array([m for m, _ in items], dtype=np.int64).reshape(-1, 2, n, n)
        coeffs = np.array([full for _, full in items], dtype=np.int64).reshape(-1, 2, n + 1)
        g, h = mats[:, 0], mats[:, 1]
        conjs = np.matmul(np.matmul(h, g) % p, inv_batch(h, coeffs[:, 1], p)) % p
        got = char_poly_batch(conjs, p)
        # counted like lindep_checks' zeros: an .all() paged in more of numpy
        passes += int(((got != coeffs[:, 0]).sum(axis=1) == 0).sum())
    return passes, trials


def lindep_suite(n: int, p: int, trials: int, rng: Random,
                 tick=lambda done: None) -> tuple[int, int]:
    """Split regular witnesses: the omit-one subsets of the n+1 forms
    must be independent exactly when no e_m vanishes."""
    space = SpecialLinear(n, p)
    fld = space.field
    passes = 0
    witnesses = space.split_regulars(rng)
    for start in range(0, trials, SUITE_BLOCK):
        tick(start)
        block = [next(witnesses)[1] for _ in range(min(SUITE_BLOCK, trials - start))]
        for eigs, independent in zip(block, lindep_checks(fld, block)):
            expected = all(elementary_symmetric(fld, eigs, m) for m in range(1, n))
            if independent == expected:
                passes += 1
    return passes, trials


def cyclic_nonvanishing_suite(n: int, p: int, trials: int, rng: Random,
                              tick=lambda done: None) -> tuple[int, int]:
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
        tick(start)
        windows = []
        for _ in range(min(block, trials - start)):
            head = [rng.randrange(1, p) for _ in range(n - 1)]
            r = head + [fld.inv(prod(head) % p)]
            windows += [cyclic_product_coordinates(fld, r, k) for k in lengths]
        zeros = (omit_one_dets(windows, p) == 0).reshape(-1, len(lengths), n + 1)
        failures += sum(map(mul, weights, zeros.sum(axis=(0, 2)).tolist()))
    return failures, trials * (n - 1) * (n + 1)
