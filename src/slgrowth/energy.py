"""Additive energy over Z/pZ.

E_+(X, Y) counts quadruples (a, b, a', b') in X x Y x X x Y with
a - b = a' - b' mod p, computed as sum_d r(d)^2 from the difference
table.  Only numpy is needed, so that an energy run loads no group
code; the trace/fiber instance that reuses this lives in vital.py.
"""

from __future__ import annotations

import numpy as np

_CHUNK_ENTRIES = 1 << 15  # cap on the live difference block, 256 KB


def additive_energy(xs, ys, p: int) -> tuple[int, np.ndarray]:
    """(sum_d r(d)^2, r) with r(d) = #{(a, b) in X x Y : a - b = d mod p},
    for X and Y given as int arrays of distinct residues in [0, p).

    r is the int64 difference-count vector of length p, so |X - Y| is
    its number of nonzero entries.  Each pair gives a + p - b in
    [1, 2p), which is d or d + p, so one bincount over 2p bins per
    block of at most _CHUNK_ENTRIES pairs, folded into r, needs no
    modulo per pair.  Counts stay far inside int64 at desk scale, so
    the energy is exact.  Empty inputs give (0, zeros(p)).
    """
    counts = np.zeros(p, dtype=np.int64)
    xs, ys = np.asarray(xs, dtype=np.int64), p - np.asarray(ys, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // max(1, len(ys)))
    for lo in range(0, len(xs), step):
        block = np.bincount((xs[lo : lo + step, None] + ys).ravel(), minlength=2 * p)
        counts += block[:p]
        counts += block[p:]
        del block  # before the next block's bincount allocates its own
    return int(np.dot(counts, counts)), counts


def dilate(xs, y: int, p: int) -> np.ndarray:
    """{y * x mod p : x in X} as a sorted int64 array; a bijection on X
    for y != 0 mod p."""
    return np.unique(np.asarray(xs, dtype=np.int64) * (y % p) % p)
