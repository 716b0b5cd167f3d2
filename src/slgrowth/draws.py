"""Exact bulk draws from a seeded random.Random.

For 0 < n < 2^32, random.Random._randbelow(n) takes the top
n.bit_length() bits of one 32-bit Mersenne-Twister word per try and
rejects values >= n, and getrandbits(32*m) returns the next m words,
the first in the lowest bits.  Two readers apply that rule in bulk:

- WordReader reads the words in numpy chunks and returns what
  randrange, randint and sample(range(n), k) would, value for value;
  close() leaves the generator where those calls would have left it.
- randrange_runs yields what consecutive randrange(n) calls return, in
  lists of a fixed length.  It filters the words without numpy, because
  the ufunc code a numpy filter loads costs the element stream
  (SpecialLinear.elements and split_regulars), its one caller, more
  peak memory than the filter saves.  It reads ahead and never rewinds.
"""

from __future__ import annotations

import struct
from math import ceil, log
from random import Random
from typing import Iterator

import numpy as np

CHUNK_WORDS = 4096


class WordReader:
    """The stdlib's bounded draws, read from the words of one Random.

    It reads ahead, so nothing else may draw from the generator until
    close() (or the end of a with block) rewinds it.
    """

    def __init__(self, rng: Random):
        self._rng = rng
        self._state = None  # the generator's state before the last chunk
        self._chunk = np.zeros(0, dtype="<u4")
        self._pos = 0  # words of the last chunk read so far

    def __enter__(self) -> "WordReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Rewind the generator to just after the words read."""
        if self._state is not None:
            self._rng.setstate(self._state)
            self._rng.getrandbits(32 * self._pos)
            self._state = None

    def _window(self, size: int) -> np.ndarray:
        """Up to `size` unread words, refilling when the chunk is spent."""
        if self._pos == len(self._chunk):
            self._state = self._rng.getstate()
            data = self._rng.getrandbits(32 * CHUNK_WORDS).to_bytes(4 * CHUNK_WORDS, "little")
            self._chunk = np.frombuffer(data, dtype="<u4")
            self._pos = 0
        return self._chunk[self._pos : self._pos + size]

    def randrange(self, n: int) -> int:
        """rng.randrange(n)."""
        shift = _shift(n)
        while True:
            window = self._window(4).tolist()
            for used, word in enumerate(window, 1):
                if word >> shift < n:
                    self._pos += used
                    return word >> shift
            self._pos += len(window)

    def randint(self, a: int, b: int) -> int:
        """rng.randint(a, b)."""
        return a + self.randrange(b - a + 1)

    def sample(self, n: int, k: int) -> list[int]:
        """rng.sample(range(n), k)."""
        if not 0 <= k <= n:
            raise ValueError("Sample larger than population or is negative")
        setsize = 21  # the stdlib's rule for a list pool against a set
        if k > 5:
            setsize += 4 ** ceil(log(k * 3, 4))
        if n <= setsize:
            pool = list(range(n))
            out = []
            for i in range(k):
                j = self.randrange(n - i)
                out.append(pool[j])
                pool[j] = pool[n - i - 1]
            return out
        # the first k distinct accepted values, in order
        shift = _shift(n)
        selected = {}
        while True:
            values = self._window(2 * (k - len(selected)) + 8) >> shift
            kept = np.flatnonzero(values < n)
            accepted = values[kept].tolist()
            selected.update(dict.fromkeys(accepted))
            if len(selected) >= k:
                out = list(selected)[:k]
                if out:
                    self._pos += int(kept[accepted.index(out[-1])]) + 1
                return out
            self._pos += len(values)


def randrange_runs(rng: Random, n: int, size: int) -> Iterator[list[int]]:
    """Endless stream of lists of `size` ints: what consecutive
    rng.randrange(n) calls return, in order.

    Each refill reads about the words the missing values need, in one
    getrandbits call, and carries what a list does not take into the
    next.  For n < 256 every value is the top byte of its word shifted
    right, so one bytes.translate maps those bytes to values and drops
    the rejected ones; wider n shift and filter each word in a list
    comprehension.  It reads ahead of what it yields, so give it a
    generator that nothing else reads.
    """
    shift = _shift(n)
    if shift >= 24:  # n < 256
        value = bytes(b >> (shift - 24) for b in range(256))
        rejected = bytes(b for b in range(256) if value[b] >= n)
    held: list[int] = []
    while True:
        while len(held) < size:
            m = ((size - len(held)) << (32 - shift)) // n + 1
            data = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
            if shift >= 24:
                held += data[3::4].translate(value, rejected)
            else:
                held += [v for w in struct.unpack(f"<{m}I", data) if (v := w >> shift) < n]
        yield held[:size]
        del held[:size]


def _shift(n: int) -> int:
    if not 0 < n < 1 << 32:
        raise ValueError(f"bound {n} outside 1..2^32 - 1")
    return 32 - n.bit_length()
