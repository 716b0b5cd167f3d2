"""Exact bulk draws from a seeded random.Random.

For 0 < n < 2^32, random.Random._randbelow(n) takes the top
n.bit_length() bits of one 32-bit Mersenne-Twister word per try and
rejects values >= n, and getrandbits(32*m) returns the next m words,
the first in the lowest bits.  WordReader reads the words in chunks and
filters them the same way, so it returns what randrange, randint and
sample(range(n), k) would, value for value, at a fraction of the cost.
close() leaves the generator where those calls would have left it.
"""

from __future__ import annotations

from math import ceil, log
from random import Random

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

    def randrange_array(self, n: int, count: int) -> np.ndarray:
        """[rng.randrange(n) for _ in range(count)] as an int64 array."""
        shift = _shift(n)
        parts = [np.zeros(0, dtype="<u4")]
        # a window of as many words as values still wanted is read whole
        while count:
            values = self._window(count) >> shift
            self._pos += len(values)
            parts.append(values[values < n])
            count -= len(parts[-1])
        return np.concatenate(parts).astype(np.int64)


def _shift(n: int) -> int:
    if not 0 < n < 1 << 32:
        raise ValueError(f"bound {n} outside 1..2^32 - 1")
    return 32 - n.bit_length()
