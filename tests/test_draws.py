"""WordReader and randrange_runs against the stdlib calls they stand in for.

Each test draws from two generators seeded alike, one through the
stdlib's own randrange/randint/sample and one through a bulk reader, and
compares every value and, for WordReader after close, the generator
states.  The readers re-implement CPython's algorithm (top bits of one
32-bit word per try, sample's setsize rule between its pool and set
branches), so a change to that algorithm in a later Python shows up
here first.
"""

import itertools
from math import ceil, log
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from slgrowth.draws import CHUNK_WORDS, WordReader, randrange_runs

# 1..3, both sides of powers of two (all rejection rates), desk primes
BOUNDS = [1, 2, 3, 7, 8, 9, 127, 128, 129, 255, 256, 257, 10007, 65521,
          (1 << 31) - 1, 1 << 31, (1 << 31) + 1, (1 << 32) - 1]


def setsize(k):
    """The stdlib's cut: sample uses its list pool when n <= setsize."""
    return 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)


def assert_same_state(stdlib, reader_rng, reader):
    reader.close()
    assert reader_rng.getstate() == stdlib.getstate()


@pytest.mark.parametrize("n", BOUNDS)
def test_randrange_and_randint_match(n):
    for seed in (0, 1, 2):
        want, got = Random(seed), Random(seed)
        reader = WordReader(got)
        for _ in range(300):
            assert reader.randrange(n) == want.randrange(n)
            assert reader.randint(-5, n - 6) == want.randint(-5, n - 6)
        assert_same_state(want, got, reader)


@pytest.mark.parametrize("n", BOUNDS)
def test_randrange_array_matches(n):
    """A run of randrange calls gives the stdlib's ints, from a single
    draw to one that crosses three chunk refills (each call reads a word
    or more), and leaves the generator where the stdlib's calls do."""
    for seed, count in ((0, 1), (1, 1000), (2, 3 * CHUNK_WORDS + 5)):
        want, got = Random(seed), Random(seed)
        with WordReader(got) as reader:
            values = [reader.randrange(n) for _ in range(count)]
        assert all(type(v) is int for v in values)
        assert values == [want.randrange(n) for _ in range(count)]
        assert got.getstate() == want.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 101, 128, 129, 255, 256, 257, 65521,
                               (1 << 31) - 1, (1 << 32) - 1])
def test_randrange_runs_match(n):
    """Every list, whatever its length, holds the next values of
    repeated randrange(n) calls: lists of one value refill on almost
    every call, and the longer ones carry leftovers across many
    getrandbits refills.  n <= 255 takes the top-byte path, n >= 256
    the word path."""
    for seed, size, lists in ((0, 1, 50), (1, 7, 40), (2, 1024, 12), (3, 5000, 3)):
        want = Random(seed)
        runs = randrange_runs(Random(seed), n, size)
        for _ in range(lists):
            got = next(runs)
            assert all(type(v) is int for v in got)
            assert got == [want.randrange(n) for _ in range(size)]


def test_randrange_runs_refuse_bounds_outside_one_word():
    for n in (0, -1, 1 << 32):
        with pytest.raises(ValueError):
            next(randrange_runs(Random(0), n, 4))


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 101, 1009, 10007, 65521])
def test_sample_matches_on_both_branches(n):
    """k runs over 0..n where n is small; otherwise over the values that
    put sample on either side of its setsize cut, and k = n."""
    if n <= 101:
        ks = range(n + 1)
    else:
        ks = [0, 1, 5, 6, 60, 300, n // 12, n // 3, n - 1, n]
    for seed, k in itertools.product((0, 3), ks):
        want, got = Random(seed), Random(seed)
        reader = WordReader(got)
        for _ in range(3 if n <= 1009 else 1):
            assert reader.sample(n, k) == want.sample(range(n), k)
        assert_same_state(want, got, reader)


def test_sample_reaches_both_branches():
    """The cases above do cross the cut: n > setsize(k) takes the set
    branch, n <= setsize(k) the pool branch, both for k = 5 and k = 6."""
    assert setsize(5) == 21 and setsize(6) == 85
    assert 1009 > setsize(60) and 101 <= setsize(40)
    assert 10007 > setsize(300) and 10007 <= setsize(10007 // 3)
    assert 33 > setsize(5) and 33 <= setsize(6)


def test_sample_rejects_bad_k():
    reader = WordReader(Random(0))
    for k in (-1, 11):
        with pytest.raises(ValueError):
            reader.sample(10, k)
    reader.close()


def test_bounds_outside_one_word_are_refused():
    reader = WordReader(Random(0))
    for n in (0, -1, 1 << 32):
        with pytest.raises(ValueError):
            reader.randrange(n)
    reader.close()


def test_interleaved_calls_match():
    """Calls of every kind in one stream, crossing chunk boundaries."""
    want, got = Random(11), Random(11)
    reader = WordReader(got)
    for i in range(400):
        assert reader.randint(1, 300) == want.randint(1, 300)
        assert reader.sample(10007, i % 300) == want.sample(range(10007), i % 300)
        assert reader.randrange(2) == want.randrange(2)
        assert reader.sample(101, i % 60) == want.sample(range(101), i % 60)
    assert_same_state(want, got, reader)


def test_close_without_draws_leaves_the_state_alone():
    rng = Random(5)
    state = rng.getstate()
    with WordReader(rng):
        pass
    assert rng.getstate() == state
    # and a closed reader may be closed again
    reader = WordReader(rng)
    reader.randrange(7)
    reader.close()
    after = rng.getstate()
    reader.close()
    assert rng.getstate() == after


CALLS = st.one_of(
    st.tuples(st.just("randrange"), st.integers(1, (1 << 32) - 1)),
    st.tuples(st.just("randint"), st.integers(-50, 50), st.integers(0, 70_000)),
    st.tuples(st.just("sample"), st.integers(1, 70_000), st.floats(0, 1)),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64), calls=st.lists(CALLS, max_size=25))
def test_random_call_sequences_match(seed, calls):
    want, got = Random(seed), Random(seed)
    reader = WordReader(got)
    for call in calls:
        kind = call[0]
        if kind == "randrange":
            assert reader.randrange(call[1]) == want.randrange(call[1])
        elif kind == "randint":
            a, b = call[1], call[1] + call[2]
            assert reader.randint(a, b) == want.randint(a, b)
        else:
            n, k = call[1], min(call[1], int(call[2] * 2000))
            assert reader.sample(n, k) == want.sample(range(n), k)
    assert_same_state(want, got, reader)
