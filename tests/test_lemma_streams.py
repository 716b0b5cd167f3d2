"""Frozen sha256 digests of the seeded element streams lemma-check reads.

The suites' output rows count passes only, so they would read the same
if the (t, g) pairs of f-identity, the (g, h) pairs of
kappa-conjugation or the split witnesses of lindep changed.  These
digests freeze the first items of each stream, drawn one at a time by
the oracles in tests/oracles.py from the generator lemma-check gives
the suite at --n 4 --p 101 --seed 0, and check that the suites read
exactly those items.
"""

import hashlib

from slgrowth import SpecialLinear, cli, lemmas

from oracles import regular_semisimple, split_regular_oracle

N, P, SEED, COUNT = 4, 101, 0, 200


def suite_rng(suite):
    return cli.stream_rng(SEED, f"lemma:{suite}:{N}:{P}")


def digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def f_identity_pairs(space, rng, count):
    """(t, g): t the next regular semisimple element, g the one after."""
    return [(regular_semisimple(space, rng), space.random_element(rng))
            for _ in range(count)]


def kappa_conjugation_pairs(space, rng, count):
    return [(space.random_element(rng), space.random_element(rng))
            for _ in range(count)]


def lindep_witnesses(space, rng, count):
    return [split_regular_oracle(space, rng) for _ in range(count)]


F_IDENTITY = "9357dfa0247c99c8d010d9207bfb58d13a9b2492a7534bef9b3a02ba9ccbf5b9"
KAPPA_CONJUGATION = "5154e494bace12db76cacf55201176bf49188c7dee68a286455e5e6e7f14a762"
LINDEP = "3e0f1e56f640d0ec391385282dda29dd9c3fc894ba52138d260f98bf335dbf25"


def test_f_identity_stream_frozen():
    pairs = f_identity_pairs(SpecialLinear(N, P), suite_rng("f-identity"), COUNT)
    assert digest(pairs) == F_IDENTITY


def test_kappa_conjugation_stream_frozen():
    pairs = kappa_conjugation_pairs(SpecialLinear(N, P), suite_rng("kappa-conjugation"),
                                    COUNT)
    assert digest(pairs) == KAPPA_CONJUGATION


def test_lindep_stream_frozen():
    witnesses = lindep_witnesses(SpecialLinear(N, P), suite_rng("lindep"), COUNT)
    assert digest(witnesses) == LINDEP


def pulled_from(monkeypatch, name):
    """The items the code under test takes from SpecialLinear.<name>."""
    pulled = []
    method = getattr(SpecialLinear, name)

    def spy(self, rng):
        for item in method(self, rng):
            pulled.append(item)
            yield item

    monkeypatch.setattr(SpecialLinear, name, spy)
    return pulled


def test_f_identity_suite_reads_the_frozen_stream(monkeypatch):
    """The elements the suite pulls, read back into (t, g) pairs by the
    rule it states: t the next regular semisimple one, g the next."""
    pulled = pulled_from(monkeypatch, "elements")
    assert lemmas.f_identity_suite(N, P, COUNT, suite_rng("f-identity")) == (COUNT, COUNT)
    space = SpecialLinear(N, P)
    items = iter(g for g, _ in pulled)
    pairs = [(t, next(items)) for t in items if space.is_regular_semisimple(t)]
    assert digest(pairs) == F_IDENTITY


def test_kappa_conjugation_suite_reads_the_frozen_stream(monkeypatch):
    pulled = pulled_from(monkeypatch, "elements")
    assert (lemmas.kappa_conjugation_suite(N, P, COUNT, suite_rng("kappa-conjugation"))
            == (COUNT, COUNT))
    elements = [g for g, _ in pulled]
    assert digest(list(zip(elements[::2], elements[1::2]))) == KAPPA_CONJUGATION


def test_kappa_conjugation_suite_takes_no_per_element_charpoly(monkeypatch):
    """Each h^-1 comes from the charpoly the stream yields with h."""
    def refuse(self, g):
        raise AssertionError("char_poly_full called")

    monkeypatch.setattr(SpecialLinear, "char_poly_full", refuse)
    assert (lemmas.kappa_conjugation_suite(N, P, COUNT, suite_rng("kappa-conjugation"))
            == (COUNT, COUNT))


def test_lindep_suite_reads_the_frozen_stream(monkeypatch):
    pulled = pulled_from(monkeypatch, "split_regulars")
    lemmas.lindep_suite(N, P, COUNT, suite_rng("lindep"))
    assert digest(pulled) == LINDEP
