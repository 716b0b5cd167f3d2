"""Additive energy, dilation, fiber families, and vital diagnostics."""

import json
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import log
from random import Random

import numpy as np
import pytest

import slgrowth.energy as energy_mod
import slgrowth.vital as vital_mod
from slgrowth import (
    Budget,
    BudgetExceeded,
    ElementSet,
    FiberFamily,
    PrimeField,
    ScalarSet,
    SpecialLinear,
    UnsupportedTorus,
    VectorSet,
    additive_energy,
    assemble_vital_instance,
    cli,
    dilate,
    standard_generators,
    vital_diagnostics,
    word_ball,
)
from slgrowth import growth, tracelab

from oracles import (
    difference_counts_by_pairs,
    energy_by_autocorrelation,
    energy_by_convolution,
    energy_by_pairs,
    support_by_pairs,
)


def scalar(p, values):
    return ScalarSet(PrimeField(p), frozenset(v % p for v in values))


def residues(p, values):
    """The distinct residues of values mod p, as additive_energy takes them."""
    return np.array(sorted({v % p for v in values}), dtype=np.int64)


# ---------------------------------------------------------------------------
# additive energy


def test_energy_frozen_small():
    X = residues(7, [1, 2])
    e, counts = additive_energy(X, X, 7)
    assert e == 6
    assert counts.tolist() == [2, 1, 0, 0, 0, 0, 1]


def test_energy_full_field():
    for p in (5, 7, 11):
        F = residues(p, range(p))
        e, counts = additive_energy(F, F, p)
        assert e == p**3
        assert counts.tolist() == [p] * p


def test_energy_empty_and_singletons():
    for X, Y in ((residues(7, []), residues(7, [1, 2])),
                 (residues(7, [3]), residues(7, [])),
                 ([], [1, 2])):
        e, counts = additive_energy(X, Y, 7)
        assert e == 0
        assert counts.dtype == np.int64
        assert counts.tolist() == [0] * 7
    e, counts = additive_energy(residues(7, [3]), residues(7, [5]), 7)
    assert e == 1
    assert counts.tolist() == [0, 0, 0, 0, 0, 1, 0]  # 3 - 5 = 5 mod 7


def test_energy_mass_and_cauchy_schwarz():
    # the returned counts against pair-by-pair oracles: mass |X||Y|,
    # every entry, and the support |X - Y| behind the Cauchy-Schwarz bound
    rng = Random(5)
    for p in (11, 101, 997, 10007):
        for _ in range(4):
            xs = rng.sample(range(p), rng.randint(1, min(80, p - 1)))
            ys = rng.sample(range(p), rng.randint(1, min(80, p - 1)))
            e, counts = additive_energy(residues(p, xs), residues(p, ys), p)
            assert counts.dtype == np.int64 and counts.shape == (p,)
            assert int(counts.sum()) == len(xs) * len(ys)
            by_pairs = Counter((a - b) % p for a in xs for b in ys)
            assert counts.tolist() == [by_pairs[d] for d in range(p)]
            support = int(np.count_nonzero(counts))
            assert support == len(support_by_pairs(p, xs, ys))
            assert e * support >= (len(xs) * len(ys)) ** 2
            assert e <= len(xs) * len(ys) * min(len(xs), len(ys))


def test_energy_matches_all_three_oracles():
    rng = Random(9)
    for p in (11, 101, 499):
        for _ in range(8):
            xs = rng.sample(range(p), rng.randint(1, min(60, p - 1)))
            ys = rng.sample(range(p), rng.randint(1, min(60, p - 1)))
            e, _ = additive_energy(residues(p, xs), residues(p, ys), p)
            assert e == energy_by_pairs(p, xs, ys)
            assert e == energy_by_autocorrelation(p, xs, ys)
            assert e == energy_by_convolution(p, xs, ys)


def test_energy_chunked_blocks_agree(monkeypatch):
    """|X||Y| one pair under _CHUNK_ENTRIES = 2^15, exactly at it, and one
    over it, which splits X into a block of 8 rows and one of a single
    row, or into 3,640 rows and one: the same counts as one block and as
    the pairs."""
    assert energy_mod._CHUNK_ENTRIES == 1 << 15
    p = 65521
    sizes = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount",
                        lambda d, **kw: sizes.append(d.size) or bincount(d, **kw))
    # 2^15 - 1, 2^15 and twice 2^15 + 1 pairs
    for nx, ny in ((217, 151), (128, 256), (9, 3641), (3641, 9)):
        assert abs(nx * ny - (1 << 15)) <= 1
        rng = Random(nx)
        xs = residues(p, rng.sample(range(p), nx))
        ys = residues(p, rng.sample(range(p), ny))
        sizes.clear()
        e, counts = additive_energy(xs, ys, p)
        assert max(sizes) <= 1 << 15 and sum(sizes) == nx * ny
        assert len(sizes) == 1 + (nx * ny > 1 << 15)
        with monkeypatch.context() as one_block:
            one_block.setattr(energy_mod, "_CHUNK_ENTRIES", nx * ny)
            whole, whole_counts = additive_energy(xs, ys, p)
        assert e == whole and np.array_equal(counts, whole_counts)
        assert counts.tolist() == difference_counts_by_pairs(p, xs.tolist(), ys.tolist())


def test_energy_block_memory_is_bounded():
    """|X| = |Y| = 3,000 at p = 65,521 is 9M pairs, 72 MB of int64
    differences in one block; in blocks of 2^15 pairs the call peaks
    under 2 MB, most of it the two count vectors of p and 2p entries."""
    rng = Random(3)
    p = 65521
    xs = np.array(rng.sample(range(p), 3000), dtype=np.int64)
    ys = np.array(rng.sample(range(p), 3000), dtype=np.int64)
    tracemalloc.start()
    try:
        e, counts = additive_energy(xs, ys, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert int(counts.sum()) == 9_000_000 and e >= 9_000_000


def assert_energy_is_oracle(p, xs, ys):
    xs, ys = set(xs), set(ys)
    e, counts = additive_energy(residues(p, xs), residues(p, ys), p)
    assert counts.dtype == np.int64 and counts.shape == (p,)
    assert counts.tolist() == difference_counts_by_pairs(p, xs, ys)
    assert e == energy_by_pairs(p, xs, ys)
    if p < 1000:  # the slot-packed product grows with p
        assert e == energy_by_convolution(p, xs, ys)


def test_energy_folds_the_extreme_differences():
    """With 0 and p - 1 in both sets the offset differences a + p - b
    reach both ends, 1 and 2p - 1, so d = +-(p - 1) fold onto 1 and
    p - 1; singletons put all of X - Y in one bin on either side."""
    for p in (3, 5, 101, 65521):
        assert_energy_is_oracle(p, [0, p - 1], [0, p - 1])
        assert_energy_is_oracle(p, [0], [p - 1])
        assert_energy_is_oracle(p, [p - 1], [0])
        assert_energy_is_oracle(p, [0, 1, p - 2, p - 1], [p - 1])


def test_energy_at_the_widest_field():
    p = 65521
    rng = Random(65521)
    for _ in range(3):
        xs = rng.sample(range(p), rng.randint(1, 120)) + [0, p - 1]
        ys = rng.sample(range(p), rng.randint(1, 120)) + [p - 1]
        assert_energy_is_oracle(p, xs, ys)


def test_energy_of_the_whole_field_against_the_oracles():
    for p in (3, 13, 101):
        assert_energy_is_oracle(p, range(p), range(p))
        assert_energy_is_oracle(p, range(p), [0, p - 1])


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_energy_in_small_blocks_against_the_oracles(monkeypatch, chunk):
    """A chunk below |Y| gives one x per block; the others split X into
    uneven blocks, the last one short."""
    monkeypatch.setattr(energy_mod, "_CHUNK_ENTRIES", chunk)
    rng = Random(chunk)
    for p in (101, 65521):
        xs = rng.sample(range(p), 45) + [0, p - 1]
        ys = rng.sample(range(p), 30) + [0, p - 1]
        assert_energy_is_oracle(p, xs, ys)
    assert_energy_is_oracle(101, range(101), range(101))


def test_energy_symmetry():
    # r_{X,Y}(d) = r_{Y,X}(-d), so the energy is symmetric in (X, Y)
    rng = Random(21)
    p = 101
    xs = rng.sample(range(p), 30)
    ys = rng.sample(range(p), 45)
    e_xy, r_xy = additive_energy(residues(p, xs), residues(p, ys), p)
    e_yx, r_yx = additive_energy(residues(p, ys), residues(p, xs), p)
    assert e_xy == e_yx
    assert r_xy.tolist() == [int(r_yx[(-d) % p]) for d in range(p)]


# ---------------------------------------------------------------------------
# dilation


def test_dilate_frozen():
    X = residues(7, [1, 2, 3])
    assert dilate(X, 3, 7).tolist() == [2, 3, 6]
    assert dilate(X, 1, 7).tolist() == X.tolist()
    assert dilate(X, 0, 7).tolist() == [0]


def test_dilate_is_bijection_for_units():
    rng = Random(2)
    p = 61
    X = residues(p, rng.sample(range(p), 17))
    for y in (1, 2, 34, 60):
        assert len(dilate(X, y, p)) == len(X)
        assert dilate(X, y, p).tolist() == sorted(y * x % p for x in X.tolist())
    assert dilate(X, 61 + 2, p).tolist() == dilate(X, 2, p).tolist()


# ---------------------------------------------------------------------------
# containers


def test_scalar_set_sorted_elements():
    X = ScalarSet(PrimeField(7), frozenset([6, 1]))
    assert len(X) == 2 and set(X) == {1, 6}
    assert X.sorted_elements() == [1, 6]


def test_vector_set_sorted_elements():
    V = VectorSet(PrimeField(7), frozenset([(1, 1), (0, 3)]))
    assert len(V) == 2 and set(V) == {(0, 3), (1, 1)}
    assert V.sorted_elements() == [(0, 3), (1, 1)]


def test_fiber_family_certificate():
    X = scalar(7, [1, 2, 3, 6])
    good = FiberFamily(X, {(1, 1): {(1, 2), (3, 3)}})  # dots 3 and 6
    assert good.fiber((1, 1)) == frozenset([(1, 2), (3, 3)])
    assert good.fiber((5, 5)) == frozenset()
    with pytest.raises(ValueError):
        FiberFamily(X, {(1, 1): {(1, 3)}})  # dot = 4 not in X
    with pytest.raises(ValueError):
        FiberFamily(X, {(1, 1): {(5, 4)}})  # dot = 2 in X, coord 5 not


# ---------------------------------------------------------------------------
# assembled instances


def build_sl2_f11_instance():
    space = SpecialLinear(2, 11)
    A = word_ball(standard_generators(space), 2)
    witness_ball = word_ball(A, 2)
    D = ElementSet.from_matrices(
        space,
        [
            g
            for g in witness_ball.sorted_members()
            if space.is_regular_semisimple(g)
            and space.split_eigenvalues(g) is not None
        ],
    )
    return space, A, D


def test_assemble_sl2_f11_frozen():
    space, A, D = build_sl2_f11_instance()
    assert len(D) == 16
    inst = assemble_vital_instance(A, D, 2)
    assert inst.X.elements == frozenset(range(11))
    assert inst.Y.sorted_elements() == [(10, 3), (10, 8)]
    for y in inst.Y:
        assert len(inst.fibers.fiber(y)) == 21
    # re-validating the stored assignments exercises the certificate
    FiberFamily(inst.X, {y: set(inst.fibers.fiber(y)) for y in inst.Y})


def test_assemble_requires_split_witnesses():
    space = SpecialLinear(2, 11)
    A = word_ball(standard_generators(space), 2)
    nonsplit = next(
        g
        for g in A.sorted_members()
        if space.is_regular_semisimple(g) and space.split_eigenvalues(g) is None
    )
    D = ElementSet.from_matrices(space, [nonsplit])
    with pytest.raises(UnsupportedTorus):
        assemble_vital_instance(A, D, 1)


def test_assemble_rejects_empty_or_mismatched_d():
    space = SpecialLinear(2, 11)
    A = word_ball(standard_generators(space), 1)
    with pytest.raises(ValueError):
        assemble_vital_instance(A, ElementSet(space, frozenset()), 1)
    other = SpecialLinear(2, 5)
    D = ElementSet.from_matrices(other, [other.from_rows([[2, 0], [0, 3]])])
    with pytest.raises(ValueError):
        assemble_vital_instance(A, D, 1)


def test_assemble_tiny_forced_fiber():
    # single witness over its own torus: the recursion forces membership
    # (trace 6 != 0, so the omit-one determinant screen keeps it)
    space = SpecialLinear(2, 7)
    t = space.from_rows([[2, 0], [0, 4]])
    A = ElementSet.from_matrices(space, [space.identity(), t, space.inv(t)])
    D = ElementSet.from_matrices(space, [t])
    inst = assemble_vital_instance(A, D, 1)
    y = next(iter(inst.Y))
    assert y == (6, 6)
    assert inst.fibers.fiber(y)
    assert inst.fibers.excluded_witnesses == ()


def test_vital_screens_every_witness_in_one_call(monkeypatch, capsys, tmp_path):
    """One lindep_checks call covers all of D's witnesses, in sorted order."""
    blocks = []
    checks = vital_mod.lindep_checks

    def spy(field, block):
        blocks.append(block)
        return checks(field, block)

    monkeypatch.setattr(vital_mod, "lindep_checks", spy)
    space, A, D = build_sl2_f11_instance()
    assemble_vital_instance(A, D, 2)
    assert blocks == [[space.split_eigenvalues(t) for t in D.sorted_members()]]
    blocks.clear()
    argv = ["vital", "--n", "2", "--p", "11", "--radius", "2", "--k", "2",
            "--seed", "6", "--out", str(tmp_path / "vital.csv")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(blocks) == 1 and len(blocks[0]) > 1


def test_vital_witness_loop_honours_budget_secs(monkeypatch, capsys, tmp_path):
    """A witness that outlasts --budget-secs past its last check inside
    (here, in popular_tuple after its dyadic bins) stops the loop at the
    next witness: exit 3 and one manifest that names the stage, no files."""
    calls = []
    popular_tuple = vital_mod.popular_tuple

    def slow(bins):
        calls.append(bins)
        time.sleep(0.3)
        return popular_tuple(bins)

    monkeypatch.setattr(vital_mod, "popular_tuple", slow)
    target = tmp_path / "vital.csv"
    argv = ["vital", "--n", "2", "--p", "11", "--radius", "2", "--k", "2",
            "--seed", "6", "--budget-secs", "0.25", "--out", str(target)]
    assert cli.main(argv) == 3
    out = capsys.readouterr().out
    manifest = json.loads(out)  # the whole of stdout: exactly one manifest
    assert manifest["status"] == "budget-exceeded"
    assert manifest["error"] == "vital witnesses exceeded 0.25 seconds"
    assert manifest["info"] == {"stage": "vital witnesses", "partial_count": 1}
    assert len(calls) == 1  # of 16 witnesses
    assert list(tmp_path.iterdir()) == []


class StoppedClock:
    """time for growth: the clock reads 0 until `now` is moved."""

    now = 0.0

    def monotonic(self):
        return self.now


def test_vital_deadline_trips_after_the_first_shift_table_chunk(monkeypatch):
    """A deadline that passes as the first witness's shift table starts
    trips after that table's first block, not after the witness ends."""
    space, A, D = build_sl2_f11_instance()
    assert len(word_ball(A, 2)) > 4  # the pool: several blocks of 4
    clock = StoppedClock()
    blocks = []
    lookup = tracelab._Radicals.lookup

    def spy(*args):
        blocks.append(1)
        clock.now = 10.0  # past the 1 s deadline
        return lookup(*args)

    monkeypatch.setattr(growth, "time", clock)
    monkeypatch.setattr(tracelab, "SHIFT_BLOCK", 4)
    monkeypatch.setattr(tracelab._Radicals, "lookup", spy)
    with pytest.raises(BudgetExceeded) as info:
        assemble_vital_instance(A, D, 2, Budget(max_seconds=1.0))
    assert str(info.value) == "vital witnesses exceeded 1.0 seconds"
    assert info.value.stage == "vital witnesses"
    assert info.value.partial_count == 0  # witnesses done
    assert len(blocks) == 1


def test_vital_deadline_trips_inside_the_first_dyadic_bins(monkeypatch):
    """A deadline that passes during the first witness's wealth passes
    trips after that pass, inside dyadic_bins, with no witness done."""
    space, A, D = build_sl2_f11_instance()
    clock = StoppedClock()
    passes = []
    wealths = tracelab._wealths

    def spy(*args):
        passes.append(1)
        clock.now = 10.0  # past the 1 s deadline
        return wealths(*args)

    monkeypatch.setattr(growth, "time", clock)
    monkeypatch.setattr(tracelab, "_wealths", spy)
    with pytest.raises(BudgetExceeded) as info:
        assemble_vital_instance(A, D, 2, Budget(max_seconds=1.0))
    assert str(info.value) == "vital witnesses exceeded 1.0 seconds"
    assert info.value.partial_count == 0  # witnesses done
    assert len(passes) == 1  # of n + 1 = 3 shifts


# ---------------------------------------------------------------------------
# diagnostics


def test_vital_diagnostics_frozen_instance():
    space, A, D = build_sl2_f11_instance()
    inst = assemble_vital_instance(A, D, 2)
    report = vital_diagnostics(inst.X, inst.Y, inst.fibers, Fraction(1, 2))
    assert report.p == 11
    assert report.x_size == 11
    assert report.y_size == 2
    assert report.pi1_size == 1
    assert (report.min_fiber, report.max_fiber) == (21, 21)
    assert report.energy_sum == 11**3
    assert report.energy_sum == energy_by_autocorrelation(
        11, list(range(11)), [(10 * x) % 11 for x in range(11)]
    )
    assert report.x_meets_threshold is False  # 11 > 11**(1/2)
    assert report.degenerate is False
    for _, size, exponent in report.rows:
        assert exponent == pytest.approx(log(size) / log(11))


def test_vital_diagnostics_degenerate_and_empty_fibers():
    X = scalar(11, [0])
    Y = VectorSet(PrimeField(11), frozenset([(0, 1), (2, 3)]))
    fibers = FiberFamily(X, {(0, 1): {(0, 0)}})
    report = vital_diagnostics(X, Y, fibers, Fraction(1, 2))
    assert report.degenerate is True
    assert report.x_meets_threshold is True  # 1 <= 11**(1/2)
    rows = {y: (size, exponent) for y, size, exponent in report.rows}
    assert rows[(0, 1)] == (1, 0.0)
    assert rows[(2, 3)] == (0, 0.0)  # missing fiber reported at size 0
    assert (report.min_fiber, report.max_fiber) == (0, 1)
    assert report.pi1_size == 2


def test_vital_report_csv_shape(capsys, tmp_path):
    """vital's CSV for the F_11 instance: one fiber row per y with the
    library's fiber sizes, then the summary row, every row as wide as
    the header."""
    space, A, D = build_sl2_f11_instance()
    inst = assemble_vital_instance(A, D, 2)
    report = vital_diagnostics(inst.X, inst.Y, inst.fibers, Fraction(1, 2))
    target = tmp_path / "vital.csv"
    code = cli.main(["vital", "--n", "2", "--p", "11", "--radius", "2",
                     "--k", "2", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    header, *rows = [line.split(",") for line in target.read_text().splitlines()]
    assert rows[-1][0] == "summary"
    assert all(len(r) == len(header) for r in rows)
    assert sum(1 for r in rows if r[0] == "fiber") == report.y_size
    size = header.index("fiber_size")
    assert [int(r[size]) for r in rows[:-1]] == [s for _, s, _ in report.rows]


@pytest.mark.parametrize("p,size", [(10007, 300), (1009, 60), (7, 9)])
def test_energy_run_leaves_the_generator_as_the_stdlib_draws(monkeypatch, capsys,
                                                            tmp_path, p, size):
    """The energy command reads its sets through a WordReader; its rows
    hold the sizes that rng.randint and rng.sample(range(p), k) draw,
    and its generator ends in the state those calls leave."""
    stream_rng = cli.stream_rng
    streams = []

    def recording_stream_rng(seed, stream):
        rng = stream_rng(seed, stream)
        streams.append((seed, stream, rng))
        return rng

    monkeypatch.setattr(cli, "stream_rng", recording_stream_rng)
    target = tmp_path / "energy.csv"
    assert cli.main(["energy", "--p", str(p), "--size", str(size), "--trials", "40",
                     "--seed", "3", "--out", str(target)]) == 0
    capsys.readouterr()
    [(seed, stream, used)] = streams
    want = stream_rng(seed, stream)
    cap = min(size, p)
    rows = [line.split(",") for line in target.read_text().splitlines()[1:]]
    for row in rows:
        nx, ny = want.randint(1, cap), want.randint(1, cap)
        X, Y = want.sample(range(p), nx), want.sample(range(p), ny)
        assert (int(row[2]), int(row[3])) == (nx, ny)
        assert int(row[4]) == energy_by_pairs(p, X, Y)
    assert len(rows) == 40
    assert used.getstate() == want.getstate()
