"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
Every check is exact; the timed suites also enforce their wall caps.
"""

import hashlib
import time
from fractions import Fraction
from itertools import combinations
from random import Random

import numpy as np

from slgrowth import (
    ElementSet,
    PrimeField,
    SemisimplicityClass,
    SpecialLinear,
    additive_energy,
    cli,
    dyadic_bins,
    elementary_symmetric,
    fiber_bound_check,
    full_group,
    growth_scan,
    rich_torus_scan,
    torus_order_and_split,
)
from slgrowth.cli import (
    f_identity_suite,
    kappa_conjugation_suite,
    stream_rng,
    vander_identity_suite,
)

from oracles import classify_oracle, energy_by_convolution


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# 1. exact-identity suites


def test_1a_vander_identity_grid():
    start = time.monotonic()
    total = passes = 0
    for n in (2, 3, 4, 5, 6):
        for p in (7, 31, 101):
            rng = stream_rng(0, f"accept:1a:{n}:{p}")
            got, ran = vander_identity_suite(n, p, 10_000, rng)
            passes += got
            total += ran
    elapsed = time.monotonic() - start
    ok = passes == total and elapsed < 10.0
    report("1a", ok, f"omit-one determinant identity {passes}/{total} "
                     f"over 15 (n,p) configs in {elapsed:.2f}s (cap 10s)")


def test_1b_trace_recursion_grid():
    start = time.monotonic()
    total = passes = 0
    for n in (2, 3, 4):
        for p in (7, 31, 101):
            rng = stream_rng(0, f"accept:1b:{n}:{p}")
            got, ran = f_identity_suite(n, p, 10_000, rng)
            passes += got
            total += ran
    elapsed = time.monotonic() - start
    ok = passes == total and elapsed < 10.0
    report("1b", ok, f"shifted-trace recursion {passes}/{total} "
                     f"over 9 (n,p) configs in {elapsed:.2f}s (cap 10s)")


def test_1c_conjugation_invariance_grid():
    start = time.monotonic()
    total = passes = 0
    for n in (2, 3, 4):
        for p in (7, 31, 101):
            rng = stream_rng(0, f"accept:1c:{n}:{p}")
            got, ran = kappa_conjugation_suite(n, p, 10_000, rng)
            passes += got
            total += ran
    elapsed = time.monotonic() - start
    ok = passes == total
    report("1c", ok, f"invariant-tuple conjugation invariance {passes}/{total} "
                     f"over 9 (n,p) configs in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. oracle equivalence


def test_2a_elementary_symmetric_vs_bruteforce():
    checked = agreed = 0
    for n in (2, 3, 4, 5, 6):
        for p in (7, 31):
            fld = PrimeField(p)
            rng = Random(1000 * n + p)
            for _ in range(200):
                s = tuple(rng.randrange(p) for _ in range(n))
                for m in range(n + 1):
                    brute = 0
                    for combo in combinations(range(n), m):
                        term = 1
                        for idx in combo:
                            term = (term * s[idx]) % p
                        brute = (brute + term) % p
                    checked += 1
                    agreed += elementary_symmetric(fld, s, m) == brute
    ok = checked == agreed
    report("2a", ok, f"elementary symmetric vs monomial enumeration "
                     f"{agreed}/{checked} (n up to 6)")


def test_2b_energy_vs_convolution_oracle():
    p = 2003
    rng = Random(77)
    checked = agreed = 0
    for _ in range(100):
        xs = rng.sample(range(p), rng.randint(1, 1000))
        ys = rng.sample(range(p), rng.randint(1, 1000))
        mine, _ = additive_energy(np.array(xs), np.array(ys), p)
        checked += 1
        agreed += mine == energy_by_convolution(p, xs, ys)
    ok = checked == agreed
    report("2b", ok, f"additive energy vs convolution oracle {agreed}/{checked} "
                     f"instances with |X|,|Y| up to 1000")


def test_2c_classification_vs_diagonalizability_oracle():
    space5 = SpecialLinear(2, 5)
    checked = agreed = 0
    for g in full_group(space5).sorted_members():
        checked += 1
        agreed += space5.classify_semisimple(g) is classify_oracle(space5, g)
    space37 = SpecialLinear(3, 7)
    rng = stream_rng(0, "accept:2c")
    for _ in range(10_000):
        g = space37.random_element(rng)
        checked += 1
        agreed += space37.classify_semisimple(g) is classify_oracle(space37, g)
    ok = checked == agreed
    report("2c", ok, f"semisimplicity classification vs oracle {agreed}/{checked} "
                     f"(exhaustive 120 + 10^4 sampled)")


# ---------------------------------------------------------------------------
# 3. structural properties


def test_3a_bins_partition_exhaustively():
    space = SpecialLinear(2, 5)
    G = full_group(space)
    members = G.sorted_members()
    witnesses = [
        space.from_rows([[2, 0], [0, 3]]),
        space.from_rows([[3, 0], [0, 2]]),
    ]
    ok = True
    detail = []
    for t in witnesses:
        powers = space.power_list(t, 2)
        eligible = set()
        for g in members:
            if all(
                classify_oracle(space, space.mul(powers[k], g))
                is not SemisimplicityClass.NOT_SEMISIMPLE
                for k in range(3)
            ):
                eligible.add(g)
        bins = dyadic_bins(t, G)
        covered: set = set()
        disjoint = True
        for b in bins:
            disjoint &= not (covered & b.members.members)
            covered |= b.members.members
        ok &= disjoint and covered == eligible
        detail.append(f"{len(eligible)} eligible in {len(bins)} bins")
    report("3a", ok, "dyadic bins partition the eligible pool exactly for every "
                     f"split witness over the full group ({'; '.join(detail)})")


def test_3b_fiber_bound_and_sharpness():
    ok = True
    ratios = []
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        space = SpecialLinear(2, p)
        mats = []
        for a in range(2, p - 1):
            inv = pow(a, p - 2, p)
            if a != inv:
                mats.append(space.from_rows([[a, 0], [0, inv]]))
        S = ElementSet.from_matrices(space, mats)
        image, bound = fiber_bound_check(S)  # raises if the bound fails
        ratios.append(Fraction(image, len(S)))
        ok &= Fraction(image, len(S)) == Fraction(1, 2)
    sl3_sizes = []
    for p in (7, 11):
        space = SpecialLinear(3, p)
        mats = []
        for a in range(1, p):
            for b in range(1, p):
                c = pow(a * b, p - 2, p)
                if a != b and b != c and a != c:
                    mats.append(
                        space.from_rows([[a, 0, 0], [0, b, 0], [0, 0, c]])
                    )
        S = ElementSet.from_matrices(space, mats)
        image, bound = fiber_bound_check(S)
        ok &= Fraction(image) >= bound
        sl3_sizes.append(f"p={p}: |f(S)|={image} >= {bound}")
    ok &= all(r == Fraction(1, 2) for r in ratios)
    report("3b", ok, "image bound holds on all split tori; the degree-2 ratio "
                     f"is exactly 1/2 at 9 primes; degree-3 {', '.join(sl3_sizes)}")


def test_3c_torus_orders():
    ok = True
    for p in (5, 7, 11):
        sp2 = SpecialLinear(2, p)
        order, split = torus_order_and_split(
            sp2, sp2.from_rows([[2, 0], [0, pow(2, p - 2, p)]])
        )
        ok &= (order, split) == (p - 1, True)
        sp3 = SpecialLinear(3, p)
        b, c = next(
            (b, pow(2 * b, p - 2, p))
            for b in range(3, p)
            if len({2, b, pow(2 * b, p - 2, p)}) == 3
        )
        order, split = torus_order_and_split(
            sp3, sp3.from_rows([[2, 0, 0], [0, b, 0], [0, 0, c]])
        )
        ok &= (order, split) == ((p - 1) ** 2, True)
    nonsplit = {
        5: [[0, 4], [1, 1]],  # x^2 - x + 1 irreducible mod 5
        7: [[0, 1], [6, 0]],  # x^2 + 1 irreducible mod 7
    }
    for p, rows in nonsplit.items():
        sp = SpecialLinear(2, p)
        order, split = torus_order_and_split(sp, sp.from_rows(rows))
        ok &= (order, split) == (p + 1, False)
    report("3c", ok, "split torus orders (p-1)^(n-1) for n=2,3 at p in {5,7,11}; "
                     "nonsplit degree-2 orders p+1 at p in {5,7}")


# ---------------------------------------------------------------------------
# 4. growth measurements


def test_4a_strict_growth_from_radius_two_balls(tmp_path, capsys):
    primes = [5, 7, 11, 13, 17, 19, 23]
    target = str(tmp_path / "curve.csv")
    start = time.monotonic()
    code = cli.main([
        "growth-curve", "--n", "2",
        "--p-list", ",".join(str(p) for p in primes),
        "--radius", "2", "--k", "2", "--seed", "0", "--out", target,
    ])
    elapsed = time.monotonic() - start
    capsys.readouterr()  # manifest already captured above
    lines = open(target).read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ok = code == 0 and len(rows) == len(primes)
    grown = 0
    for row, p in zip(rows, primes):
        size_a, size_aaa = int(row[2]), int(row[3])
        proper = size_a < SpecialLinear(2, p).order()
        grown += size_aaa > size_a
        ok &= proper and size_aaa > size_a
    ok &= elapsed < 60.0
    report("4a", ok, f"|AAA| > |A| strictly for {grown}/{len(primes)} proper "
                     f"radius-2 balls; CSV emitted; {elapsed:.2f}s (cap 60s)")


def test_4b_saturated_fixpoint():
    ok = True
    for p in (5, 7):
        space = SpecialLinear(2, p)
        rep = growth_scan(full_group(space), ks=[2])
        ok &= rep.saturated and rep.epsilon_hat == 0.0
    report("4b", ok, "whole-group input reports epsilon_hat = 0 and "
                     "saturated = true at p in {5,7}")


# ---------------------------------------------------------------------------
# 5. richness window


def test_5_richness_stays_bounded():
    lo, hi = 1.0, 0.0
    count = 0
    ok = True
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        space = SpecialLinear(2, p)
        reports = rich_torus_scan(full_group(space), [1])
        ok &= bool(reports)
        for rep in reports:
            ratio = rep.richness_ratios[1]
            lo, hi = min(lo, ratio), max(hi, ratio)
            count += 1
            ok &= 0.5 <= ratio <= 2.5
    report("5", ok, f"torus richness over whole groups spans "
                    f"[{lo:.3f}, {hi:.3f}] across {count} tori (window [0.5, 2.5])")


# ---------------------------------------------------------------------------
# 6. determinism


def test_6_byte_identical_reruns(tmp_path, capsys):
    jobs = {
        "lemma-check": ["lemma-check", "--n", "2", "--p", "7", "--trials", "200",
                        "--seed", "7"],
        "growth-curve": ["growth-curve", "--n", "2", "--p-list", "5,7",
                         "--radius", "2", "--k", "2", "--seed", "7"],
        "vital": ["vital", "--n", "2", "--p", "11", "--radius", "2", "--k", "2",
                  "--seed", "7"],
    }
    ok = True
    digests = []
    for name, args in jobs.items():
        pair = []
        for attempt in ("a", "b"):
            target = str(tmp_path / f"{name}-{attempt}.out")
            code = cli.main(args + ["--out", target])
            capsys.readouterr()
            ok &= code == 0
            pair.append(hashlib.sha256(open(target, "rb").read()).hexdigest())
        ok &= pair[0] == pair[1]
        digests.append(f"{name}={pair[0][:10]}")
    report("6", ok, "repeat runs with one seed are byte-identical "
                    f"({', '.join(digests)})")
