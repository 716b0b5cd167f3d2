"""Kernel microbenchmarks: ns per call of the SpecialLinear kernels.

    python3 perfbench/kernels.py --seed N

Times `mul`, `inv`, `char_poly` and `classify_semisimple` over a fixed
seeded sample of uniform elements for n = 2, 3, 4, each at the prime of
the workload it feeds, and prints one JSON line of
`matrices.<op>_ns.n<k>` values (median over REPEATS passes, loop
overhead included).  `mul` is a closure built per instance, so it is
timed here rather than wrapped per call in the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from random import Random

from workloads import SRC

# (n, p, workload whose hot path uses these kernels)
KERNELS = ((2, 37, "growth"), (3, 7, "tracelab"), (4, 101, "lemma"))
SAMPLE = 1000
REPEATS = 5


def ns_per_call(fn, args: list) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for a in args:
            fn(*a)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(args) * 1e9


def measure(seed: int) -> dict:
    from slgrowth.matrices import SpecialLinear

    metrics = {}
    for n, p, _ in KERNELS:
        space = SpecialLinear(n, p)
        rng = Random(f"{seed}:kernels:{n}:{p}")
        elems = [space.random_element(rng) for _ in range(SAMPLE)]
        singles = [(g,) for g in elems]
        ops = {
            "mul": (space.mul, list(zip(elems, elems[1:] + elems[:1]))),
            "inv": (space.inv, singles),
            "char_poly": (space.char_poly, singles),
            "classify_semisimple": (space.classify_semisimple, singles),
        }
        for op, (fn, args) in ops.items():
            metrics[f"matrices.{op}_ns.n{n}"] = ns_per_call(fn, args)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    print(json.dumps(measure(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
