"""Freeze the output digests and work counts of every workload.

    python3 perfbench/freeze.py

Runs each workload once untraced and once traced at the default seed
and rewrites perfbench/golden.json.  Refreeze only for a change meant to
alter the CLI's outputs; the diff of golden.json shows what moved.
"""

from __future__ import annotations

import json
import sys

from run import run_once, traced_run
from workloads import DEFAULT_SEED, GOLDEN, OUT, WORKLOADS


def main() -> int:
    OUT.mkdir(exist_ok=True)
    golden = {}
    for name, workload in WORKLOADS.items():
        sample = run_once(workload, DEFAULT_SEED, None)
        _, traced = traced_run(workload, DEFAULT_SEED, None)
        for checked in (sample, traced):
            if checked["problems"]:
                print(f"{name}: {'; '.join(checked['problems'])}", file=sys.stderr)
                return 1
        if (traced["digests"], traced["work"]) != (sample["digests"], sample["work"]):
            print(f"{name}: traced and untraced outputs differ", file=sys.stderr)
            return 1
        golden[name] = {"digests": sample["digests"], "work": sample["work"],
                        "traced_work": traced["traced_work"]}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
