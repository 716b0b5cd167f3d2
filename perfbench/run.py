"""Benchmark for the slgrowth command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  One client runs the workload's
`python -m slgrowth.cli ...` command in a closed loop: each run starts
after the previous one exits, with the default single worker, until the
next run would end past S seconds (at least MIN_RUNS runs).  The
benchmark and its children are pinned to one CPU, and a fixed reference
loop is timed on it between runs.  Every run's outputs are checked
(exit code, manifest, digests, what the outputs state, work counts).
With --trace 0 the last stdout line carries the end-to-end metrics over
the runs (see end_to_end); with --trace 1 the loop is followed by one
traced run of the same command (perfbench/traced.py) and the kernel
microbenchmarks (perfbench/kernels.py), and the last line carries the
per-layer metrics.  Records of each set of runs, with the machine it
ran on, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from kernels import KERNELS
from workloads import (
    OUT,
    ROOT,
    SRC,
    WORKLOADS,
    Workload,
    frozen_for,
    load_golden,
    loadavg,
    machine_record,
    sha256,
)

HERE = Path(__file__).resolve().parent
MIN_RUNS = 3
REF_ITERATIONS = 150_000
# reference_seconds() on an idle 2-core Intel Xeon virtual machine, Python 3.11
REF_SECONDS = 0.040


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


def spawn(cmd: list, stderr_path: Path):
    """Run cmd to completion from the checkout root.

    Returns (wall seconds from spawn to exit, exit code, stdout text,
    peak RSS of the child in MB).
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, stdout.decode(errors="replace"), usage.ru_maxrss / 1024


def cli_command(workload: Workload, seed: int, out: Path) -> list:
    return ["-m", "slgrowth.cli", *workload.argv, "--seed", str(seed),
            "--out", str(out.relative_to(ROOT))]


def fresh_workdir(workload: Workload) -> Path:
    workdir = OUT / "work" / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    for path in workdir.iterdir():
        path.unlink()
    return workdir


def check_run(workload: Workload, exit_code: int, stdout: str, frozen) -> dict:
    """Check one finished run; returns its manifest, digests, work
    counts and the list of problems found (empty when it passed)."""
    result = {"problems": [], "digests": {}, "work": {}, "manifest": None}
    problems = result["problems"]
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        manifest = json.loads(stdout)
    except ValueError:
        problems.append("no parseable manifest")
        return result
    result["manifest"] = manifest
    if manifest.get("status") != "ok":
        problems.append(f"status {manifest.get('status')}: {manifest.get('error')}")
        return result
    files = {}
    for path, digest in manifest["outputs"].items():
        try:
            data = (ROOT / path).read_bytes()
        except OSError as exc:
            problems.append(f"{path}: {exc}")
            continue
        if sha256(data) != digest:
            problems.append(f"{path}: manifest digest does not match the file")
        files[Path(path).name] = data
        result["digests"][Path(path).name] = sha256(data)
    if sorted(files) != sorted(workload.outputs):
        problems.append(f"wrote {sorted(files)}, expected {list(workload.outputs)}")
        return result
    try:
        problems.extend(workload.check(manifest, files))
        result["work"] = workload.work(manifest, files)
    except (KeyError, ValueError, TypeError) as exc:
        problems.append(f"malformed output: {exc!r}")
    if frozen is not None:
        if result["digests"] != frozen["digests"]:
            problems.append("output digests differ from the frozen ones")
        if result["work"] != frozen["work"]:
            problems.append("work counts differ from the frozen ones")
    return result


def run_once(workload: Workload, seed: int, frozen) -> dict:
    """One timed, checked run of the workload's CLI command."""
    workdir = fresh_workdir(workload)
    wall, code, stdout, rss = spawn(
        [sys.executable, *cli_command(workload, seed, workdir / "out.csv")],
        OUT / f"{workload.name}.stderr",
    )
    sample = check_run(workload, code, stdout, frozen)
    sample.update(wall_s=wall, peak_rss_mb=rss)
    manifest = sample.pop("manifest")
    if manifest is not None:
        sample["setup_s"] = wall - manifest["wall_seconds"]
    return sample


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop on this CPU now."""
    start = time.perf_counter()
    seen = set()
    x = 1
    for i in range(REF_ITERATIONS):
        x = (x * 48271 + i) % 65521
        key = (x % 251, x >> 8)
        if key not in seen:
            seen.add(key)
    return time.perf_counter() - start


def closed_loop(workload: Workload, seed: int, seconds: float, frozen) -> list:
    """Run the workload back to back; one sample per run."""
    samples = []
    start = time.perf_counter()
    ref_before = reference_seconds()
    while True:
        sample = run_once(workload, seed, frozen)
        ref_after = reference_seconds()
        sample["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        first = next((s for s in samples if not s["problems"]), None)
        if first is not None and not sample["problems"]:
            if (sample["digests"], sample["work"]) != (first["digests"], first["work"]):
                sample["problems"].append("outputs differ from the first run")
        samples.append(sample)
        elapsed = time.perf_counter() - start
        typical = statistics.median(s["wall_s"] for s in samples)
        if len(samples) >= MIN_RUNS and elapsed + typical > seconds:
            return samples


def values(samples: list, key: str) -> list:
    return [s[key] for s in samples if key in s]


def end_to_end(samples: list) -> dict:
    """Medians over the set.  Each run's times are scaled by REF_SECONDS
    over the reference loop's time measured around that run on the same
    CPU, so that slowdowns of a shared host (up to 1.8x for minutes at a
    time) cancel; the raw times stay in the record."""
    def scaled(key):
        return [s[key] * REF_SECONDS / s["ref_s"] for s in samples if key in s]

    return {
        "wall_s": statistics.median(scaled("wall_s")),
        "setup_s": statistics.median(scaled("setup_s")),
        "peak_rss_mb": statistics.median(values(samples, "peak_rss_mb")),
    }


def traced_run(workload: Workload, seed: int, frozen):
    """One traced run plus the kernel microbenchmarks; returns the
    per-layer metrics and the traced run's inspection, which carries its
    wall time scaled like the untraced runs'."""
    workdir = fresh_workdir(workload)
    spans_path = OUT / f"{workload.name}-seed{seed}.spans.json"
    cmd = [sys.executable, str(HERE / "traced.py"), "--workload", workload.name,
           "--seed", str(seed), "--out", str((workdir / "out.csv").relative_to(ROOT)),
           "--spans", str(spans_path), "--spawned", repr(time.monotonic())]
    ref_before = reference_seconds()
    _, code, stdout, _ = spawn(cmd, OUT / f"{workload.name}.traced.stderr")
    ref_s = (ref_before + reference_seconds()) / 2
    if code != 0:
        raise RuntimeError(f"traced run failed with exit code {code}")
    traced = json.loads(stdout.splitlines()[-1])
    sample = check_run(workload, traced["cli_exit"], traced["manifest"], frozen)
    if frozen is not None and traced["work"] != frozen["traced_work"]:
        sample["problems"].append("traced work counts differ from the frozen ones")
    metrics = traced["metrics"]
    _, code, stdout, _ = spawn(
        [sys.executable, str(HERE / "kernels.py"), "--seed", str(seed)],
        OUT / "kernels.stderr",
    )
    if code != 0:
        raise RuntimeError(f"kernel microbenchmarks failed with exit code {code}")
    metrics.update(json.loads(stdout.splitlines()[-1]))
    sample.pop("manifest")
    sample["traced_work"] = traced["work"]
    sample["traced_wall_s"] = traced["traced_wall_s"] * REF_SECONDS / ref_s
    return metrics, sample


def result_line(declared: list, metrics: dict, samples: list) -> str:
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) ^ set(metrics))
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {missing}")
    failed = sum(1 for s in samples if s["problems"])
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slgrowth" / "cli.py").is_file():
        print(f"error: no slgrowth sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    frozen = frozen_for(load_golden(), workload, args.seed)
    OUT.mkdir(exist_ok=True)

    feeds = {f"n{n}": {"p": p, "workload": name} for n, p, name in KERNELS}
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "argv": list(workload.argv), "kernel_feeds": feeds,
              "machine": machine_record(), "loadavg_before": loadavg()}
    samples = closed_loop(workload, args.seed, args.seconds or benchmark["run_seconds"], frozen)
    metrics = e2e = end_to_end(samples)
    declared = benchmark["end_to_end"]
    if args.trace:
        metrics, traced = traced_run(workload, args.seed, frozen)
        metrics["bench.trace_overhead_frac"] = traced["traced_wall_s"] / e2e["wall_s"] - 1.0
        samples.append(traced)
        declared = benchmark["per_layer"]
    record.update(loadavg_after=loadavg(), samples=samples, end_to_end=e2e, metrics=metrics)
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for sample in samples:
        if sample["problems"]:
            print(f"failed run: {'; '.join(sample['problems'])}", file=sys.stderr)
    raw = {key: statistics.median(values(samples, key)) for key in ("wall_s", "setup_s")}
    print(json.dumps({"workload": workload.name, "seed": args.seed, "work": samples[0]["work"],
                      "end_to_end": e2e, "raw": raw, "record": str(record_path.relative_to(ROOT))}))
    print(result_line(declared, metrics, samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
