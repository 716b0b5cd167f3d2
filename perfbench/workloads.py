"""Workload table, output checks and work counts for the slgrowth benchmark.

Every workload is one `python -m slgrowth.cli ...` command.  The checks
here read what a finished run left behind (its manifest and output
files) and say what is wrong with it; the work counts say how much work
the run did, so a lighter input never reads as a speed-up.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0

IDENTITY_SUITES = ("vander-identity", "f-identity", "kappa-conjugation", "lindep")


def sl_order(n: int, p: int) -> int:
    """|SL_n(F_p)|, computed here so the check does not trust the program."""
    size = p ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        size *= p**i - 1
    return size


def csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


# -- per-workload output checks: each returns a list of problems ----------


def check_growth(manifest: dict, files: dict) -> list[str]:
    problems = []
    for row in csv_rows(files["out.csv"]):
        order = sl_order(int(row["n"]), int(row["p"]))
        for col, value in row.items():
            if col.startswith("size_") and not 1 <= int(value) <= order:
                problems.append(f"p={row['p']} {col}={value} outside 1..{order}")
    return problems


def check_tracelab(manifest: dict, files: dict) -> list[str]:
    info = manifest["info"]
    members: dict = {}
    for row in csv_rows(files["out.csv"]):
        members[row["t_kappa"]] = members.get(row["t_kappa"], 0) + int(row["member_count"])
    problems = []
    for t_kappa, stats in info["per_witness"].items():
        binned = members.get(t_kappa, 0)
        if binned != stats["eligible"] or binned > info["pool_size"]:
            problems.append(f"witness {t_kappa}: {binned} binned, "
                            f"{stats['eligible']} eligible, pool {info['pool_size']}")
    fvectors = csv_rows(files["out.csv.fvectors.csv"])
    if len(fvectors) != info["witnesses"]:
        problems.append(f"{len(fvectors)} f-vectors for {info['witnesses']} witnesses")
    return problems


def check_lemma(manifest: dict, files: dict) -> list[str]:
    # cyclic-nonvanishing zeros are a measured rate, not failures
    rows = {row["suite"]: row for row in csv_rows(files["out.csv"])}
    problems = []
    for suite in IDENTITY_SUITES:
        row = rows.get(suite)
        if row is None:
            problems.append(f"suite {suite} missing")
        elif row["failures"] != "0" or row["passes"] != row["trials"]:
            problems.append(f"suite {suite}: {row['failures']} failures")
    return problems


def check_energy(manifest: dict, files: dict) -> list[str]:
    problems = []
    if manifest["info"]["bounds_ok"] is not True:
        problems.append("manifest bounds_ok is not true")
    rows = csv_rows(files["out.csv"])
    if len(rows) != manifest["info"]["trials"]:
        problems.append(f"{len(rows)} rows for {manifest['info']['trials']} trials")
    for row in rows:
        if not int(row["cs_lower"]) <= int(row["energy"]) <= int(row["upper"]):
            problems.append(f"trial {row['trial']}: energy outside its bounds")
    return problems


# -- per-workload work counts ----------------------------------------------


def work_growth(manifest: dict, files: dict) -> dict:
    return {
        f"p{row['p']}.{col}": int(value)
        for row in csv_rows(files["out.csv"])
        for col, value in row.items()
        if col.startswith("size_")
    }


def work_tracelab(manifest: dict, files: dict) -> dict:
    info = manifest["info"]
    return {
        "pool_size": info["pool_size"],
        "witnesses": info["witnesses"],
        "eligible": sum(s["eligible"] for s in info["per_witness"].values()),
    }


def work_lemma(manifest: dict, files: dict) -> dict:
    return {f"{row['suite']}.trials": int(row["trials"])
            for row in csv_rows(files["out.csv"])}


def work_energy(manifest: dict, files: dict) -> dict:
    rows = csv_rows(files["out.csv"])
    return {
        "trials": len(rows),
        "pairs": sum(int(r["size_x"]) * int(r["size_y"]) for r in rows),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    outputs: tuple  # file names the run writes next to --out
    seed_free: bool  # outputs do not depend on --seed
    check: Callable[[dict, dict], list]
    work: Callable[[dict, dict], dict]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


# Why these four: each is the only workload that does measurable work in
# its layers (growth: closure and ball expansion; tracelab: dyadic bins
# and the n=3 class kernels; lemma: linalg, vandermonde and the n=4
# kernels; energy: additive energy), so a change to one layer has a
# workload that shows it and three on which the prediction is no change.
# growth uses the standard generators: with random ones the work per
# seed follows |AAA| and spreads by about 30% across seeds.  energy uses
# many small trials so that the total pair count per seed is steady.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "growth",
            ("growth-curve", "--n", "2", "--p-list", "29,31,37",
             "--radius", "3", "--k", "6", "--generators", "standard"),
            ("out.csv",), True, check_growth, work_growth,
        ),
        Workload(
            "tracelab",
            ("trace-lab", "--n", "3", "--p", "7", "--radius", "8", "--k", "6"),
            ("out.csv", "out.csv.fvectors.csv"), True, check_tracelab, work_tracelab,
        ),
        Workload(
            "lemma",
            ("lemma-check", "--n", "4", "--p", "101", "--trials", "600"),
            ("out.csv",), False, check_lemma, work_lemma,
        ),
        Workload(
            "energy",
            ("energy", "--p", "10007", "--size", "300", "--trials", "1000"),
            ("out.csv",), False, check_energy, work_energy,
        ),
    )
}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def frozen_for(golden: dict, workload: Workload, seed: int):
    """The frozen digests and counts that apply to this seed, or None."""
    if workload.seed_free or seed == DEFAULT_SEED:
        return golden[workload.name]
    return None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- machine record ----------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def loadavg() -> list:
    return _read("/proc/loadavg").split()[:3]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the library sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "slgrowth").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }
