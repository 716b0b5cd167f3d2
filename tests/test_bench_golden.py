"""The benchmark's four commands still write what perfbench/golden.json froze.

perfbench/run.py runs each workload's CLI command at seed 0 and marks
every run failed whose output digests or work counts differ from
golden.json.  This test runs the same commands in-process through
cli.main and compares the same digests, work counts and output checks,
so drift in an output fails here before a benchmark run does.  The
traced run (perfbench/traced.py, behind `run.py --trace 1`) is held to
golden.json's traced work counts the same way.  It only reads
perfbench/.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from slgrowth import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_benchmark_outputs_match_golden(tmp_path, capsys, monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name]
    argv = [*workload.argv, "--seed", str(workloads.DEFAULT_SEED),
            "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 0
    manifest = json.loads(capsys.readouterr().out)
    files = {out: (tmp_path / out).read_bytes() for out in workload.outputs}
    digests = {out: hashlib.sha256(data).hexdigest() for out, data in files.items()}
    assert digests == GOLDEN[name]["digests"]
    assert workload.work(manifest, files) == GOLDEN[name]["work"]
    assert workload.check(manifest, files) == []


@pytest.mark.parametrize("name", ["growth", "tracelab"])
def test_traced_work_matches_golden(tmp_path, name):
    """The work counts of one traced run, which run.py --trace 1 checks
    against traced_work; on growth they count the elements of every
    closure and ball that the wrapped functions return."""
    cmd = [sys.executable, str(PERFBENCH / "traced.py"), "--workload", name,
           "--seed", "0", "--out", str(tmp_path / "out.csv"),
           "--spans", str(tmp_path / "spans.json"), "--spawned", repr(time.monotonic())]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # nothing written under perfbench/
    done = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout.splitlines()[-1])
    assert traced["cli_exit"] == 0
    assert traced["work"] == GOLDEN[name]["traced_work"]
    if name == "growth":
        assert (traced["work"]["closure_elems"], traced["work"]["ball_elems"]) == (104_736, 94_530)
