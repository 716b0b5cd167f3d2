"""The benchmark's four commands still write what perfbench/golden.json froze.

perfbench/run.py runs each workload's CLI command at seed 0 and marks
every run failed whose output digests or work counts differ from
golden.json.  This test runs the same commands in-process through
cli.main and compares the same digests, work counts and output checks,
so drift in an output fails here before a benchmark run does.  It only
reads perfbench/.
"""

import hashlib
import json
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
