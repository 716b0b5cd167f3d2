"""End-to-end command-line runs: exit codes, manifests, determinism."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slgrowth import SpecialLinear, cli, growth, matrices, standard_generators, word_ball

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr().out
    # the manifest is the pretty-printed JSON object at the end of stdout
    start = out.index("{\n")
    return code, out[:start], json.loads(out[start:])


def test_expand_ok_with_manifest_digests(capsys, tmp_path):
    target = str(tmp_path / "ball.txt")
    code, _, manifest = run_cli(
        capsys, ["expand", "--n", "2", "--p", "5", "--radius", "3", "--out", target]
    )
    assert code == 0
    assert manifest["status"] == "ok"
    data = open(target, "rb").read()
    assert manifest["outputs"][target] == hashlib.sha256(data).hexdigest()
    sidecar = json.loads(open(target + ".manifest.json").read())
    assert sidecar == manifest
    first = data.decode().splitlines()[0]
    assert first.startswith("n=2 p=5 count=")


def test_expand_saturates_whole_group(capsys, tmp_path):
    target = str(tmp_path / "full.txt")
    code, _, manifest = run_cli(
        capsys, ["expand", "--n", "2", "--p", "5", "--radius", "99", "--out", target]
    )
    assert code == 0
    assert manifest["info"]["ball_size"] == 120
    assert manifest["info"]["saturated"] is True
    lines = open(target).read().splitlines()
    assert lines[0] == "n=2 p=5 count=120"
    assert len(lines) == 121


def test_expand_json_format(capsys, tmp_path):
    target = str(tmp_path / "ball.json")
    code, _, manifest = run_cli(
        capsys,
        ["expand", "--n", "2", "--p", "5", "--radius", "2", "--format", "json",
         "--out", target],
    )
    assert code == 0
    payload = json.loads(open(target).read())
    assert payload["n"] == 2 and payload["p"] == 5
    assert payload["count"] == len(payload["elements"])
    assert all(len(h) == 8 for h in payload["elements"])  # 4 bytes hex


def test_expand_data_on_stdout_without_out(capsys):
    code, data, manifest = run_cli(capsys, ["expand", "--n", "2", "--p", "5"])
    assert code == 0
    assert manifest["outputs"] == {}
    lines = data.splitlines()
    assert lines[0].startswith("n=2 p=5 count=")
    assert len(lines) == int(lines[0].split("count=")[1]) + 1


def test_exit_code_config_error_composite_p(capsys):
    code = cli.main(["expand", "--n", "2", "--p", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err
    assert "prime" in captured.err


def test_wide_p_is_rejected_before_the_primality_test():
    """2^61 - 1 is prime, but trial division would take hours: the
    entry-width check has to come first.  Subprocesses, so that a hang
    fails by timeout instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (["expand", "--n", "2"], ["energy", "--trials", "1"]):
        proc = subprocess.run(
            [sys.executable, "-m", "slgrowth.cli", *argv, "--p", str(2**61 - 1)],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith(
            "configuration error: entries wider than two bytes"), argv
        assert proc.stdout == ""


def test_config_checks_build_no_product_kernel(monkeypatch, capsys, tmp_path):
    """The config checks (entry width, prime, odd, p > n) build no mul
    kernel, whose source grows as n^3: energy does no matrix work, so
    it runs at n = 200, and p <= n is still a config error."""
    def refuse(n, p):
        raise AssertionError(f"mul kernel built for n={n}, p={p}")

    monkeypatch.setattr(matrices, "_make_mul", refuse)
    argv = ["energy", "--n", "200", "--size", "5", "--trials", "1"]
    assert cli.main([*argv, "--p", "211", "--out", str(tmp_path / "e.csv")]) == 0
    assert cli.main([*argv, "--p", "199"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: experiments require p > n, got p=199, n=200\n")


def test_exit_code_config_error_from_dispatch(capsys):
    # SL_2(F_3) has no split regular elements, so the witness scan comes
    # back empty only after the run has started; the manifest records it
    code, _, manifest = run_cli(
        capsys, ["vital", "--n", "2", "--p", "3", "--radius", "2", "--k", "2"]
    )
    assert code == 2
    assert manifest["status"] == "config-error"
    assert "witnesses" in manifest["error"]


def test_exit_code_budget_exceeded(capsys):
    code, _, manifest = run_cli(
        capsys,
        ["expand", "--n", "2", "--p", "7", "--radius", "10", "--budget-elems", "20"],
    )
    assert code == 3
    assert manifest["status"] == "budget-exceeded"
    assert manifest["info"]["partial_count"] > 20


def test_lemma_check_honours_budget_secs():
    """6,000 trials take seconds; the clock is checked once per block of
    each suite, so the run ends in about the budget, exit 3 with one
    manifest that names the suite.  A subprocess, so that a run that
    ignores the budget fails by timeout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "slgrowth.cli", "lemma-check", "--n", "4", "--p", "101",
         "--trials", "6000", "--budget-secs", "0.05"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    manifest = json.loads(proc.stdout)
    assert manifest["status"] == "budget-exceeded"
    assert manifest["info"]["stage"] in {"vander-identity", "f-identity",
                                         "kappa-conjugation", "lindep",
                                         "cyclic-nonvanishing"}
    assert manifest["info"]["partial_count"] < 6000
    assert manifest["wall_seconds"] < 0.05 + 1.0


@pytest.mark.parametrize("stage", ["vander-identity", "f-identity", "kappa-conjugation",
                                   "lindep", "cyclic-nonvanishing"])
def test_lemma_check_budget_names_each_suite(monkeypatch, capsys, stage):
    """Each suite checks the one clock under its own name: expire the
    deadline for one stage only, and the run stops at its first block."""
    check_deadline = growth.check_deadline

    def expire_for_stage(count, budget, deadline, what):
        check_deadline(count, budget, 0.0 if what == stage else deadline, what)

    monkeypatch.setattr(growth, "check_deadline", expire_for_stage)
    code, _, manifest = run_cli(capsys, ["lemma-check", "--n", "3", "--p", "7",
                                         "--trials", "40", "--budget-secs", "100"])
    assert code == 3
    assert manifest["info"] == {"stage": stage, "partial_count": 0}


def test_exit_code_generation_failed(capsys):
    code, _, manifest = run_cli(
        capsys,
        ["expand", "--n", "2", "--p", "5", "--generators", "random",
         "--count", "1", "--seed", "1"],
    )
    assert code == 4
    assert manifest["status"] == "generation-failed"


def test_config_file_merge_and_flag_override(capsys, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"n": 2, "p": 7, "trials": 10, "seed": 4}))
    code, _, manifest = run_cli(
        capsys, ["lemma-check", "--config", str(cfg_path), "--p", "5"]
    )
    assert code == 0
    assert manifest["config"]["p"] == 5  # flag wins
    assert manifest["config"]["n"] == 2
    assert manifest["config"]["trials"] == 10
    assert manifest["config"]["seed"] == 4


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    # "workers" named a thread count that expansion never used
    for unknown in ({"frobs": 1}, {"workers": 1}):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"n": 2, **unknown}))
        code = cli.main(["expand", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("configuration error: unknown config keys")
        assert captured.out == ""


@pytest.mark.parametrize("key, value", [
    ("n", "3"), ("p", 7.0), ("p_list", [7, "11"]), ("generators", 1),
    ("seed", True), ("count", 2.0), ("radius", "2"), ("k_list", 2),
    ("delta", [1, 2]), ("budget_elems", False), ("budget_secs", "1"),
    ("out", 5), ("format", ["csv"]), ("workers", 1.5), ("trials", None),
    ("size", "64"),
])
def test_config_file_rejects_wrong_typed_values(capsys, tmp_path, key, value):
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps({key: value}))
    code = cli.main(["lemma-check", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("configuration error: ")
    assert captured.out == ""


def test_closed_stdout_exits_2_without_traceback():
    """A reader that closes the pipe before the manifest is written."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "slgrowth.cli", "energy", "--p", "31",
         "--size", "5", "--trials", "1", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == b""


def test_config_file_must_hold_an_object(capsys, tmp_path):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("5")
    code = cli.main(["expand", "--config", str(cfg_path)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where", ["directory", "missing-parent", "sidecar", "fvectors-sidecar"]
)
def test_unwritable_out_is_a_config_error(capsys, tmp_path, where):
    argv = ["expand", "--n", "2", "--p", "5"]
    target = tmp_path / "ball.txt"
    made = []
    if where == "directory":
        target = tmp_path
    elif where == "missing-parent":
        target = tmp_path / "nope" / "ball.txt"
    elif where == "sidecar":
        made.append(tmp_path / "ball.txt.manifest.json")
    else:
        # the primary file could be written; the run must not leave it
        argv = ["trace-lab", "--n", "2", "--p", "7", "--radius", "2"]
        made.append(tmp_path / "ball.txt.fvectors.csv")
    for path in made:
        path.mkdir()
    code = cli.main(argv + ["--out", str(target)])
    out = capsys.readouterr().out
    assert code == 2
    manifest = json.loads(out)  # exactly one manifest, nothing else
    assert manifest["status"] == "config-error"
    assert manifest["error"]
    assert manifest["outputs"] == {}
    assert not target.is_file()
    assert sorted(tmp_path.iterdir()) == made
    assert not list(target.parent.glob(target.name + ".*.tmp"))


def test_failed_rename_lists_the_files_already_placed(capsys, tmp_path,
                                                      monkeypatch):
    """Renames go one by one: when one fails, the files renamed before it
    stay on disk and the manifest lists exactly those."""
    target = tmp_path / "lab.csv"
    fvectors = tmp_path / "lab.csv.fvectors.csv"
    replace = cli.os.replace

    def failing_replace(src, dst):
        if dst == str(fvectors):
            raise PermissionError(f"cannot replace {dst}")
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    code, _, manifest = run_cli(
        capsys, ["trace-lab", "--n", "2", "--p", "7", "--radius", "2",
                 "--out", str(target)]
    )
    assert code == 2
    assert manifest["status"] == "config-error"
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert manifest["outputs"] == {str(target): digest}
    assert sorted(tmp_path.iterdir()) == [target]


def test_uncaught_error_leaves_no_staged_file(tmp_path, monkeypatch):
    target = tmp_path / "ball.txt"

    def broken(cfg, outputs):
        cli._emit(cfg, outputs, b"partial\n")
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._DISPATCH, "expand", broken)
    with pytest.raises(KeyboardInterrupt):
        cli.run(cli.ExperimentConfig(out=str(target)), "expand")
    assert list(tmp_path.iterdir()) == []


def test_lemma_check_csv_dialect_and_counts(capsys, tmp_path):
    target = str(tmp_path / "lemmas.csv")
    code, _, manifest = run_cli(
        capsys,
        ["lemma-check", "--n", "2", "--p", "7", "--trials", "30", "--seed", "3",
         "--out", target],
    )
    assert code == 0
    raw = open(target, "rb").read()
    assert b"\r" not in raw and b'"' not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "suite,n,p,trials,passes,failures"
    body = [line.split(",") for line in lines[1:]]
    names = [row[0] for row in body]
    assert names == ["vander-identity", "f-identity", "kappa-conjugation",
                     "lindep", "cyclic-nonvanishing"]
    for row in body:
        assert int(row[4]) + int(row[5]) == int(row[3])
    for row in body[:4]:  # the identity suites must never fail
        assert int(row[5]) == 0
    assert manifest["info"]["vander-identity"]["passes"] == 30


def test_growth_curve_row_per_prime_in_given_order(capsys, tmp_path):
    target = str(tmp_path / "curve.csv")
    code, _, manifest = run_cli(
        capsys,
        ["growth-curve", "--n", "2", "--p-list", "7,5,11", "--radius", "2",
         "--k", "2", "--out", target],
    )
    assert code == 0
    assert manifest["info"]["primes"] == [7, 5, 11]
    lines = open(target).read().splitlines()
    assert len(lines) == 4
    assert [line.split(",")[1] for line in lines[1:]] == ["7", "5", "11"]


def test_torus_scan_csv_header(capsys, tmp_path):
    target = str(tmp_path / "tori.csv")
    code, _, _ = run_cli(
        capsys,
        ["torus-scan", "--n", "2", "--p", "7", "--radius", "2", "--k", "1",
         "--k", "2", "--out", target],
    )
    assert code == 0
    lines = open(target).read().splitlines()
    assert lines[0] == ("witness_kappa,torus_order,split,"
                        "intersection_k1,richness_k1,intersection_k2,richness_k2")
    assert len(lines) > 1


def test_trace_lab_writes_fvector_sidecar(capsys, tmp_path):
    target = str(tmp_path / "bins.csv")
    code, _, manifest = run_cli(
        capsys,
        ["trace-lab", "--n", "2", "--p", "7", "--radius", "2", "--out", target],
    )
    assert code == 0
    sidecar = target + ".fvectors.csv"
    assert set(manifest["outputs"]) == {target, sidecar}
    for path, digest in manifest["outputs"].items():
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest
    assert open(sidecar).read().splitlines()[0] == "t_kappa,r0,r1"


# the slgrowth modules each subcommand loads, besides cli, errors, field,
# matrices, polys and _version, which parsing and validation need
SUBCOMMAND_MODULES = [
    (["expand", "--n", "2", "--p", "5"], {"growth"}),
    (["growth-curve", "--n", "2", "--p-list", "5,7", "--radius", "2", "--k", "2"],
     {"growth"}),
    (["torus-scan", "--n", "2", "--p", "7", "--radius", "2", "--k", "2"],
     {"growth", "torus"}),
    (["trace-lab", "--n", "3", "--p", "7", "--radius", "3", "--k", "3"],
     {"growth", "tracelab", "vandermonde"}),
    (["lemma-check", "--n", "4", "--p", "101", "--trials", "20"],
     {"draws", "growth", "lemmas", "tracelab", "vandermonde"}),
    (["energy", "--p", "101", "--trials", "5", "--size", "10"], {"draws", "energy"}),
    (["vital", "--n", "2", "--p", "11", "--radius", "2", "--k", "2"],
     {"energy", "growth", "tracelab", "vandermonde", "vital"}),
]


def test_each_subcommand_imports_only_its_layers(tmp_path):
    """A run loads the slgrowth modules its subcommand executes and no
    others, so that set-up time and peak RSS follow what it runs.
    numpy.ma (pulled in by np.unique, among others) adds about 1.7 MB
    to the peak RSS of a run that never needs it.  Neither trace-lab's
    shift table nor lemma-check's split regular blocks may load it.  Nor
    may the digests load OpenSSL (hashlib's _hashlib, about 3.5 MB) where
    the interpreter has a builtin sha256."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = ("import json, sys\n"
              "from slgrowth import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "sys.stderr.write(json.dumps([code, 'numpy.ma' in sys.modules,\n"
              "                             '_hashlib' in sys.modules,\n"
              "                             sorted(m for m in sys.modules\n"
              "                                    if m.startswith('slgrowth.'))]))\n")
    builtin_sha256 = any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2"))
    base = {"cli", "errors", "field", "matrices", "polys", "_version"}
    for argv, layers in SUBCOMMAND_MODULES:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--out", str(tmp_path / "out.csv")],
            capture_output=True, env=env, timeout=120,
        )
        code, numpy_ma, hashlib_loaded, modules = json.loads(proc.stderr)
        assert code == 0, argv
        assert modules == sorted(f"slgrowth.{m}" for m in base | layers), argv
        assert hashlib_loaded == (not builtin_sha256), argv
        if argv[0] in ("trace-lab", "lemma-check"):
            assert not numpy_ma, argv
    # the package root alone loads neither numpy nor a submodule
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, slgrowth\n"
         "print(sorted(m for m in sys.modules if m.startswith(('slgrowth', 'numpy'))))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.stdout.strip() == repr(["slgrowth", "slgrowth._version"])


def test_missing_out_directory_fails_before_the_run(capsys, tmp_path,
                                                    monkeypatch):
    calls = []
    monkeypatch.setitem(cli._DISPATCH, "trace-lab",
                        lambda cfg, outputs: calls.append(cfg) or {})
    (tmp_path / "file").write_text("")
    for target in (tmp_path / "no" / "such" / "out.csv",
                   tmp_path / "file" / "out.csv"):
        code, _, manifest = run_cli(
            capsys, ["trace-lab", "--n", "3", "--p", "7", "--out", str(target)])
        assert code == 2
        assert manifest["status"] == "config-error"
        assert str(target) in manifest["error"]
        assert manifest["outputs"] == {}
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_energy_rows_stay_inside_bounds(capsys, tmp_path):
    target = str(tmp_path / "energy.csv")
    code, _, manifest = run_cli(
        capsys,
        ["energy", "--p", "101", "--size", "40", "--trials", "25", "--seed", "5",
         "--out", target],
    )
    assert code == 0
    assert manifest["info"]["bounds_ok"] is True
    lines = open(target).read().splitlines()
    assert lines[0].split(",") == ["trial", "p", "size_x", "size_y", "energy",
                                   "support", "cs_lower", "upper"]
    assert len(lines) == 26
    for line in lines[1:]:
        row = line.split(",")
        assert int(row[6]) <= int(row[4]) <= int(row[7])
        nx, ny, support = int(row[2]), int(row[3]), int(row[5])
        assert max(nx, ny) <= support <= min(101, nx * ny)
        assert int(row[6]) == -(-((nx * ny) ** 2) // support)


def test_vital_smoke(capsys, tmp_path):
    target = str(tmp_path / "vital.csv")
    code, _, manifest = run_cli(
        capsys,
        ["vital", "--n", "2", "--p", "11", "--radius", "2", "--k", "2",
         "--out", target],
    )
    assert code == 0
    lines = open(target).read().splitlines()
    assert lines[0].startswith("row_type,y,fiber_size")
    assert lines[-1].startswith("summary,")


def test_reruns_are_byte_identical(capsys, tmp_path):
    args = ["growth-curve", "--n", "2", "--p", "7", "--radius", "2", "--k", "2",
            "--seed", "12"]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    code_a, _, man_a = run_cli(capsys, args + ["--out", a])
    code_b, _, man_b = run_cli(capsys, args + ["--out", b])
    assert code_a == code_b == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert man_a["outputs"][a] == man_b["outputs"][b]


# one small run per subcommand; each is run in both formats
STDOUT_CASES = [
    ["expand", "--n", "2", "--p", "5", "--radius", "2"],
    ["growth-curve", "--n", "2", "--p-list", "5,7", "--radius", "2", "--k", "2"],
    ["torus-scan", "--n", "2", "--p", "7", "--radius", "2", "--k", "1", "--k", "2"],
    ["trace-lab", "--n", "2", "--p", "7", "--radius", "2"],
    ["lemma-check", "--n", "2", "--p", "7", "--trials", "10"],
    ["energy", "--p", "31", "--size", "10", "--trials", "5"],
    ["vital", "--n", "2", "--p", "11", "--radius", "2", "--k", "2"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", STDOUT_CASES, ids=[c[0] for c in STDOUT_CASES])
def test_stdout_data_matches_out_file(capsys, tmp_path, argv, fmt):
    argv = argv + ["--format", fmt]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    # the manifest (keys sorted, so "config" first) follows the data
    printed = out[:out.rindex('{\n  "config": ')]
    target = tmp_path / "data"
    assert cli.main(argv + ["--out", str(target)]) == 0
    capsys.readouterr()
    assert printed.encode() == target.read_bytes()  # trace-lab: the primary


def test_csv_cells_are_spelled_as_json_values(capsys):
    outputs = {}
    records = [
        {"s": "a|b", "b": True, "i": 7, "f": 1 / 3, "unused": 0},
        {"b": False, "f": 1e-07},
    ]
    cli._emit_records(cli.ExperimentConfig(), outputs,
                      ["s", "b", "i", "f", "missing"], records)
    assert capsys.readouterr().out == (
        "s,b,i,f,missing\n"
        "a|b,true,7,0.3333333333333333,\n"
        ",false,,1e-07,\n"
    )
    assert outputs == {}
    assert cli._cell("0.5") == "0.5" and cli._cell(0.5) == repr(0.5)


def witnesses_by_element(space, source):
    """_witnesses_for's rule, one split_eigenvalues call per member."""
    by_kappa = {}
    for g in sorted(source.members):
        if space.split_eigenvalues(g) is not None:
            by_kappa.setdefault(space.char_poly(g), g)
    return [by_kappa[k] for k in sorted(by_kappa)]


@pytest.mark.parametrize("n, p, radius", [(2, 7, 4), (2, 31, 4), (3, 7, 3), (2, 65521, 3)])
def test_witnesses_equal_the_per_element_filter(n, p, radius):
    """The witness ball is classified in batches by the root tables of
    split_regulars; the witnesses are those of a split_eigenvalues
    call per member."""
    space = SpecialLinear(n, p)
    ball = word_ball(standard_generators(space), radius)
    want = witnesses_by_element(space, ball)
    assert cli._witnesses_for(space, ball) == want
    assert want
