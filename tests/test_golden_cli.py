"""Frozen sha256 digests of every subcommand's output files.

Small seeded runs of each subcommand; their output bytes were frozen
before the keyed expansion kernel replaced the tuple loops (the CSV
cases and the expand JSON cases) and before one row-reduction core
replaced the separate elimination loops (the other JSON cases, the
n = 3 trace-lab and n = 4 lemma-check runs, and the p = 257 cases for
two-byte entries).  The energy cases with p = 1009 (every set drawn by
sample's set branch) and with --size above p = 7 (ten sets of k = p
elements) were frozen before the sets were read from bulk generator
words.  Any change to how balls, closures, eliminations or
reports are computed that alters an output byte fails here.  Refreeze only for a change meant to alter the
outputs, and say so where the change is logged.
"""

import hashlib

import pytest

from slgrowth import cli

# (case name, argv without --out, output suffix)
CASES = [
    ("expand-n2-csv",
     ["expand", "--n", "2", "--p", "13", "--radius", "8",
      "--generators", "random", "--seed", "3"], ".txt"),
    ("expand-n2-json",
     ["expand", "--n", "2", "--p", "7", "--radius", "3", "--format", "json"],
     ".json"),
    ("expand-n3-csv",
     ["expand", "--n", "3", "--p", "5", "--radius", "10"], ".txt"),
    ("expand-n3-json",
     ["expand", "--n", "3", "--p", "5", "--radius", "3", "--format", "json"],
     ".json"),
    ("growth-curve-random",
     ["growth-curve", "--n", "2", "--p-list", "7,11,13", "--radius", "2",
      "--k", "3", "--k", "5", "--generators", "random", "--seed", "4"], ".csv"),
    ("torus-scan",
     ["torus-scan", "--n", "2", "--p", "11", "--radius", "2", "--k", "1",
      "--k", "3", "--seed", "2"], ".csv"),
    ("trace-lab",
     ["trace-lab", "--n", "2", "--p", "11", "--radius", "3", "--k", "2"], ".csv"),
    ("vital",
     ["vital", "--n", "2", "--p", "11", "--radius", "2", "--k", "2",
      "--seed", "6"], ".csv"),
    ("lemma-check",
     ["lemma-check", "--n", "3", "--p", "7", "--trials", "30", "--seed", "3"],
     ".csv"),
    ("energy",
     ["energy", "--p", "101", "--size", "40", "--trials", "25", "--seed", "5"],
     ".csv"),
    ("growth-curve-json",
     ["growth-curve", "--n", "2", "--p-list", "7,11,13", "--radius", "2",
      "--k", "3", "--k", "5", "--generators", "random", "--seed", "4",
      "--format", "json"], ".json"),
    ("torus-scan-json",
     ["torus-scan", "--n", "2", "--p", "11", "--radius", "2", "--k", "1",
      "--k", "3", "--seed", "2", "--format", "json"], ".json"),
    ("trace-lab-n3-json",
     ["trace-lab", "--n", "3", "--p", "5", "--radius", "2", "--k", "6",
      "--format", "json"], ".json"),
    ("vital-json",
     ["vital", "--n", "2", "--p", "11", "--radius", "2", "--k", "2",
      "--seed", "6", "--format", "json"], ".json"),
    ("lemma-check-n4-json",
     ["lemma-check", "--n", "4", "--p", "11", "--trials", "20", "--seed", "3",
      "--format", "json"], ".json"),
    ("energy-json",
     ["energy", "--p", "101", "--size", "40", "--trials", "25", "--seed", "5",
      "--format", "json"], ".json"),
    ("expand-p257-json",
     ["expand", "--n", "2", "--p", "257", "--radius", "2", "--format", "json"],
     ".json"),
    ("torus-scan-p257",
     ["torus-scan", "--n", "2", "--p", "257", "--radius", "2", "--k", "1",
      "--k", "2", "--seed", "1"], ".csv"),
    ("energy-set-branch",
     ["energy", "--p", "1009", "--size", "60", "--trials", "25", "--seed", "5"],
     ".csv"),
    ("energy-whole-field",
     ["energy", "--p", "7", "--size", "9", "--trials", "25", "--seed", "5"],
     ".csv"),
]

# case name -> {output file relative to --out: sha256}
GOLDEN = {
    "expand-n2-csv": {
        "out.txt":
            "b3528062bea7830dd62af137381eb799efbb84f73e107a7349056da392c9d008",
    },
    "expand-n2-json": {
        "out.json":
            "1b2cb086a4858b61dced3fe57b5a4257ec07b89080eaa9694415769bd8395dda",
    },
    "expand-n3-csv": {
        "out.txt":
            "e05df569794cd97918c4f734f3fbe0acaf949456dc45a631ebeb5be04bb8ddc1",
    },
    "expand-n3-json": {
        "out.json":
            "d2dfeb06d85e5fa7d8ae96515da5e65e4392f2da4d00eabafce4aab37b49e33f",
    },
    "growth-curve-random": {
        "out.csv":
            "6e4c5676d08e652ac9adc46b7dbbdfbcc822fa9c477030fef558ae333942bc1a",
    },
    "torus-scan": {
        "out.csv":
            "04e3a4d16d8cb807a08a8912501a99ca8ae55ce2376b7356394641e9c716cc52",
    },
    "trace-lab": {
        "out.csv":
            "519974a623be3cdf4cb01171534fe0c24ac3dce93cb92a2aa825529f16684cee",
        "out.csv.fvectors.csv":
            "ce654c86259af856a7bb11719f6cc888d9ce6e9dad8326613865ecc2b43e27b7",
    },
    "vital": {
        "out.csv":
            "e980225b67020a75381f2d2dec3f967522c3f9a048057362beef7a8502b76efd",
    },
    "lemma-check": {
        "out.csv":
            "86a85ad16adbcf8453728102f26cd05e124516a8d86258ebe5f94ca4d7eb5868",
    },
    "energy": {
        "out.csv":
            "31a2c4f7b29e89b97f56fb8c3f96d25a4c44898d6fc0dcbced4da105868d469f",
    },
    "growth-curve-json": {
        "out.json":
            "0fa136e430a2052f81868ac7aac694f05b3c49fb5ef9c1df68c66ea20aa1017b",
    },
    "torus-scan-json": {
        "out.json":
            "65cb8193c45c567da9d058ea277e76204cafb3e629108bb1a0869a24bfab0db1",
    },
    "trace-lab-n3-json": {
        "out.json":
            "8b4931af4f9f4b6e09f20880b320c3778d5add093973bcc91bad3baa6f6e13cd",
    },
    "vital-json": {
        "out.json":
            "1871ef0620c5bb0628270bd9642eca0bc57b5f4ceaf74a4b1604ff12b4a740d3",
    },
    "lemma-check-n4-json": {
        "out.json":
            "22329f3be4605232ba59a75812bcb81fb44c72323eab490585be24a1c70650c7",
    },
    "energy-json": {
        "out.json":
            "9177056bbc6c52d9248d98cc8b94ab0ab3fc53dd0aa1f06939901d51a2175940",
    },
    "expand-p257-json": {
        "out.json":
            "26ad56d84a795b4b39d586f018174f840c1eae84e3ef7d397a9d5221daaccb6f",
    },
    "torus-scan-p257": {
        "out.csv":
            "c07fc7bd6328fbbad80cd94681586377fd862e4eb96884ab1dc8e5b6fe6dff9a",
    },
    "energy-set-branch": {
        "out.csv":
            "3112f7ec9bdf56db6633556da113a48f26c975703d31e078d6943cf4de46a267",
    },
    "energy-whole-field": {
        "out.csv":
            "7e959eb6d41e09bbdbfd703af6ab608e01df564aa6724c2278bfcce18fee89d9",
    },
}


def run_case(tmp_path, argv, suffix) -> dict:
    """Run one case; return {output name relative to --out: sha256}."""
    out = "out" + suffix
    assert cli.main(argv + ["--out", str(tmp_path / out)]) == 0
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in (out, out + ".fvectors.csv")
        if (tmp_path / name).exists()
    }


@pytest.mark.parametrize("name,argv,suffix", CASES, ids=[c[0] for c in CASES])
def test_output_digests_frozen(tmp_path, capsys, name, argv, suffix):
    digests = run_case(tmp_path, argv, suffix)
    capsys.readouterr()
    assert digests == GOLDEN[name]
