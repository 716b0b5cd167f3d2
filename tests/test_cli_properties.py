"""Property test: every command line ends in a documented exit code.

Random flag lists and config files, built from small valid values with
some invalid ones mixed in, go through `cli.main` in this process.  A
run is either rejected before it starts (exit 2, nothing on stdout, the
reason or argparse's usage on stderr) or prints exactly one standard
JSON manifest whose status gives the exit code, and leaves on disk
exactly the files that manifest lists.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from slgrowth import cli

# per key: (small valid values, invalid ones); --budget-elems is set
# apart because every run passes it
VALUES = {
    "n": ([2, 3], [1]),
    "p": ([3, 5, 7, 11], [2, 9]),
    "p_list": ([[5, 7], [11], []], [[5, 9]]),
    "generators": (["standard", "random"], ["other"]),
    "seed": ([0, 1, -3], []),
    "count": ([1, 2, 3], [0]),
    "radius": ([1, 2, 3], [0]),
    "k_list": ([[1], [2, 3]], [[0]]),
    "delta": (["1/2", "1/3", 0.25], ["1/0", "0", 1, "half"]),
    "budget_secs": ([30, 1e-9], [math.nan, math.inf, 0, -1]),
    "format": (["csv", "json"], ["xml"]),
    "trials": ([1, 8], [0]),
    "size": ([1, 8], [0]),
    "workers": ([], [1]),  # no longer a key
}
# a config file may also hold a value of the wrong JSON type
WRONG_TYPES = [None, True, 2.5, "3", [1, "2"], {"n": 2}]


def _flag_args(key: str, value) -> list:
    if key == "k_list":
        return [arg for k in value for arg in ("--k", str(k))]
    flag = "--" + key.replace("_", "-")
    if isinstance(value, list):
        return [flag, ",".join(map(str, value))]
    return [flag, str(value)]


@st.composite
def command_lines(draw):
    """(argv, config dict or None).  Each key gets a small valid value by
    flag, config file, both or neither; in about half the cases one key
    instead gets one invalid value from one source.  --budget-elems is
    always a flag, at most 5000 when valid, which keeps the SL_3
    closures and products small."""
    wrong = None
    if draw(st.booleans()):
        wrong = draw(st.sampled_from([*VALUES, "budget_elems"]))
    budget = ["0", "x"] if wrong == "budget_elems" else ["5000", "50", "1"]
    argv = [draw(st.sampled_from(cli.SUBCOMMANDS)),
            "--budget-elems", draw(st.sampled_from(budget))]
    config = {}
    for key, (valid, invalid) in VALUES.items():
        if key == wrong:
            sources = [draw(st.sampled_from(["flag", "config"]))]
        elif valid:
            sources = draw(st.sampled_from(
                [[], ["flag"], ["config"], ["flag", "config"]]))
        else:
            sources = []
        for source in sources:
            bad = invalid + (["x"] if source == "flag" else WRONG_TYPES)
            value = draw(st.sampled_from(bad if key == wrong else valid))
            if source == "flag":
                argv += _flag_args(key, value)
            else:
                config[key] = value
    return argv, config or None


def _no_constant(name):
    raise ValueError(f"{name} is not standard JSON")


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
@example((["lemma-check", "--trials", "2", "--delta", "1/0"], None))
@example((["lemma-check", "--trials", "2"], {"delta": "1/0"}))
@example((["expand", "--n", "2", "--p", "5", "--budget-secs", "nan"], None))
@example((["expand", "--n", "2", "--p", "5"], {"budget_secs": math.nan}))
@example((["expand", "--n", "2", "--p", "5", "--budget-secs", "inf"], None))
# SL_2(F_3) has no split regular element for the lindep suite
@example((["lemma-check", "--n", "2", "--p", "3", "--trials", "1"], None))
def test_every_command_line_ends_in_a_documented_exit_code(tmp_path, case):
    argv, config = case
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        out = str(Path(work) / "out.csv")
        if config is not None:
            config_path = Path(work) / "run.json"
            config_path.write_text(json.dumps(config))
            argv = argv + ["--config", str(config_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv + ["--out", out])
            except SystemExit as exc:  # argparse rejects the flags
                assert exc.code == 2
                code = None
        written = {str(path) for path in Path(work).iterdir()} - {
            str(Path(work) / "run.json")}
        if not stdout.getvalue():
            assert code in (None, 2)
            assert stderr.getvalue().startswith(
                "usage: slgrowth" if code is None else "configuration error: ")
            assert written == set()
            return
        assert code in (0, 2, 3, 4)
        manifest = json.loads(stdout.getvalue(), parse_constant=_no_constant)
        assert cli._STATUS_EXIT[manifest["status"]] == code
        if manifest["status"] == "ok":
            assert written == {*manifest["outputs"], out + ".manifest.json"}
        else:
            assert written == set(manifest["outputs"]) == set()
