"""The benchmark finds its hooks in slgrowth by name.

perfbench/traced.py wraps each function named in its LAYERS table,
looking the name up in vars() of slgrowth.cli, slgrowth.growth and
slgrowth.energy; a renamed or removed function makes the traced run
die with StopIteration.  perfbench/kernels.py times SpecialLinear
methods, and traced.install patches one, so a renamed or deleted
method fails the benchmark run; the kernel benchmark is also run once
here, end to end.  These tests only read perfbench/.
"""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from slgrowth import SpecialLinear, cli, energy, growth

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_layer_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced

    names = set().union(*(vars(module) for module in (cli, growth, energy)))
    assert sorted(set(traced.LAYERS.values()) - names) == []
    # install() also patches these two cli names
    assert "_DISPATCH" in vars(cli) and "SpecialLinear" in vars(cli)
    # cli's forwarders import their targets only when called, so check
    # here that each target exists in its home module
    forwarders = {name: value.target for name, value in vars(cli).items()
                  if callable(value) and hasattr(value, "target")}
    assert {"dyadic_bins", "class_tuple", "trace_tuple", "lindep_suite"} <= set(forwarders)
    for name, (module, target) in forwarders.items():
        assert target == name
        home = importlib.import_module(f"slgrowth.{module}")
        assert callable(getattr(home, target, None)), f"{module}.{target}"


def attributes_of(script: str, name: str) -> set:
    """Every attribute a perfbench script takes of the variable `name`."""
    tree = ast.parse((PERFBENCH / script).read_text())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == name}


def test_kernel_methods_resolve():
    used = attributes_of("kernels.py", "space")
    assert used >= {"random_element", "mul", "inv", "char_poly", "classify_semisimple"}
    space = SpecialLinear(2, 5)
    assert sorted(name for name in used if not callable(getattr(space, name, None))) == []


def test_patched_space_methods_resolve():
    used = attributes_of("traced.py", "space_cls")
    assert "split_eigenvalues" in used
    assert sorted(name for name in used if not hasattr(SpecialLinear, name)) == []


def test_kernel_benchmark_runs():
    """perfbench/kernels.py prints all 12 kernel metrics, each a finite
    positive number of ns per call."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(PERFBENCH / "kernels.py"), "--seed", "0"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout)
    names = {f"matrices.{op}_ns.n{n}" for op in ("mul", "inv", "char_poly", "classify_semisimple")
             for n in (2, 3, 4)}
    assert set(metrics) == names
    assert all(math.isfinite(ns) and ns > 0 for ns in metrics.values())
