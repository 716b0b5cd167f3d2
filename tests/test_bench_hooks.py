"""The traced benchmark run finds its hooks in slgrowth by name.

perfbench/traced.py wraps each function named in its LAYERS table,
looking the name up in vars() of slgrowth.cli, slgrowth.growth and
slgrowth.energy; a renamed or removed function makes the traced run
die with StopIteration.  This test only reads perfbench/.
"""

from pathlib import Path

from slgrowth import cli, energy, growth

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_layer_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced

    names = set().union(*(vars(module) for module in (cli, growth, energy)))
    assert sorted(set(traced.LAYERS.values()) - names) == []
    # install() also patches these two cli names
    assert "_DISPATCH" in vars(cli) and "SpecialLinear" in vars(cli)
