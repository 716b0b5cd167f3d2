"""Every definition in src/slgrowth is reached from elsewhere in src/.

A top-level def or class must be named by other code of the package,
as a name it loads or as an attribute; a method, other than a dunder,
must be named as an attribute.  The check goes by name alone, so two
methods called alike count for each other: it catches a definition
that nothing in the package names at all.  An attribute named like a
method of str, bytes, list, dict, set, frozenset, tuple, int or
itertools.chain counts for nothing, since `data.decode()` is as likely
bytes.decode and `chain.from_iterable` is itertools'.  The few definitions
kept for callers outside src/, and those whose names builtins share,
are listed in KEPT with the reason.  The repository has no linter, so
this is what keeps unreached code from piling up again.  For the same
reason every imported name must be loaded in the module that imports it.
"""

import ast
import importlib
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import slgrowth

PACKAGE = Path(slgrowth.__file__).resolve().parent

KEPT = {
    "SpecialLinear.classify_semisimple": "perfbench/kernels.py times it",
    "SpecialLinear.random_element": "the per-call reference for elements; "
                                    "tests and perfbench/kernels.py call it",
    "class_tuple": "perfbench/traced.py looks up slgrowth.cli's forwarder to it",
    "trace_tuple": "perfbench/traced.py looks up slgrowth.cli's forwarder to it",
    "__getattr__": "called by the import system (PEP 562)",
    "__dir__": "called by the import system (PEP 562)",
    "fiber_bound_check": "paper API: the fiber bound, checked by the acceptance tests",
    "full_group": "paper API: the group G itself",
    "wealth": "paper API: the definition dyadic_bins computes in bulk",
    # named like a builtin method, so only the reason shows them reached
    "_KeyedExpander.join": "generated_closure joins its shells into a frontier with it",
    "_TupleExpander.join": "generated_closure joins its shells into a frontier with it",
    "SpecialLinear.encode": "ElementSet.dump_lines and kappa_hex write elements with it",
    "SpecialLinear.decode": "tests read expand dumps back with it",
}


def parse_package() -> list:
    return [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]


def definitions(trees):
    """(qualified name, node, method?) for every top-level def or class
    and every method of a top-level class that is not a dunder."""
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        yield f"{node.name}.{sub.name}", sub, True


# `x.decode()` may be bytes.decode, so a builtin's method name is no
# evidence that the package calls its own method of that name
BUILTIN_METHODS = {
    name
    for kind in (str, bytes, list, dict, set, frozenset, tuple, int, chain)
    for name in dir(kind)
    if not name.startswith("__")
}


def mentions(root) -> tuple[Counter, Counter]:
    """How often each name is loaded, and each attribute named, under
    root; attributes named like a builtin method are not counted."""
    loads, attributes = Counter(), Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads[node.id] += 1
        elif isinstance(node, ast.Attribute) and node.attr not in BUILTIN_METHODS:
            attributes[node.attr] += 1
    return loads, attributes


def test_every_definition_is_reached_from_src():
    trees = parse_package()
    loads, attributes = Counter(), Counter()
    for tree in trees:
        tree_loads, tree_attributes = mentions(tree)
        loads += tree_loads
        attributes += tree_attributes
    unreached = []
    for qualified, node, method in definitions(trees):
        name = node.name
        own_loads, own_attributes = mentions(node)  # a recursive call is no caller
        outside = attributes[name] - own_attributes[name]
        if not method:
            outside += loads[name] - own_loads[name]
        if not outside and qualified not in KEPT:
            unreached.append(qualified)
    assert unreached == []


def test_kept_names_are_definitions():
    qualified = {name for name, _, _ in definitions(parse_package())}
    assert sorted(set(KEPT) - qualified) == []


def test_all_names_resolve():
    assert len(set(slgrowth.__all__)) == len(slgrowth.__all__)
    assert [name for name in slgrowth.__all__ if not hasattr(slgrowth, name)] == []


def test_lazy_root_resolves_every_public_name():
    """The package root imports a name's module on first access (PEP
    562): each public name is the object its defining module holds, and
    dir, `import *` and submodule imports see the package as before."""
    for name in slgrowth.__all__:
        value = getattr(slgrowth, name)
        if name == "__version__":
            continue
        home = importlib.import_module(f"slgrowth.{slgrowth._HOME[name]}")
        assert value is vars(home)[name], name
        # a function or class is listed under the module that defines it
        if getattr(value, "__module__", "").startswith("slgrowth."):
            assert value.__module__ == home.__name__, name
    assert set(dir(slgrowth)) >= set(slgrowth.__all__)
    namespace: dict = {}
    exec("from slgrowth import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(slgrowth.__all__)
    with pytest.raises(AttributeError):
        getattr(slgrowth, "no_such_name")
    from slgrowth import draws, polys

    assert polys.__name__ == "slgrowth.polys" and draws.__name__ == "slgrowth.draws"


def test_every_import_is_loaded():
    """Each name an import binds in a module of src/slgrowth is loaded
    there, save `from __future__ import annotations`, the re-exports of
    __init__.__all__ and imports marked `# noqa: F401`."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        loads, _ = mentions(tree)
        exempt = set(slgrowth.__all__) if path.name == "__init__.py" else set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loads and bound not in exempt:
                    unused.append(f"{path.name}: {bound}")
    assert unused == []
