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
this is what keeps unreached code from piling up again.
"""

import ast
from collections import Counter
from itertools import chain
from pathlib import Path

import slgrowth

PACKAGE = Path(slgrowth.__file__).resolve().parent

KEPT = {
    "SpecialLinear.classify_semisimple": "perfbench/kernels.py times it",
    "SpecialLinear.random_element": "the per-call reference for elements; "
                                    "tests and perfbench/kernels.py call it",
    "class_tuple": "perfbench/traced.py looks it up in slgrowth.cli",
    "trace_tuple": "perfbench/traced.py looks it up in slgrowth.cli",
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
