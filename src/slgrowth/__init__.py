"""Exact-arithmetic laboratory for product growth in SL_n(F_p).

Finite special linear groups over prime fields, word-ball expansion and
tripling statistics, maximal tori through centralizers of regular
semisimple elements, shifted-trace invariants with dyadic wealth bins,
the Cayley-Hamilton coefficient map and its fiber bounds, generalized
Vandermonde identities, and additive energy of trace sets.  Everything
is integer arithmetic mod p; floats appear only in final ratios.
"""

import importlib

from ._version import __version__

# public name -> the module that defines it, listed once per module; a
# name's module is imported when the name is first asked for (PEP 562),
# so `import slgrowth` alone loads no numpy and no group code
_EXPORTS = {
    "errors": ("BudgetExceeded", "DEFAULT_MAX_ELEMENTS", "FiberBoundViolation",
               "GenerationFailed", "Indeterminate", "InvalidWitness", "NoBins",
               "NotInGroup", "SingularMatrix", "SlgrowthError", "UnsupportedTorus"),
    "field": ("PrimeField", "is_prime"),
    "matrices": ("Mat", "SemisimplicityClass", "SpecialLinear"),
    "growth": ("Budget", "DEFAULT_BUDGET", "ElementSet", "GrowthReport", "full_group",
               "generated_closure", "generates", "growth_scan", "standard_generators",
               "symmetrized", "triple_product", "word_ball"),
    "vandermonde": ("cyclic_product_coordinates", "elementary_symmetric",
                    "omit_one_dets", "vandermonde_product"),
    "torus": ("TorusReport", "centralizer_torus", "rich_torus_scan",
              "torus_order_and_split"),
    "tracelab": ("ClassTuple", "FVector", "ShiftTable", "TraceTuple", "WealthBin",
                 "bin_spread", "class_tuple", "distinct_tuple_counts", "dyadic_bins",
                 "f_of", "fiber_bound_check", "fiber_exponent", "lindep_checks",
                 "popular_tuple", "shift_table", "shift_tables", "trace_tuple",
                 "wealth"),
    "energy": ("additive_energy", "dilate"),
    "vital": ("FiberFamily", "ScalarSet", "VectorSet", "VitalInstance", "VitalReport",
              "assemble_vital_instance", "vital_diagnostics"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
