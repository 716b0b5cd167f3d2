"""Command-line experiment runner.

Seven subcommands drive the library: expand, growth-curve, torus-scan,
trace-lab, lemma-check, energy, vital.  All randomness flows from one
--seed through per-stream generators derived by hashing, so identical
configs give byte-identical output files.  Every run emits exactly one
JSON manifest on stdout (and next to --out when given) echoing the
config, the wall clock, and sha256 digests of the files written; a run
that does not end ok leaves no output file behind, except the files
renamed into place before a rename failed, which its manifest lists.

Exit codes: 0 success, 2 configuration error, 3 budget exceeded,
4 generator construction failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field, fields
from fractions import Fraction
from random import Random
from typing import TYPE_CHECKING, Optional

from .errors import (
    DEFAULT_MAX_ELEMENTS,
    BudgetExceeded,
    GenerationFailed,
    Indeterminate,
    SlgrowthError,
)
from .matrices import SpecialLinear, space_field
from ._version import __version__

if TYPE_CHECKING:
    from .growth import Budget, ElementSet

try:
    # CPython's builtin sha256 gives hashlib's digests without loading
    # OpenSSL's libcrypto, about 3.5 MB of peak RSS (named _sha2 from 3.12)
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_GENERATION = 4

_STATUS_EXIT = {
    "ok": EXIT_OK,
    "config-error": EXIT_CONFIG,
    "budget-exceeded": EXIT_BUDGET,
    "generation-failed": EXIT_GENERATION,
}

SUBCOMMANDS = (
    "expand",
    "growth-curve",
    "torus-scan",
    "trace-lab",
    "lemma-check",
    "energy",
    "vital",
)


def _deferred(module: str, name: str):
    """A module-level stand-in for module.name that imports the module
    when first called, so that a run loads only the layers it uses."""
    def forward(*args, **kwargs):
        target = getattr(importlib.import_module(f".{module}", __package__), name)
        return target(*args, **kwargs)

    forward.target = (module, name)  # for the tests, which check it resolves
    return forward


# perfbench/traced.py wraps these names where cli looks them up, so they
# stay here as forwarders; the stage records of ROADMAP item 5 delete them.
dyadic_bins = _deferred("tracelab", "dyadic_bins")
class_tuple = _deferred("tracelab", "class_tuple")
trace_tuple = _deferred("tracelab", "trace_tuple")
vander_identity_suite = _deferred("lemmas", "vander_identity_suite")
f_identity_suite = _deferred("lemmas", "f_identity_suite")
kappa_conjugation_suite = _deferred("lemmas", "kappa_conjugation_suite")
lindep_suite = _deferred("lemmas", "lindep_suite")
cyclic_nonvanishing_suite = _deferred("lemmas", "cyclic_nonvanishing_suite")


def stream_rng(seed: int, stream: str) -> Random:
    """Per-stream generator derived from the single global seed."""
    digest = sha256(f"{seed}:{stream}".encode()).digest()
    return Random(int.from_bytes(digest[:8], "big"))


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _has_kind(value, kind) -> bool:
    """Is value of the kind a config key declares?  A bool is never an
    int, a float key takes an int, a list key is a list of ints."""
    if isinstance(value, bool):
        return False
    if kind is list:
        return isinstance(value, list) and all(_has_kind(v, int) for v in value)
    return isinstance(value, (int, float) if kind is float else kind)


def _key(default, help=None, *, kind=None, lower=None, flag=None, **parser):
    """One config key, declared once: its default, its kind (a value of
    another kind is rejected; None only when the default is None), the
    lower bound of its value or of each item of a list, its flag
    (`--name` unless given) and the flag's other argparse keywords.  The
    flag text is converted to the kind for int and float keys and kept
    as text otherwise, unless `type` says how."""
    kind = kind or type(default)
    parser.setdefault("type", kind if kind in (int, float) else str)
    metadata = {"kind": kind, "lower": lower, "flag": flag,
                "parser": dict(parser, help=help)}
    if isinstance(default, list):
        return dc_field(default_factory=lambda: list(default), metadata=metadata)
    return dc_field(default=default, metadata=metadata)


@dataclass
class ExperimentConfig:
    """Resolved run parameters; flags override config-file values."""

    n: int = _key(2, "matrix size (default 2)")
    p: int = _key(5, "field modulus (odd prime > n)")
    p_list: Optional[list] = _key(
        None, "comma-separated moduli for growth-curve sweeps", kind=list,
        type=_parse_int_list)
    generators: str = _key("standard", choices=("standard", "random"))
    seed: int = _key(0, "global seed (default 0)")
    count: int = _key(2, "random generator count (default 2)", lower=1)
    radius: int = _key(2, "word-ball radius for the working set (default 2)",
                       lower=1)
    k_list: list = _key([2], "scan radius; repeatable", lower=1, flag="--k",
                        type=int, action="append", metavar="K")
    # the flag keeps its text: load_config converts flag and file alike
    delta: Fraction = _key(Fraction(1, 2), "threshold exponent, rational in (0,1)")
    budget_elems: int = _key(
        DEFAULT_MAX_ELEMENTS, f"stored-element cap (default {DEFAULT_MAX_ELEMENTS})",
        lower=1)
    budget_secs: Optional[float] = _key(None, "wall-clock cap per expansion, or on "
                                        "lemma-check's five suites together",
                                        kind=float)
    out: Optional[str] = _key(None, "output file; stdout when omitted", kind=str)
    format: str = _key("csv", choices=("csv", "json"))
    trials: int = _key(1000, "trial count for lemma-check/energy (default 1000)",
                       lower=1)
    size: int = _key(64, "max sampled set size for energy (default 64)", lower=1)

    def validate(self):
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            # the kind first, so that the range checks compare like with like
            if not (value is None and f.default is None
                    or _has_kind(value, meta["kind"])):
                raise ValueError(f"{f.name} must be of type "
                                 f"{meta['kind'].__name__}, got {value!r}")
            choices = meta["parser"].get("choices")
            if choices and value not in choices:
                raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
            items = value if isinstance(value, list) else [value]
            if meta["lower"] is not None and any(v < meta["lower"] for v in items):
                raise ValueError(f"{_flag(f)} must be >= {meta['lower']}")
        if not self.k_list:
            raise ValueError("--k radii must be a nonempty list")
        if not 0 < self.delta < 1:
            raise ValueError("--delta must lie strictly between 0 and 1")
        # NaN fails both comparisons; inf and too-large ints fail the second
        if self.budget_secs is not None and not (
                0 < self.budget_secs <= sys.float_info.max):
            raise ValueError("--budget-secs must be positive and finite")
        for p in self.primes():
            space_field(self.n, p)  # p odd prime > n, entry width checks
        return self

    def primes(self) -> list[int]:
        return list(self.p_list) if self.p_list else [self.p]

    def budget(self) -> Budget:
        from .growth import Budget

        return Budget(max_elements=self.budget_elems, max_seconds=self.budget_secs)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["delta"] = str(self.delta)
        return out


@dataclass
class RunManifest:
    """One per run: config echo, status, timings, output digests."""

    version: str
    subcommand: str
    config: dict
    status: str
    wall_seconds: float
    outputs: dict
    info: dict
    error: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def build_generators(cfg: ExperimentConfig, space: SpecialLinear) -> ElementSet:
    """Standard pair, or seeded random elements retried until they
    generate (unchecked when the order exceeds the closure budget)."""
    from .growth import ElementSet, generates, standard_generators

    if cfg.generators == "standard":
        return standard_generators(space)
    stream = space.elements(stream_rng(cfg.seed, f"generators:{space.n}:{space.p}"))
    budget = cfg.budget()
    for _ in range(64):
        A = ElementSet(space, frozenset(next(stream)[0] for _ in range(cfg.count)))
        try:
            if generates(A, budget):
                return A
        except Indeterminate:
            return A
    raise GenerationFailed(
        f"no generating {cfg.count}-set found in 64 seeded attempts"
    )


# ---------------------------------------------------------------------------
# deterministic output: the only code that knows the CSV and JSON formats


def _cell(value) -> str:
    """One CSV cell: a string as given, anything else as JSON spells it
    (true/false, str of an int, repr of a float).  An int, the common
    cell, skips the encoder's per-call cost."""
    if isinstance(value, str) or type(value) is int:
        return str(value)
    return json.dumps(value)


def _staged(target: str) -> str:
    """Temporary name next to target, renamed into place by run()."""
    return f"{target}.{os.getpid()}.tmp"


def _emit(cfg: ExperimentConfig, outputs: dict, data: bytes,
          path: Optional[str] = None):
    """Stage bytes for the target file (tracking its digest) or stdout."""
    target = path if path is not None else cfg.out
    if target:
        outputs[target] = sha256(data).hexdigest()
        with open(_staged(target), "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


def _emit_records(cfg: ExperimentConfig, outputs: dict, columns: list,
                  records, payload=None, path: Optional[str] = None):
    """CSV: the records projected onto columns, a missing key giving an
    empty cell; a list of strings is one column already spelled (expand's
    dump), joined as it is.  JSON: the payload, or the records when there
    is none."""
    if cfg.format == "json":
        text = json.dumps(records if payload is None else payload,
                          sort_keys=True, indent=2) + "\n"
    else:
        rows = records
        if rows and not isinstance(rows[0], str):
            rows = [",".join(_cell(record.get(col, "")) for col in columns)
                    for record in records]
        head = ",".join(columns) + "\n"
        text = head + "\n".join(rows) + "\n" if rows else head
    _emit(cfg, outputs, text.encode(), path)


# ---------------------------------------------------------------------------
# subcommands: each imports the layers it runs when it is called, so that
# a run loads only those


def _cmd_expand(cfg: ExperimentConfig, outputs: dict) -> dict:
    from .growth import word_ball

    space = SpecialLinear(cfg.n, cfg.p)
    gens = build_generators(cfg, space)
    ball = word_ball(gens, cfg.radius, cfg.budget())
    elements = ball.dump_lines()
    header = elements.pop(0)
    payload = {
        "n": space.n,
        "p": space.p,
        "radius": cfg.radius,
        "count": len(ball),
        "elements": elements,
    }
    # the text dump is a one-column CSV headed by the ball's summary line
    _emit_records(cfg, outputs, [header], elements, payload)
    return {
        "ball_size": len(ball),
        "group_order": space.order(),
        "saturated": len(ball) == space.order(),
    }


def _cmd_growth_curve(cfg: ExperimentConfig, outputs: dict) -> dict:
    from .growth import growth_scan, word_ball

    ks = sorted(set(cfg.k_list))
    reports = []
    for p in cfg.primes():
        space = SpecialLinear(cfg.n, p)
        gens = build_generators(cfg, space)
        A = word_ball(gens, cfg.radius, cfg.budget())
        reports.append(
            growth_scan(A, ks=ks, budget=cfg.budget())
        )
    columns = ["n", "p", "size_A", "size_AAA", "epsilon_hat", "saturated"]
    columns += [f"size_A_{k}" for k in ks]
    _emit_records(cfg, outputs, columns, [rep.to_dict() for rep in reports])
    return {
        "primes": cfg.primes(),
        "saturated": {str(rep.p): rep.saturated for rep in reports},
        "epsilon_hat": {str(rep.p): rep.epsilon_hat for rep in reports},
    }


def _cmd_torus_scan(cfg: ExperimentConfig, outputs: dict) -> dict:
    from .torus import rich_torus_scan

    space = SpecialLinear(cfg.n, cfg.p)
    gens = build_generators(cfg, space)
    ks = sorted(set(cfg.k_list))
    reports = rich_torus_scan(gens, ks, cfg.budget())
    records = [rep.to_dict(space) for rep in reports]
    columns = ["witness_kappa", "torus_order", "split"]
    rows = [dict(record) for record in records]
    for k in ks:
        columns += [f"intersection_k{k}", f"richness_k{k}"]
        for row in rows:
            row[f"intersection_k{k}"] = row["intersections"][str(k)]
            row[f"richness_k{k}"] = row["richness"][str(k)]
    _emit_records(cfg, outputs, columns, rows, records)
    return {
        "tori": len(reports),
        "split_tori": sum(1 for rep in reports if rep.split),
    }


def _witnesses_for(space: SpecialLinear, source: ElementSet) -> list:
    """Split regular witnesses from the source ball, one per invariant
    tuple, in canonical order."""
    by_kappa: dict = {}
    members = sorted(source.members)
    for g, eigs in zip(members, space.split_eigenvalues_batch(members)):
        if eigs is not None:
            by_kappa.setdefault(space.char_poly(g), g)
    return [by_kappa[k] for k in sorted(by_kappa)]


def _cmd_trace_lab(cfg: ExperimentConfig, outputs: dict) -> dict:
    from .growth import word_ball
    from .tracelab import (bin_spread, distinct_tuple_counts, f_of, popular_tuple,
                           shift_tables)

    space = SpecialLinear(cfg.n, cfg.p)
    gens = build_generators(cfg, space)
    pool = word_ball(gens, cfg.radius, cfg.budget())
    kmax = max(cfg.k_list)
    witness_ball = word_ball(gens, kmax, cfg.budget())
    witnesses = _witnesses_for(space, witness_ball)
    bin_rows = []
    fvectors = []
    info: dict = {"witnesses": len(witnesses), "pool_size": len(pool)}
    per_witness = {}
    for t, table in zip(witnesses, shift_tables(pool, witnesses)):
        t_hex = space.kappa_hex(space.char_poly(t))
        bins = dyadic_bins(t, pool, table)
        # the JSON spells bin and f-vector values as their CSV cells
        bin_rows.extend(
            {"t_kappa": t_hex, "jvec": "-".join(map(str, b.jvec)),
             "member_count": _cell(len(b.members))}
            for b in bins
        )
        coefficients = [_cell(c) for c in f_of(space, t).coefficients]
        fvectors.append({"t_kappa": t_hex, "coefficients": coefficients})
        eligible = sum(len(b.members) for b in bins)
        stats = {
            "bins": len(bins),
            "eligible": eligible,
            "spread": bin_spread(bins),
        }
        if bins:
            top = popular_tuple(bins)
            stats["popular_jvec"] = list(top.jvec)
            stats["popular_size"] = len(top.members)
        trace_counts, class_counts = distinct_tuple_counts(table)
        stats["distinct_trace_tuples"] = {str(i): c for i, c in enumerate(trace_counts)}
        stats["distinct_class_tuples"] = {str(i): c for i, c in enumerate(class_counts)}
        per_witness[t_hex] = stats
    info["per_witness"] = per_witness
    payload = {"bins": bin_rows, "fvectors": fvectors, "stats": per_witness}
    _emit_records(cfg, outputs, ["t_kappa", "jvec", "member_count"], bin_rows,
                  payload)
    if cfg.out and cfg.format == "csv":
        columns = ["t_kappa"] + [f"r{k}" for k in range(space.n)]
        rows = [dict(zip(columns, [f["t_kappa"], *f["coefficients"]]))
                for f in fvectors]
        _emit_records(cfg, outputs, columns, rows, path=cfg.out + ".fvectors.csv")
    return info


def _cmd_lemma_check(cfg: ExperimentConfig, outputs: dict) -> dict:
    from .growth import check_deadline

    # the suites' module loads before the clock starts, not in the first suite
    importlib.import_module(".lemmas", __package__)
    n, p, trials = cfg.n, cfg.p, cfg.trials
    columns = ["suite", "n", "p", "trials", "passes", "failures"]
    rows = []
    results = {}
    suites = [
        ("vander-identity", vander_identity_suite),
        ("f-identity", f_identity_suite),
        ("kappa-conjugation", kappa_conjugation_suite),
        ("lindep", lindep_suite),
    ]
    # one clock for all five suites; each checks it once per block
    budget = cfg.budget()
    deadline = budget.start_clock()

    def tick(name):
        return lambda done: check_deadline(done, budget, deadline, name)

    for name, fn in suites:
        rng = stream_rng(cfg.seed, f"lemma:{name}:{n}:{p}")
        passes, total = fn(n, p, trials, rng, tick(name))
        rows.append(dict(zip(columns, (name, n, p, total, passes, total - passes))))
        results[name] = {"trials": total, "passes": passes}
    rng = stream_rng(cfg.seed, f"lemma:cyclic-nonvanishing:{n}:{p}")
    failures, evals = cyclic_nonvanishing_suite(n, p, trials, rng,
                                                tick("cyclic-nonvanishing"))
    rows.append(dict(zip(columns, ("cyclic-nonvanishing", n, p, evals,
                                   evals - failures, failures))))
    results["cyclic-nonvanishing"] = {
        "determinants": evals,
        "zeros": failures,
        "zero_rate": failures / evals if evals else 0.0,
    }
    _emit_records(cfg, outputs, columns, rows, results)
    return results


def _cmd_energy(cfg: ExperimentConfig, outputs: dict) -> dict:
    import numpy as np

    from .draws import WordReader
    from .energy import additive_energy

    p = cfg.p
    rng = stream_rng(cfg.seed, f"energy:{p}")
    cap = min(cfg.size, p)
    columns = ["trial", "p", "size_x", "size_y", "energy", "support",
               "cs_lower", "upper"]
    rows = []
    all_bounds_ok = True
    # the same values as rng.randint and rng.sample(range(p), k), read in bulk
    with WordReader(rng) as draws:
        for trial in range(cfg.trials):
            nx = draws.randint(1, cap)
            ny = draws.randint(1, cap)
            e, counts = additive_energy(draws.sample(p, nx), draws.sample(p, ny), p)
            support = int(np.count_nonzero(counts))
            lower = -(-((nx * ny) ** 2) // support)  # ceil division
            upper = nx * ny * min(nx, ny)
            all_bounds_ok &= lower <= e <= upper
            # the JSON spells every value as its CSV cell
            rows.append(dict(zip(columns, map(_cell, (trial, p, nx, ny, e,
                                                      support, lower, upper)))))
    _emit_records(cfg, outputs, columns, rows)
    return {"trials": cfg.trials, "bounds_ok": all_bounds_ok}


def _cmd_vital(cfg: ExperimentConfig, outputs: dict) -> dict:
    from .growth import ElementSet, word_ball
    from .vital import assemble_vital_instance, vital_diagnostics

    space = SpecialLinear(cfg.n, cfg.p)
    gens = build_generators(cfg, space)
    base = word_ball(gens, cfg.radius, cfg.budget())
    kmax = max(cfg.k_list)
    witness_ball = word_ball(base, kmax, cfg.budget())
    members = witness_ball.sorted_members()
    eigenvalues = space.split_eigenvalues_batch(members)
    D = ElementSet(space, frozenset(
        t for t, eigs in zip(members, eigenvalues) if eigs is not None))
    if not len(D):
        raise ValueError(
            "no split regular witnesses in the scanned ball; "
            "raise --k or --radius"
        )
    # D's eigenvalues in D's sorted order, so that they are not found twice
    instance = assemble_vital_instance(base, D, cfg.radius, cfg.budget(),
                                       [eigs for eigs in eigenvalues if eigs is not None])
    report = vital_diagnostics(
        instance.X, instance.Y, instance.fibers, cfg.delta
    )
    record = report.to_dict()
    columns = ["row_type", "y", "fiber_size", "fiber_exponent", "x_size",
               "y_size", "pi1_size", "threshold", "x_meets_threshold",
               "energy_sum", "degenerate"]
    rows = [
        {"row_type": "fiber", "y": "|".join(str(c) for c in fiber["y"]),
         "fiber_size": fiber["size"], "fiber_exponent": fiber["exponent"]}
        for fiber in record["fibers"]
    ]
    # the summary row reuses the fiber columns for the min and max size
    rows.append(dict(record, row_type="summary",
                     fiber_size=record["min_fiber"],
                     fiber_exponent=record["max_fiber"]))
    _emit_records(cfg, outputs, columns, rows, record)
    return {
        "witnesses": len(D),
        "excluded_witnesses": len(instance.fibers.excluded_witnesses),
        "x_size": report.x_size,
        "y_size": report.y_size,
        "energy_sum": report.energy_sum,
    }


_DISPATCH = {
    "expand": _cmd_expand,
    "growth-curve": _cmd_growth_curve,
    "torus-scan": _cmd_torus_scan,
    "trace-lab": _cmd_trace_lab,
    "lemma-check": _cmd_lemma_check,
    "energy": _cmd_energy,
    "vital": _cmd_vital,
}


def run(cfg: ExperimentConfig, subcommand: str) -> RunManifest:
    """Execute one subcommand, write its outputs once, return the manifest."""
    start = time.monotonic()
    outputs: dict = {}
    info: dict = {}
    status = "ok"
    error = None
    sidecar = f"{cfg.out}.manifest.json"
    placed: set = set()
    try:
        try:
            cfg.validate()
            # before the experiment, which can take minutes, not after it
            if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
                raise ValueError(f"--out {cfg.out} is not in an existing directory")
            info = _DISPATCH[subcommand](cfg, outputs)
        except BudgetExceeded as exc:
            status, error = "budget-exceeded", str(exc)
            info = {"stage": exc.stage, "partial_count": exc.partial_count}
        except Indeterminate as exc:
            status, error = "budget-exceeded", str(exc)
        except GenerationFailed as exc:
            status, error = "generation-failed", str(exc)
        except (ValueError, OSError, SlgrowthError) as exc:
            # OSError: an --out target that cannot be staged
            status, error = "config-error", str(exc)
        manifest = RunManifest(
            version=__version__,
            subcommand=subcommand,
            config=cfg.to_dict(),
            status=status,
            wall_seconds=time.monotonic() - start,
            outputs=outputs,
            info=info,
            error=error,
        )
        if cfg.out and status == "ok":
            # every file, the manifest sidecar last, lands together or not
            # at all; a rename onto a directory fails, so check them first
            try:
                with open(_staged(sidecar), "w", encoding="utf-8") as fh:
                    fh.write(manifest.to_json() + "\n")
                for target in (*outputs, sidecar):
                    if os.path.isdir(target):
                        raise IsADirectoryError(f"{target} is a directory")
                for target in (*outputs, sidecar):
                    os.replace(_staged(target), target)
                    placed.add(target)
            except OSError as exc:
                manifest.status, manifest.error = "config-error", str(exc)
        return manifest
    finally:
        # remove and unlist what was not placed, also when the subcommand
        # raises what run() does not catch; renames go one by one, so the
        # files placed before a failed rename stay listed
        for target in {*outputs, sidecar} - placed:
            outputs.pop(target, None)
            if os.path.exists(_staged(target)):
                os.remove(_staged(target))


def _flag(f) -> str:
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slgrowth",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="JSON config file; flags override it")
    for f in fields(ExperimentConfig):
        parser.add_argument(_flag(f), dest=f.name, **f.metadata["parser"])
    return parser


_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold one JSON object")
        unknown = set(loaded) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for key in _CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    if "delta" in values:
        try:
            values["delta"] = Fraction(str(values["delta"]))
        except ZeroDivisionError:
            raise ValueError(f"delta {values['delta']!r} has a zero denominator")
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    manifest = run(cfg, args.subcommand)
    try:
        print(manifest.to_json())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the manifest cannot be written, and
        # stdout goes to devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG
    return _STATUS_EXIT.get(manifest.status, 1)


if __name__ == "__main__":
    sys.exit(main())
