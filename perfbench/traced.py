"""One traced slgrowth CLI run, in this process.

    python3 perfbench/traced.py --workload NAME --seed N --out FILE \
        --spans SPANS.json --spawned MONOTONIC

Wraps the layers' public functions under the names that slgrowth.cli,
slgrowth.growth and slgrowth.energy look up, runs the workload's
command through `cli.main`, and records one span per wrapped call
(name, start, end, parent).  A span's self time is its duration minus
that of its children.  Prints one JSON line with the per-layer metrics,
the traced work counts and the CLI's manifest; writes the spans to
SPANS.json.  Nothing under src/ is modified.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from collections import Counter, defaultdict

from workloads import SRC, WORKLOADS

# span name -> (function name as looked up by the modules)
LAYERS = {
    "growth.generated_closure": "generated_closure",
    "growth.triple_product": "triple_product",
    "growth.word_ball": "word_ball",
    "growth.growth_scan": "growth_scan",
    "tracelab.dyadic_bins": "dyadic_bins",
    "tracelab.trace_tuple": "trace_tuple",
    "tracelab.class_tuple": "class_tuple",
    "cli.witnesses": "_witnesses_for",
    "cli.vander_suite": "vander_identity_suite",
    "cli.f_suite": "f_identity_suite",
    "cli.kappa_suite": "kappa_conjugation_suite",
    "cli.lindep_suite": "lindep_suite",
    "cli.cyclic_suite": "cyclic_nonvanishing_suite",
    "energy.additive_energy": "additive_energy",
    "cli.emit": "_emit",
}


class Tracer:
    """In-memory spans [name, start, end, parent index] and counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def self_times(self):
        """(self seconds, calls) per span name."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        seconds: dict = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, children):
            seconds[name] += end - start - child
            calls[name] += 1
        return seconds, calls


def install(tracer: Tracer, cli, modules, subcommand: str):
    counts = tracer.counts

    def add(key, amount):
        counts[key] += amount

    on_return = {
        "growth.generated_closure": lambda a, r: add("closure_elems", len(r)),
        "growth.word_ball": lambda a, r: add("ball_elems", len(r)),
        "growth.growth_scan": lambda a, r: add("ball_elems", max(r.ball_sizes.values(), default=0)),
        "tracelab.dyadic_bins": lambda a, r: (
            add("pool", len(a[1])),
            add("shifts", len(a[1]) * (a[1].space.n + 1)),
            add("eligible", sum(len(b.members) for b in r)),
        ),
        "energy.additive_energy": lambda a, r: add("pairs", len(a[0]) * len(a[1])),
        "cli.emit": lambda a, r: add("emit_bytes", len(a[2])),
    }
    for span_name, attr in LAYERS.items():
        original = next(vars(m)[attr] for m in (cli, *modules) if attr in vars(m))
        wrapper = tracer.wrap(span_name, original, on_return.get(span_name))
        for module in (cli, *modules):
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
    cli._DISPATCH[subcommand] = tracer.wrap("cli.command", cli._DISPATCH[subcommand])

    space_cls = cli.SpecialLinear
    split_eigenvalues = space_cls.split_eigenvalues

    def counted_split_eigenvalues(self, g):
        eigs = split_eigenvalues(self, g)
        counts["split_calls"] += 1
        counts["split_accepts"] += eigs is not None
        return eigs

    space_cls.split_eigenvalues = counted_split_eigenvalues


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, subcommand: str, traced_wall: float) -> dict:
    secs, calls = tracer.self_times()
    c = tracer.counts
    covered = sum(v for k, v in secs.items() if k != "cli.command")
    return {
        "growth.closure_s": secs["growth.generated_closure"],
        "growth.closure_calls": calls["growth.generated_closure"],
        "growth.closure_elems": c["closure_elems"],
        "growth.closure_elems_per_s": ratio(c["closure_elems"], secs["growth.generated_closure"]),
        "growth.ball_s": secs["growth.word_ball"] + secs["growth.growth_scan"],
        "growth.ball_elems": c["ball_elems"],
        "growth.triple_s": secs["growth.triple_product"],
        "tracelab.dyadic_bins_s": secs["tracelab.dyadic_bins"],
        "tracelab.shifts": c["shifts"],
        "tracelab.shifts_per_s": ratio(c["shifts"], secs["tracelab.dyadic_bins"]),
        "tracelab.eligible_frac": ratio(c["eligible"], c["pool"]),
        "tracelab.trace_tuple_s": secs["tracelab.trace_tuple"],
        "tracelab.trace_tuple_calls": calls["tracelab.trace_tuple"],
        "tracelab.class_tuple_s": secs["tracelab.class_tuple"],
        "tracelab.class_tuple_calls": calls["tracelab.class_tuple"],
        "cli.witnesses_s": secs["cli.witnesses"],
        "cli.vander_suite_s": secs["cli.vander_suite"],
        "cli.f_suite_s": secs["cli.f_suite"],
        "cli.kappa_suite_s": secs["cli.kappa_suite"],
        "cli.lindep_suite_s": secs["cli.lindep_suite"],
        "cli.cyclic_suite_s": secs["cli.cyclic_suite"],
        "matrices.split_accept_frac": ratio(c["split_accepts"], c["split_calls"]),
        "energy.additive_energy_s": secs["energy.additive_energy"],
        "energy.pairs": c["pairs"],
        "energy.pairs_per_s": ratio(c["pairs"], secs["energy.additive_energy"]),
        "cli.energy_rest_s": secs["cli.command"] if subcommand == "energy" else 0.0,
        "cli.import_s": secs["cli.import"],
        "cli.emit_s": secs["cli.emit"],
        "cli.emit_bytes": c["emit_bytes"],
        "cli.other_s": traced_wall - covered,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned this process")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    tracer = Tracer()
    sys.path.insert(0, str(SRC))
    with tracer.span("cli.import"):
        from slgrowth import cli, energy, growth
    install(tracer, cli, (growth, energy), workload.subcommand)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*workload.argv, "--seed", str(args.seed), "--out", args.out])
    traced_wall = time.monotonic() - args.spawned

    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh, separators=(",", ":"))
    c = tracer.counts
    print(json.dumps({
        "cli_exit": code,
        "manifest": stdout.getvalue(),
        "traced_wall_s": traced_wall,
        "metrics": layer_metrics(tracer, workload.subcommand, traced_wall),
        "work": {k: c[k] for k in ("closure_elems", "ball_elems", "shifts", "eligible", "pairs")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
