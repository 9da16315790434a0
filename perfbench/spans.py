"""Spans around calls into cogex's layers, installed from outside the program.

``install`` rebinds each traced public function in every cogex module
namespace that holds it, so calls made through any import of the name are
recorded; the program's source is not changed.  Spans are kept in memory
as (name, start, end, parent index) and reduced to self times when the
pass ends.  A span's self time is its duration minus the time covered by
its child spans, so the self times of one pass add up to the root span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

ROOT = "harness"  # span around a whole pass, opened by the child

# (module, functions, span name).  A span name is a layer boundary; a call
# made while a span of the same name is open (recursion, or one public
# function calling another of the same layer) is not recorded again.
SPANS = [
    ("cli", ("main",), "cli"),
    ("enumerator", ("build_registries",), "enumerator.combine"),
    ("enumerator", ("pareto_filter",), "enumerator.pareto"),
    ("enumerator", ("query", "query_witnesses"), "enumerator.query"),
    ("enumerator", ("analyze_periodicity",), "enumerator.analyze"),
    ("oracle", ("enumerate_cotrees", "connected_cotrees"), "oracle.catalog"),
    ("oracle", ("biclique_sequence_bruteforce",), "oracle.bruteforce_seq"),
    ("oracle", ("extremal_bruteforce",), "oracle.extremal_scan"),
    ("oracle", ("contains_biclique",), "oracle.contains_biclique"),
    ("cotree", ("to_adjacency",), "cotree.to_adjacency"),
    ("cotree", ("biclique_sequence",), "cotree.biclique_sequence"),
    ("profile", ("fulfills",), "profile.fulfills"),
    ("constructions", ("regular_cograph", "star_extremal", "k2t_extremal",
                       "k33_extremal", "clique_product_family", "pump",
                       "pump_subset"), "constructions.build"),
    ("serialize", ("cotree_to_obj", "dumps_cotree", "graph6_bytes", "to_dot",
                   "series_to_obj", "series_to_csv", "registry_to_obj",
                   "catalog_to_graph6"), "serialize.encode"),
    ("serialize", ("cotree_from_obj", "loads_cotree", "series_from_obj",
                   "registry_from_obj"), "serialize.decode"),
]
# Witness materialisation is the DP's third pass inside build_registries;
# its cotree constructors are traced only where the enumerator calls them.
WITNESS = ("enumerator", ("make_sum", "make_product"), "enumerator.witness")
# Every check function of the verify suite, by prefix, in these modules.
CHECK_MODULES = {"verification": "verify_", "oracle": "check_"}


class Tracer:
    """Span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.open: dict[str, list[int]] = defaultdict(lambda: [0])
        # counts recorded at the boundaries, reduced after the pass
        self.pareto: list[tuple[int, int]] = []
        self.registries: list[dict] = []
        self.catalogs: dict[int, int] = {}
        self.bruteforce_inputs: list = []

    def begin(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    def wrap(self, name: str, fn, prepare=None, after=None):
        """fn with a span; ``prepare`` may rewrite the arguments inside the
        span, ``after(result, args)`` records counts once it has closed."""
        spans, stack = self.spans, self.stack
        is_open = self.open[name]

        def traced(*args, **kwargs):
            if is_open[0]:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            is_open[0] = 1
            t0 = perf_counter()
            try:
                if prepare is not None:
                    args = prepare(args)
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                is_open[0] = 0
                spans[idx] = (name, t0, t1, parent)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts ---------------------------------------------------------------

    def _registries_built(self, regs, args) -> None:
        kept = sum(len(rec.witnesses) for r in regs[1:] for rec in r.records.values())
        self.registries.append({"pairs": pair_count([len(r) for r in regs]),
                                "witnesses_kept": kept})

    def _pareto_done(self, result, args) -> None:
        self.pareto.append((len(args[0]), len(result)))

    def _catalog_built(self, result, args) -> None:
        if hasattr(result, "items"):
            self.catalogs[result.n] = len(result.items)

    def _bruteforce_done(self, result, args) -> None:
        self.bruteforce_inputs.append(args[0])


def pair_count(sizes: list[int]) -> int:
    """Record pairs the DP combines, given the record count of each level.

    Level n combines every record of level n1 with every record of level
    n - n1 for n1 <= n / 2, and each unordered pair once when n1 = n - n1.
    """
    pairs = 0
    for n in range(2, len(sizes) + 1):
        for n1 in range(1, n // 2 + 1):
            a, b = sizes[n1 - 1], sizes[n - n1 - 1]
            pairs += a * (a + 1) // 2 if n1 == n - n1 else a * b
    return pairs


def _rebind(package: str, module: str, fname: str, wrapper, only_home: bool) -> None:
    home = sys.modules[f"{package}.{module}"]
    orig = getattr(home, fname)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        if only_home and mod is not home:
            continue
        if mod.__dict__.get(fname) is orig:
            setattr(mod, fname, wrapper)


def install(tracer: Tracer, package: str = "cogex") -> None:
    """Trace every layer boundary of an imported cogex."""
    hooks = {
        "build_registries": dict(after=tracer._registries_built),
        "pareto_filter": dict(prepare=lambda args: (list(args[0]),) + args[1:],
                              after=tracer._pareto_done),
        "enumerate_cotrees": dict(after=tracer._catalog_built),
        "biclique_sequence_bruteforce": dict(after=tracer._bruteforce_done),
    }
    for module, fnames, span in SPANS:
        home = sys.modules[f"{package}.{module}"]
        for fname in fnames:
            wrapper = tracer.wrap(span, getattr(home, fname), **hooks.get(fname, {}))
            _rebind(package, module, fname, wrapper, only_home=False)
    module, fnames, span = WITNESS
    for fname in fnames:
        home = sys.modules[f"{package}.{module}"]
        _rebind(package, module, fname, tracer.wrap(span, getattr(home, fname)),
                only_home=True)
    for module, prefix in CHECK_MODULES.items():
        home = sys.modules[f"{package}.{module}"]
        for fname, fn in sorted(vars(home).items()):
            if (fname.startswith(prefix) and callable(fn)
                    and getattr(fn, "__module__", None) == home.__name__):
                span = "verification." + fname[len(prefix):]
                _rebind(package, module, fname, tracer.wrap(span, fn), only_home=False)


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Self time and span count per span name.

    Spans are (name, start, end, parent index) with parent -1 for a root;
    children lie inside their parent's interval.
    """
    covered = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, t0, t1, parent) in enumerate(spans):
        self_s[name] += (t1 - t0) - covered[i]
        calls[name] += 1
    return dict(self_s), dict(calls)


def summarize(tracer: Tracer) -> dict:
    """Per-pass layer figures: self times and counts by span, and the counts
    recorded at the boundaries."""
    self_s, calls = self_times([tuple(s) for s in tracer.spans])
    return {
        "self_s": self_s,
        "calls": calls,
        "pareto": tracer.pareto,
        "registries": tracer.registries,
        "catalog_graphs": sum(tracer.catalogs.values()),
        "bruteforce_calls": len(tracer.bruteforce_inputs),
        "bruteforce_unique": len(set(tracer.bruteforce_inputs)),
    }
