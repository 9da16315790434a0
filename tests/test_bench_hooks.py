"""The benchmark's tracing hooks name functions that cogex still has.

``perfbench/spans.py`` rebinds functions by module and name when it traces
a run; a name deleted from cogex would break ``run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_spans():
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
HOOKS = [(module, fname) for module, fnames, _ in [*spans.SPANS, spans.WITNESS]
         for fname in fnames]


@pytest.mark.parametrize("module, fname", HOOKS)
def test_traced_function_resolves(module, fname):
    home = importlib.import_module(f"cogex.{module}")
    assert callable(getattr(home, fname, None)), f"cogex.{module}.{fname}"


@pytest.mark.parametrize("module, prefix", sorted(spans.CHECK_MODULES.items()))
def test_check_modules_define_checks(module, prefix):
    home = importlib.import_module(f"cogex.{module}")
    assert any(name.startswith(prefix) and callable(fn)
               for name, fn in vars(home).items())


def test_pareto_filter_runs_once_per_level(monkeypatch):
    """The benchmark reads the size of each pareto_filter argument and
    result as a level's candidates and survivors: one call per level
    n >= 2, empty levels included, whose result is that level's registry."""
    from cogex import enumerator
    from cogex.profile import INF, BicliqueProfile, forbidden_biclique_profile, parse_profile

    results = []
    original = enumerator.pareto_filter

    def record(candidates):
        result = original(candidates)
        results.append(len(result))
        return result

    monkeypatch.setattr(enumerator, "pareto_filter", record)
    for n_max, prune in (
            (16, forbidden_biclique_profile(3, 3)),
            (16, parse_profile("3,1,0;-inf")),  # levels 4..16 lie past entry 0
            (10, BicliqueProfile((), INF))):    # no window
        results.clear()
        regs = enumerator.build_registries(n_max, prune)
        assert len(results) == n_max - 1
        assert results == [len(r) for r in regs[1:]]


def test_bruteforce_sequence_runs_once_per_catalog_graph(monkeypatch):
    """The benchmark reads the calls to biclique_sequence_bruteforce as one
    per catalog graph: building the sequence tables for n = 1..9 calls it
    once for each of the 2,341 graphs, at cap n, through its module name."""
    from cogex import oracle

    calls = []
    original = oracle.biclique_sequence_bruteforce

    def record(a, cap):
        calls.append((a.n, cap))
        return original(a, cap)

    monkeypatch.setattr(oracle, "biclique_sequence_bruteforce", record)
    oracle._sequence_table.cache_clear()
    try:
        for n in range(1, 10):
            oracle._sequence_table(n)
    finally:
        oracle._sequence_table.cache_clear()
    assert len(calls) == 2341
    assert calls == [(n, n) for n in range(1, 10)
                     for _ in oracle.enumerate_cotrees(n).items]


def test_verify_all_expands_each_catalog_graph_once(monkeypatch):
    """The benchmark reads the calls to to_adjacency on verify: with the
    oracle's tables cleared, verify all expands each of the 2,341 catalog
    graphs (n = 1..9) once, through the oracle's name, into its catalog."""
    from cogex import oracle
    from cogex.verification import run_suite

    calls = []
    original = oracle.to_adjacency

    def record(g):
        calls.append(g.n)
        return original(g)

    monkeypatch.setattr(oracle, "to_adjacency", record)
    for table in (oracle._catalog, oracle._sequence_table):
        table.cache_clear()
    try:
        assert run_suite("all")["passed"]
    finally:
        for table in (oracle._catalog, oracle._sequence_table):
            table.cache_clear()
    assert len(calls) == 2341
    assert sorted(calls) == [n for n in range(1, 10) for _ in oracle.enumerate_cotrees(n).items]
