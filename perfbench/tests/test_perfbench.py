"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import checks  # noqa: E402
import cotrees as ct  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _stream(seed: int, workdir: Path) -> tuple[list, dict]:
    """The construct stream's argv lists and input files, paths made relative."""
    workdir.mkdir()
    ops = workloads.make_ops("construct", seed, workdir)
    argvs = [[a.replace(str(workdir), "") for a in op["argv"]] for op in ops]
    files = {p.name: p.read_text() for p in workdir.glob("*.json")}
    return argvs, files


def test_generator_is_deterministic_per_seed(tmp_path):
    a = _stream(7, tmp_path / "a")
    assert a == _stream(7, tmp_path / "b")
    assert a[0] != _stream(8, tmp_path / "c")[0]


def test_generator_mix_and_deep_share(tmp_path):
    ops = workloads.make_ops("construct", 3, tmp_path)
    assert len(ops) == workloads.CONSTRUCT_OPS
    assert sum(op["deep"] for op in ops) / len(ops) == workloads.DEEP_SHARE == 0.01
    deep_inputs = {op["argv"][op["argv"].index("--input") + 1] for op in ops if op["deep"]}
    for path in deep_inputs:
        # a caterpillar has one inner node per level
        assert Path(path).read_text().count('"children"') >= workloads.DEEP_MIN_HEIGHT
    sizes = [op["expect"]["vertices"] for op in ops if "vertices" in op["expect"]]
    assert max(sizes) >= 1000


def test_cotree_text_needs_no_recursion():
    tree, canon = ct.canonical(ct.caterpillar(random.Random(1), 5000))
    m = ct.measure(tree)
    assert m["height"] == 5000
    assert ct.canon_counts(canon.decode()) == (m["vertices"], m["edges"])
    assert ct.dumps(tree).count('"op":"leaf"') == m["vertices"]


def test_cotree_text_matches_cogex():
    from cogex.cotree import canonical_form, to_adjacency
    from cogex.serialize import dumps_cotree, graph6_bytes, loads_cotree

    rng = random.Random(5)
    for n in (1, 2, 3, 7, 16, 40, 400):
        tree, canon = ct.canonical(ct.random_tree(rng, n))
        text = ct.dumps(tree)
        assert text == json.dumps(tree, sort_keys=True, separators=(",", ":"))
        g = loads_cotree(text)
        assert canonical_form(g) == canon
        assert dumps_cotree(g) == text
        m = ct.measure(tree)
        assert (m["vertices"], m["edges"]) == (g.n, g.edges)
        if n <= 16:
            a = to_adjacency(g)
            assert ct.degrees(tree) == Counter(a.degree_sequence())
            assert checks.graph6_degrees(graph6_bytes(a).decode()) == ct.degrees(tree)


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail_percentile([float(i) for i in range(999)]) is None
    xs = [float(i) for i in range(1000)]
    assert run.tail_percentile(xs) == 989.0  # rank 990; 10 samples lie above
    assert run.tail_percentile(xs[::-1]) == 989.0
    assert run.tail_percentile([1.0] * 20, q=50) == 1.0
    assert run.tail_percentile([1.0] * 19, q=50) is None


def test_self_times_of_synthetic_spans():
    spans_ = [
        ("harness", 0.0, 10.0, -1),
        ("cli", 1.0, 9.0, 0),
        ("enumerator.combine", 2.0, 7.0, 1),
        ("enumerator.pareto", 3.0, 4.0, 2),
        ("enumerator.pareto", 5.0, 5.5, 2),
        ("cli", 9.5, 10.0, 0),
    ]
    self_s, calls = spans.self_times(spans_)
    assert self_s == pytest.approx({
        "harness": 10.0 - 8.0 - 0.5,
        "cli": (8.0 - 5.0) + 0.5,
        "enumerator.combine": 5.0 - 1.5,
        "enumerator.pareto": 1.5,
    })
    assert calls == {"harness": 1, "cli": 2, "enumerator.combine": 1,
                     "enumerator.pareto": 2}
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_pair_count():
    # levels of 1, 2 and 3 records: n=2 pairs 1x1 once; n=3 pairs 1x2
    assert spans.pair_count([1, 2, 3]) == 1 + 2
    # n=4 adds 1x3 and the 2x2 diagonal counted as 3 unordered pairs
    assert spans.pair_count([1, 2, 3, 1]) == 1 + 2 + 3 + 3


def test_closed_forms_match_golden_and_dp():
    from cogex.enumerator import extremal_function

    golden = checks.load_golden()["enumerate"]["K33_48"]
    assert [checks.ex_k33(n) for n in range(2, 49)] == golden[1:]
    k23 = extremal_function(2, 3, range(1, 61), witness_limit=1).values
    assert {n: checks.ex_k23(n) for n in range(1, 61)} == k23


def test_construct_expectations_match_cogex():
    from cogex import constructions as c

    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 60)
        t = rng.randint(2, 9)
        cases = [("k33", c.k33_extremal(n), dict(n=n)),
                 ("k2t", c.k2t_extremal(3, n), dict(t=3, n=n)),
                 ("k2t", c.k2t_extremal(2, n), dict(t=2, n=n))]
        if n < t or t == 2 or checks.regular_feasible(n, t - 1):
            cases.append(("star", c.star_extremal(t, n), dict(t=t, n=n)))
        s, r = rng.randint(1, 4), rng.randint(1, 6)
        cases.append(("clique-product", c.clique_product_family(s, max(s, t), r),
                      dict(s=s, t=max(s, t), r=r)))
        for family, g, p in cases:
            want = checks.construct_expectation(family, **p)
            assert (g.n, g.edges) == (want["vertices"], want["edges"]), (family, p)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_MOVES)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for moves, workload in run.LAYER_MOVES.values():
        assert moves in end_to_end
        assert workload in workloads.WORKLOADS or workload == "all"


def test_only_recursion_error_is_known_on_deep_inputs(tmp_path):
    def verdict(deep, code, error):
        op = {"argv": ["export", "--input", "x.json"], "deep": deep,
              "output": str(tmp_path / "none"), "check": "export-json", "expect": {}}
        return run.check_pass([op], {"ops": [(code, error, 0.1, 0.1)]}, {})

    assert verdict(True, None, "RecursionError: maximum recursion depth") == (1, [])
    for deep, code, error in [(True, 2, None), (True, None, "ValueError: bad"),
                              (False, None, "RecursionError: maximum recursion depth")]:
        failed, wrong = verdict(deep, code, error)
        assert failed == 1 and len(wrong) == 1
