"""The benchmark's workloads as lists of CLI operations with expectations.

An operation is the argv of one ``cogex`` invocation, the file it writes,
the check its output must pass, and what that check expects.  The program
sees only the argv and the input files written here.
"""

from __future__ import annotations

import random
from pathlib import Path

import checks
import cotrees as ct

WORKLOADS = ("enumerate", "verify", "construct")

# Operations per pass of the construct workload, by kind.
CONSTRUCT_MIX = {
    "k33": 170,
    "k2t": 140,
    "star": 140,
    "regular": 170,
    "clique-product": 140,
    "pump": 175,
    "export-json": 180,
    "export-dot": 180,
    "export-graph6": 190,
}
# Operations on caterpillar inputs of height >= DEEP_MIN_HEIGHT.  They fail
# with RecursionError at the seed commit and count as failed operations;
# the share is kept small so that fixing them cannot move wall_s by itself.
DEEP_MIX = {"export-json": 7, "export-dot": 4, "pump": 4}
DEEP_MIN_HEIGHT = 600
DEEP_MAX_HEIGHT = 900
CONSTRUCT_OPS = sum(CONSTRUCT_MIX.values()) + sum(DEEP_MIX.values())
DEEP_SHARE = sum(DEEP_MIX.values()) / CONSTRUCT_OPS

# Vertex counts of generated graphs and inputs: most up to TYPICAL_VERTICES,
# a share LARGE_SHARE from there up to MAX_VERTICES, so that the slowest
# percent of operations are the large ones.
TYPICAL_VERTICES = 500
MAX_VERTICES = 3000
LARGE_SHARE = 0.04
# The regular constructor recurses once per clique it splits off, about
# n / (d + 1) times; stay well inside the interpreter's recursion limit.
MAX_REGULAR_DEPTH = 250


def _op(argv: list[str], output: str, check: str, expect: dict | None = None,
        deep: bool = False) -> dict:
    """One operation: argv, output file, check kind, expectation, deep flag."""
    return {"argv": argv + ["--output", output], "output": output,
            "check": check, "expect": expect or {}, "deep": deep}


def enumerate_ops() -> list[dict]:
    """The DP jobs: one deep narrow series, two wide ones, one long analyze."""
    return [
        _op(["enumerate", "--s", "3", "--t", "3", "--n-max", "48"], "k33.json",
            "enumerate", {"table": "K33_48", "s": 3, "t": 3, "format": "json"}),
        _op(["enumerate", "--s", "4", "--t", "5", "--n-max", "22", "--format", "csv"],
            "k45.csv", "enumerate", {"table": "K45_22", "s": 4, "t": 5, "format": "csv"}),
        _op(["enumerate", "--s", "5", "--t", "5", "--n-max", "20"], "k55.json",
            "enumerate", {"table": "K55_20", "s": 5, "t": 5, "format": "json"}),
        _op(["analyze", "--s", "2", "--t", "3", "--n-max", "60"], "k23.json",
            "analyze", {"table": "K23_60", "n_max": 60}),
    ]


def verify_ops(seed: int) -> list[dict]:
    return [_op(["verify", "all", "--seed", str(seed)], "verify.json", "verify")]


# =============================================================================
# construct
# =============================================================================

def _ladder(rng: random.Random | None, count: int, lo: int, hi: int) -> list[int]:
    """count sizes spread log-uniformly over [lo, hi], one per stratum, so
    that the total work varies little from seed to seed; without rng, each
    at the middle of its stratum."""
    out = []
    for i in range(count):
        u = (i + (rng.random() if rng else 0.5)) / count
        out.append(max(lo, min(hi, round(lo * (hi / lo) ** u))))
    return out


def _sizes(rng: random.Random, count: int, lo: int, hi: int = MAX_VERTICES) -> list[int]:
    """Typical sizes from lo, drawn from the seed, plus the large share up
    to hi at fixed sizes, which set the slowest percent of operations."""
    if hi <= TYPICAL_VERTICES:
        return _ladder(rng, count, lo, hi)
    large = round(count * LARGE_SHARE)
    return (_ladder(rng, count - large, lo, TYPICAL_VERTICES)
            + _ladder(None, large, TYPICAL_VERTICES, hi))


def _family_ops(rng: random.Random) -> list[dict]:
    ops = []

    def add(family: str, **p: int) -> None:
        argv = ["construct", family]
        for k, v in p.items():
            argv += [f"--{k}", str(v)]
        expect = checks.construct_expectation(family, **p)
        ops.append(_op(argv, f"c{len(ops)}.json", "construct", expect))

    for n in _sizes(rng, CONSTRUCT_MIX["k33"], 2):
        add("k33", n=n)
    k2 = CONSTRUCT_MIX["k2t"] // 3
    for n in _sizes(rng, k2, 2, 2 * MAX_REGULAR_DEPTH):
        add("k2t", t=2, n=n)
    for n in _sizes(rng, CONSTRUCT_MIX["k2t"] - k2, 2):
        add("k2t", t=3, n=n)
    for n in _sizes(rng, CONSTRUCT_MIX["star"], 2):
        t = rng.randint(max(2, -(-n // MAX_REGULAR_DEPTH)), 40)
        if n > t * MAX_REGULAR_DEPTH:
            n = t * MAX_REGULAR_DEPTH
        if n >= t and t > 2 and not checks.regular_feasible(n, t - 1):
            n += 1  # n is odd here, so n + 1 is even and feasible
        add("star", t=t, n=n)
    for n in _sizes(rng, CONSTRUCT_MIX["regular"], 2):
        # the constructor complements when 2d >= n, recursing on n - 1 - d
        lo = max(0, -(-n // MAX_REGULAR_DEPTH) - 1)
        d = rng.randint(lo, n - 1 - lo)
        while not checks.regular_feasible(n, d):
            d = rng.randint(lo, n - 1 - lo)
        add("regular", n=n, d=d)
    for v in _sizes(rng, CONSTRUCT_MIX["clique-product"], 2):
        s = rng.randint(1, 5)
        t = rng.randint(max(s, 2), 10)
        add("clique-product", s=s, t=t, r=max(1, (v - s + 1) // t))
    return ops


def _write_input(workdir: Path, name: str, tree: dict) -> dict:
    """Write a tree in canonical form; its path, tree, text and counts."""
    tree, _ = ct.canonical(tree)
    text = ct.dumps(tree)
    path = workdir / name
    path.write_text(text)
    return {"path": str(path), "tree": tree, "text": text, "m": ct.measure(tree)}


def _pump_choices(tree: dict, n: int) -> list:
    """Summands to pump: the small ones, so that copies add little output."""
    paths = ct.summand_paths(tree)
    small = [p for p in paths if ct.measure(p[1])["vertices"] <= n // 8]
    return small or paths


def _input_ops(rng: random.Random, workdir: Path, count: dict, trees: list,
               deep: bool) -> list[dict]:
    """pump and export operations over the given input trees, round robin."""
    ops = []
    tag = "deep" if deep else "in"
    inputs = [_write_input(workdir, f"{tag}{i}.json", t) for i, t in enumerate(trees)]
    for kind in ("pump", "export-json", "export-dot"):
        for i in range(count.get(kind, 0)):
            inp = inputs[i % len(inputs)]
            path, m = inp["path"], inp["m"]
            name = f"{tag}-{kind}{i}"
            if kind == "pump":
                if "choices" not in inp:
                    inp["choices"] = _pump_choices(inp["tree"], m["vertices"])
                where, summand, joined = rng.choice(inp["choices"])
                k = rng.randint(1, 3)
                h = ct.measure(summand)
                expect = {"vertices": m["vertices"] + k * h["vertices"],
                          "edges": m["edges"] + k * (h["edges"] + h["vertices"] * joined)}
                argv = ["construct", "pump", "--input", path,
                        "--path", "/".join(map(str, where)), "--k", str(k)]
                ops.append(_op(argv, name + ".json", "construct", expect, deep))
            elif kind == "export-json":
                ops.append(_op(["export", "--input", path, "--format", "json"],
                               name + ".json", kind, {"text": inp["text"]}, deep))
            else:
                expect = {k: m[k] for k in (ct.LEAF, ct.SUM, ct.PROD)}
                ops.append(_op(["export", "--input", path, "--format", "dot"],
                               name + ".dot", kind, expect, deep))
    return ops


def construct_ops(seed: int, workdir: Path) -> list[dict]:
    """The seeded construct stream: families, pumps and exports in random
    order, with inputs written to workdir."""
    rng = random.Random(seed)
    ops = _family_ops(rng)

    # Inputs with at least one summand, so that every one can be pumped.
    trees = []
    for n in _sizes(rng, 48, 8):
        tree = ct.random_tree(rng, n)
        while not ct.summand_paths(tree):
            tree = ct.random_tree(rng, n)
        trees.append(tree)
    ops += _input_ops(rng, workdir, CONSTRUCT_MIX, trees, deep=False)

    small = [_write_input(workdir, f"g6_{i}.json", ct.random_tree(rng, n))
             for i, n in enumerate(_sizes(rng, 24, 2, 62))]
    for i in range(CONSTRUCT_MIX["export-graph6"]):
        inp = small[i % len(small)]
        degs = {str(k): v for k, v in ct.degrees(inp["tree"]).items()}
        ops.append(_op(["export", "--input", inp["path"], "--format", "graph6"],
                       f"g6_{i}.g6", "export-graph6", {"degrees": degs}))

    deep = [ct.caterpillar(rng, rng.randint(DEEP_MIN_HEIGHT, DEEP_MAX_HEIGHT))
            for _ in range(4)]
    ops += _input_ops(rng, workdir, DEEP_MIX, deep, deep=True)

    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The operations of one pass, with output paths inside workdir."""
    if workload == "enumerate":
        ops = enumerate_ops()
    elif workload == "verify":
        ops = verify_ops(seed)
    elif workload == "construct":
        ops = construct_ops(seed, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = workdir / "out"
    out.mkdir(exist_ok=True)
    for op in ops:
        op["output"] = str(out / op["output"])
        op["argv"][-1] = op["output"]
    return ops

