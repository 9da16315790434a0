"""Cotree traversals: the explicit-stack fold, walk and JSON loader against
the recursive versions they replaced, the prefix sequence kernels and the
degree walk against the loops and the fold they replaced, the one-pass node
constructors against the multi-pass one, and all of them on cotrees far
deeper than the recursion limit."""

import ast
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cogex
from cogex.constructions import (
    k33_extremal,
    pump,
    pump_subset,
    regular_cograph,
    regular_infeasibility_reason,
)
from cogex.cotree import (
    LEAF,
    PROD,
    SUM,
    Cotree,
    biclique_sequence,
    check_sequence_invariants,
    clique,
    clique_number,
    complement,
    degree_counts,
    edgeless,
    fold,
    height,
    make_leaf,
    make_product,
    make_sum,
    max_degree,
    summands,
    to_formula,
)
from cogex.profile import NEG_INF
from cogex.oracle import enumerate_cotrees, random_cotree
from cogex.profile import forbidden_biclique_profile, fulfills
from cogex.serialize import (
    COTREE_FORMAT,
    CotreeFormatError,
    cotree_from_obj,
    cotree_to_obj,
    dumps_cotree,
    dumps_cotree_document,
    loads_cotree,
    to_dot,
)

# =============================================================================
# The recursive and multi-pass versions, as they were before the fold, the
# walk, the loader loop, one-pass nodes, the prefix kernels and the degree walk
# =============================================================================


def old_complement(g):
    if g.kind == LEAF:
        return g
    kids = [old_complement(c) for c in g.children]
    return make_sum(kids) if g.kind == PROD else make_product(kids)


def old_height(g):
    if g.kind == LEAF:
        return 0
    return 1 + max(old_height(c) for c in g.children)


def old_clique_number(g):
    if g.kind == LEAF:
        return 1
    if g.kind == SUM:
        return max(old_clique_number(c) for c in g.children)
    return sum(old_clique_number(c) for c in g.children)


def old_max_degree(g):
    if g.kind == LEAF:
        return 0
    if g.kind == SUM:
        return max(old_max_degree(c) for c in g.children)
    return max(old_max_degree(c) + g.n - c.n for c in g.children)


def old_to_formula(g):
    if g.kind == LEAF:
        return "v"
    if g.kind == PROD and all(c.kind == LEAF for c in g.children):
        return f"K{g.n}"
    if g.kind == SUM and all(c.kind == LEAF for c in g.children):
        return f"E{g.n}"
    sep = "+" if g.kind == SUM else "*"
    return "(" + sep.join(old_to_formula(c) for c in g.children) + ")"


def old_sum_entries(e1, e2, cap):
    n = int(e1[0]) + int(e2[0])
    out = [n]
    for s in range(1, cap + 1):
        m = e1[s] if e1[s] >= e2[s] else e2[s]
        if m < 0:
            m = 0 if s <= n else NEG_INF
        out.append(m)
    return tuple(out)


def old_product_entries(e1, e2, cap):
    out = []
    for s in range(cap + 1):
        best = NEG_INF
        for a in range(s + 1):
            x, y = e1[a], e2[s - a]
            if x == NEG_INF or y == NEG_INF:
                continue
            v = x + y
            if v > best:
                best = v
        out.append(best)
    return tuple(out)


def old_biclique_entries(g, cap):
    def rec(node):
        if node.kind == LEAF:
            return (1, 0) + (float("-inf"),) * (cap - 1) if cap >= 1 else (1,)
        parts = [rec(c) for c in node.children]
        acc = parts[0]
        for p in parts[1:]:
            acc = (old_sum_entries if node.kind == SUM else old_product_entries)(acc, p, cap)
        return acc

    return rec(g)


def old_degree_counts(g):
    def inner(node, counts):
        out = {}
        for c, child in zip(node.children, counts):
            shift = node.n - c.n if node.kind == PROD else 0
            for d, k in child.items():
                out[d + shift] = out.get(d + shift, 0) + k
        return out
    return fold(g, {0: 1}, inner)


def old_cotree_to_obj(g):
    if g.kind == "leaf":
        return {"op": "leaf"}
    return {"op": g.kind, "children": [old_cotree_to_obj(c) for c in g.children]}


def old_dumps_cotree(g):
    return json.dumps(old_cotree_to_obj(g), sort_keys=True, separators=(",", ":"))


def old_to_dot(g, name="cotree"):
    lines = [f"digraph {name} {{", "  node [shape=circle];"]
    counter = 0
    labels = {"sum": "+", "prod": "×", "leaf": "•"}

    def visit(node, parent):
        nonlocal counter
        nid = f"n{counter}"
        counter += 1
        attrs = f'label="{labels[node.kind]}"'
        if parent is None:
            attrs += ' style=filled fillcolor="mediumpurple"'
        lines.append(f"  {nid} [{attrs}];")
        if parent is not None:
            lines.append(f"  {parent} -> {nid};")
        for c in node.children:
            visit(c, nid)

    visit(g, None)
    lines.append("}")
    return "\n".join(lines) + "\n"


def old_summand_paths(g):
    """verification._summand_paths: (path, summand, outside neighbours)."""
    out = []

    def walk(node, path, joined):
        if node.kind == "leaf":
            return
        for idx, c in enumerate(node.children):
            child_joined = joined + (node.n - c.n if node.kind == "prod" else 0)
            if node.kind == SUM:
                out.append((path + (idx,), c, joined))
            walk(c, path + (idx,), child_joined)

    walk(g, (), 0)
    return out


def old_pump_target(g, subset):
    """The summand search of constructions.pump_subset."""
    target = None

    def walk(node, offset, path, parent_kind):
        nonlocal target
        span = ((1 << node.n) - 1) << offset
        if span == subset and parent_kind == SUM:
            target = path
            return
        pos = offset
        for idx, c in enumerate(node.children):
            walk(c, pos, path + (idx,), node.kind)
            pos += c.n

    walk(g, 0, (), None)
    return target


def old_regular(n, d):
    if d == 0:
        return edgeless(n)
    if d == n - 1:
        return clique(n)
    if 2 * d >= n:
        return old_complement(old_regular(n, n - 1 - d))
    if d % 2 == 0 and n % 2 == 0 and 3 * d == n - 2:
        block = make_product([edgeless(2) for _ in range(d // 2 + 1)])
        return make_sum([block, old_regular(2 * d, d)])
    return make_sum([clique(d + 1), old_regular(n - d - 1, d)])


def old_leaf():
    return Cotree(LEAF, (), 1, 0, b"*")


def old_make_inner(kind, children):
    """cotree._make_inner before _node: a fresh node per leaf, three sums
    and a sort by a lambda key."""
    kids = list(children)
    if not kids:
        raise ValueError(f"{kind} node needs at least one child")
    if len(kids) == 1:
        return kids[0]
    flat = []
    for c in kids:
        if c.kind == kind:
            flat.extend(c.children)
        else:
            flat.append(c)
    flat.sort(key=lambda c: c._canon)
    n = sum(c.n for c in flat)
    edges = sum(c.edges for c in flat)
    if kind == PROD:
        edges += (n * n - sum(c.n * c.n for c in flat)) // 2
    canon = {SUM: b"+", PROD: b"x"}[kind] + b"(" + b",".join(c._canon for c in flat) + b")"
    return Cotree(kind, tuple(flat), n, edges, canon)


def old_cotree_from_obj(obj, path=""):
    if not isinstance(obj, dict) or "op" not in obj:
        raise CotreeFormatError("expected an object with an 'op' field", path)
    op = obj["op"]
    if op == "leaf":
        if "children" in obj:
            raise CotreeFormatError("leaf must not have children", path)
        return old_leaf()
    if op not in ("sum", "prod"):
        raise CotreeFormatError(f"unknown op {op!r}", path)
    children = obj.get("children")
    if not isinstance(children, list) or len(children) < 2:
        raise CotreeFormatError("inner node needs a list of >= 2 children", path)
    kids = []
    for i, child in enumerate(children):
        child_path = f"{path}/children/{i}"
        if isinstance(child, dict) and child.get("op") == op:
            raise CotreeFormatError(f"{op} child under {op} node violates reduction",
                                    child_path)
        kids.append(old_cotree_from_obj(child, child_path))
    return old_make_inner(op, kids)


# =============================================================================
# Equality with the recursive versions
# =============================================================================


def padded(seq, cap):
    """The padded form of the old loops: entries 0..cap, -inf past n."""
    return (*seq, *(NEG_INF,) * (cap + 1 - len(seq)))


def _same_entries(seq, ref):
    """``seq`` is the padded reference ``ref`` (entries 0..cap, -inf past n)
    with its -inf tail stripped: min(n, cap) + 1 int entries equal to the
    reference's, every reference entry past them -inf."""
    m = min(ref[0], len(ref) - 1) + 1
    return (len(seq) == m and all(type(v) is int for v in seq) and seq == ref[:m]
            and all(v == NEG_INF for v in ref[m:]))


def _assert_traversals_match(g):
    assert height(g) == old_height(g)
    assert clique_number(g) == old_clique_number(g)
    assert max_degree(g) == old_max_degree(g)
    assert complement(g) == old_complement(g)
    assert to_formula(g) == old_to_formula(g)
    for cap in {0, 1, 3, min(g.n, 24)}:
        assert _same_entries(biclique_sequence(g, cap), old_biclique_entries(g, cap))
    assert degree_counts(g) == old_degree_counts(g)
    assert cotree_to_obj(g) == old_cotree_to_obj(g)
    assert dumps_cotree(g) == old_dumps_cotree(g)
    assert to_dot(g) == old_to_dot(g)
    walked = list(summands(g))
    assert [(path, c, outside) for path, c, _, outside in walked] == old_summand_paths(g)
    for path, c, first, _ in walked:
        assert old_pump_target(g, ((1 << c.n) - 1) << first) == path


def test_traversals_match_recursion_on_the_catalog():
    for n in range(1, 10):
        for g in enumerate_cotrees(n).items:
            _assert_traversals_match(g)
            for cap in range(n + 3):
                assert _same_entries(biclique_sequence(g, cap), old_biclique_entries(g, cap))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 150))
def test_traversals_match_recursion_on_random_cotrees(seed, n):
    _assert_traversals_match(random_cotree(random.Random(seed), n))


def test_kernels_match_the_old_loops_on_random_cotrees():
    rng = random.Random(26)
    for n in (1, 2, 3, 5, 8, 13, 21, 40, 75, 120, 200, 300):
        g = random_cotree(rng, n)
        for cap in (4, n):
            assert _same_entries(biclique_sequence(g, cap), old_biclique_entries(g, cap))
        assert degree_counts(g) == old_degree_counts(g)


def test_sequence_at_scale():
    g = k33_extremal(1000)
    full = biclique_sequence(g, 1000)
    assert full[:5] == biclique_sequence(g, 4)
    assert fulfills(full, forbidden_biclique_profile(3, 3))
    g = k33_extremal(300)
    assert _same_entries(biclique_sequence(g, 300), old_biclique_entries(g, 300))


def _assert_same_tree(a, b):
    """Equal field by field at every node, not only by canonical form."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        assert (x.kind, x.n, x.edges, x._canon, x.children) == \
            (y.kind, y.n, y.edges, y._canon, y.children)
        stack += zip(x.children, y.children)


def _loaded(load, *args):
    """The cotree ``load`` returns, or the message and path it raises."""
    try:
        return load(*args)
    except CotreeFormatError as exc:
        return str(exc), exc.path


def _assert_same_load(obj):
    """The loader agrees with the recursive one, bare and in a document."""
    for new, old in ((_loaded(cotree_from_obj, obj), _loaded(old_cotree_from_obj, obj)),
                     (_loaded(loads_cotree, json.dumps({"cotree": obj, "format": COTREE_FORMAT})),
                      _loaded(old_cotree_from_obj, obj, "/cotree"))):
        if isinstance(old, Cotree):
            _assert_same_tree(new, old)
        else:
            assert new == old
    return old


def _fresh_obj(g, rng):
    """g's cotree object with new dicts throughout, every child list
    shuffled and some leaves given an extra field."""
    obj = json.loads(dumps_cotree(g))
    stack = [obj]
    while stack:
        node = stack.pop()
        kids = node.get("children", [])
        rng.shuffle(kids)
        for i, c in enumerate(kids):
            if c["op"] == "leaf" and rng.random() < 0.2:
                kids[i] = {"note": i, "op": "leaf"}
        stack += kids
    return obj


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 150))
def test_loader_matches_recursion_on_shuffled_objects(seed, n):
    rng = random.Random(seed)
    g = random_cotree(rng, n)
    obj = _fresh_obj(g, rng)
    _assert_same_tree(cotree_from_obj(obj), g)
    _assert_same_load(obj)


def _mutate(obj, rng):
    """Make one node of obj malformed: a bad op, too few children, a leaf
    with children, a child of its parent's kind or a child that is no
    node object."""
    nodes, stack = [], [obj]  # node objects, some malformed by earlier mutations
    while stack:
        node = stack.pop()
        nodes.append(node)
        kids = node.get("children")
        if isinstance(kids, list):
            stack += [c for c in kids if isinstance(c, dict)]
    node = rng.choice(nodes)
    kids = node.get("children")
    how = rng.choice(["op", "one-child", "no-list", "same-kind", "non-node"]
                     if isinstance(kids, list) and len(kids) >= 2 else ["op", "leaf-children"])
    if how == "op":
        node["op"] = rng.choice(["join", "Sum", 1, None, ["sum"]])
    elif how == "leaf-children":
        node["children"] = rng.choice([[], [{"op": "leaf"}, {"op": "leaf"}]])
    elif how == "one-child":
        del kids[1:]
    elif how == "no-list":
        node["children"] = rng.choice([None, "ab", {"0": {"op": "leaf"}}])
    elif how == "same-kind":
        kids[rng.randrange(len(kids))] = {
            "children": [{"op": "leaf"}, {"op": "leaf"}], "op": node.get("op")}
    else:
        kids[rng.randrange(len(kids))] = rng.choice([5, "leaf", None, [], {"children": []}])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 40), st.integers(1, 3))
def test_loader_errors_match_recursion(seed, n, mutations):
    """The first malformed node in depth-first order is reported, with the
    recursive loader's message and path.  One mutation always makes an
    error; later ones may undo it."""
    rng = random.Random(seed)
    obj = _fresh_obj(random_cotree(rng, n), rng)
    for _ in range(mutations):
        _mutate(obj, rng)
    outcome = _assert_same_load(obj)
    assert mutations > 1 or not isinstance(outcome, Cotree)


def test_cliques_and_edgeless_match_reference():
    for k in range(1, 41):
        _assert_same_tree(clique(k), old_make_inner(PROD, [old_leaf() for _ in range(k)]))
        _assert_same_tree(edgeless(k), old_make_inner(SUM, [old_leaf() for _ in range(k)]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6))
def test_sum_and_product_match_reference(seed, count):
    """Children of either kind, leaves among them, spliced and sorted."""
    rng = random.Random(seed)
    kids = [random_cotree(rng, rng.randint(1, 12)) for _ in range(count)]
    _assert_same_tree(make_sum(iter(kids)), old_make_inner(SUM, kids))
    _assert_same_tree(make_product(iter(kids)), old_make_inner(PROD, kids))


def test_pump_subset_finds_every_summand():
    for n in range(1, 9):
        for g in enumerate_cotrees(n).items:
            for path, c, first, _ in summands(g):
                assert pump_subset(g, range(first, first + c.n), 1) == pump(g, path, 1)


def test_regular_matches_recursion():
    for n in range(1, 61):
        for d in range(n):
            g = regular_cograph(n, d)
            assert (g is None) == (regular_infeasibility_reason(n, d) is not None)
            if g is not None:
                assert g == old_regular(n, d), (n, d)


def test_no_function_taking_a_cotree_calls_itself():
    recursive = []
    for path in sorted(Path(cogex.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if not any(a.annotation is not None and "Cotree" in ast.unparse(a.annotation)
                       for a in fn.args.args):
                continue
            if any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                   and c.func.id == fn.name for c in ast.walk(fn)):
                recursive.append(f"{path.name}:{fn.name}")
    assert recursive == []


# =============================================================================
# Deep cotrees at the default recursion limit
# =============================================================================

HEIGHT = 3000


def _caterpillar(h):
    """Alternating product/sum chain: each level joins or adds one vertex."""
    g = make_leaf()
    for i in range(h):
        g = (make_sum if i % 2 else make_product)([g, make_leaf()])
    return g


@pytest.fixture(scope="module")
def deep():
    return _caterpillar(HEIGHT)


def test_deep_fold(deep):
    g = deep
    # the same figures level by level: a joined vertex sees every earlier one
    n, omega, delta = 1, 1, 0
    for i in range(HEIGHT):
        if i % 2 == 0:
            omega, delta = omega + 1, max(delta + 1, n)
        n += 1
    assert (g.n, height(g), clique_number(g), max_degree(g)) == (n, HEIGHT, omega, delta)
    c = complement(g)
    assert c.edges == n * (n - 1) // 2 - g.edges and complement(c) == g
    formula = to_formula(g)
    assert formula.count("v") == n - 2 and formula.count("K2") == 1
    seq = biclique_sequence(g, 4)
    check_sequence_invariants(seq)
    assert seq[:2] == (n, delta)
    obj, depth = cotree_to_obj(g), 0
    while obj["op"] != "leaf":
        obj, depth = obj["children"][-1], depth + 1
    assert depth == HEIGHT


def test_deep_complement_matches_recursion(deep):
    relabelled = complement(deep)  # at the default recursion limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 3 * HEIGHT))  # a comprehension frame per level
    try:
        spliced = old_complement(deep)
    finally:
        sys.setrecursionlimit(limit)
    assert relabelled == spliced


def test_deep_degree_counts(deep):
    # level by level: a joined vertex raises every earlier degree by one and
    # sees all n of them, an added one has degree 0; degrees are kept less
    # the number of joins so far
    joins, n, below = 0, 1, Counter({0: 1})
    for i in range(HEIGHT):
        if i % 2 == 0:
            joins += 1
            below[n - joins] += 1
        else:
            below[-joins] += 1
        n += 1
    assert degree_counts(deep) == {d + joins: k for d, k in below.items()}
    assert degree_counts(deep) == old_degree_counts(deep)


def test_deep_writers(deep):
    g = deep
    expected = '{"op":"leaf"}'
    for i in range(HEIGHT):
        expected = ('{"children":[{"op":"leaf"},' + expected + '],"op":"'
                    + ("sum" if i % 2 else "prod") + '"}')
    assert dumps_cotree(g) == expected
    doc = dumps_cotree_document(g, {"vertices": g.n})
    assert doc.count('"op": "leaf"') == g.n
    dot = to_dot(g)
    assert dot.count('label="•"') == g.n
    assert dot.count('label="+"') == dot.count('label="×"') == HEIGHT // 2
    assert dot.count(" -> ") == 2 * HEIGHT


def test_deep_loader(deep):
    obj = {"op": "leaf"}
    for i in range(HEIGHT):
        obj = {"children": [{"op": "leaf"}, obj], "op": "sum" if i % 2 else "prod"}
    _assert_same_tree(cotree_from_obj(obj), deep)
    bottom = obj
    while bottom["op"] != "leaf":
        bottom = bottom["children"][1]
    bottom["children"] = []
    with pytest.raises(CotreeFormatError) as exc:
        cotree_from_obj(obj)
    assert exc.value.path == "/children/1" * HEIGHT
    assert str(exc.value).startswith("leaf must not have children at /children/1/")


def test_deep_walk_and_pump(deep):
    g = deep
    count, deepest = 0, None
    for path, c, first, outside in summands(g):
        count += 1
        if c.kind != LEAF:
            deepest = (path, c, first, outside)
    assert count == HEIGHT  # two children under each of the HEIGHT / 2 sum nodes
    path, c, first, outside = deepest
    assert len(path) == HEIGHT - 1 and c == clique(2)
    assert (first, outside) == (g.n - 2, HEIGHT // 2 - 1)
    pumped = pump(g, path, 2)
    assert pumped.n == g.n + 4
    assert pumped.edges == g.edges + 2 * (c.edges + c.n * outside)
    assert pump_subset(g, range(first, first + c.n), 2) == pumped
