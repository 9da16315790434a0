"""Cotree JSON objects for benchmark inputs and output checks.

A tree is the object form of the cogex cotree JSON format:
``{"op": "leaf"}`` or ``{"op": "sum"|"prod", "children": [...]}``.  Every
function here walks trees with an explicit stack, because the benchmark
writes and checks trees far deeper than the interpreter's recursion limit
(``json.dumps`` itself fails on a caterpillar of height about 600).

This module is the benchmark's own reference: it never imports cogex.
"""

from __future__ import annotations

import random
from collections import Counter

LEAF = "leaf"
SUM = "sum"
PROD = "prod"
_TAG = {SUM: b"+", PROD: b"x"}


def leaf() -> dict:
    return {"op": LEAF}


def postorder(root: dict) -> list[dict]:
    """Every node of the tree, each after all of its descendants."""
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.get("children", ()))
    order.reverse()
    return order


def canonical(root: dict) -> tuple[dict, bytes]:
    """The tree with children sorted as cogex sorts them, and its encoding.

    The encoding matches ``cogex.cotree.canonical_form``: ``*`` for a leaf,
    ``+(...)`` for a sum and ``x(...)`` for a product, children joined by
    commas in bytewise order.  Raises ValueError on a malformed or
    unreduced tree.
    """
    canon: dict[int, bytes] = {}
    copy: dict[int, dict] = {}
    for node in postorder(root):
        op = node.get("op")
        if op == LEAF:
            if "children" in node:
                raise ValueError("leaf with children")
            canon[id(node)] = b"*"
            copy[id(node)] = leaf()
            continue
        if op not in _TAG:
            raise ValueError(f"unknown op {op!r}")
        kids = node.get("children")
        if not isinstance(kids, list) or len(kids) < 2:
            raise ValueError("inner node with fewer than two children")
        if any(c.get("op") == op for c in kids):
            raise ValueError(f"{op} child under {op} node")
        ordered = sorted(kids, key=lambda c: canon[id(c)])
        canon[id(node)] = _TAG[op] + b"(" + b",".join(canon[id(c)] for c in ordered) + b")"
        copy[id(node)] = {"op": op, "children": [copy[id(c)] for c in ordered]}
    return copy[id(root)], canon[id(root)]


def dumps(root: dict) -> str:
    """Compact JSON text with sorted keys, as ``cogex export`` writes it."""
    out = []
    stack: list = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item["op"] == LEAF:
            out.append('{"op":"leaf"}')
        else:
            out.append('{"children":[')
            stack.append('],"op":"%s"}' % item["op"])
            kids = item["children"]
            for i in range(len(kids) - 1, -1, -1):
                stack.append(kids[i])
                if i:
                    stack.append(",")
    return "".join(out)


def measure(root: dict) -> dict:
    """Vertex, edge, node and per-kind counts, and the height of the tree."""
    size: dict[int, tuple[int, int, int]] = {}  # id -> (vertices, edges, height)
    kinds: Counter = Counter()
    for node in postorder(root):
        kinds[node["op"]] += 1
        if node["op"] == LEAF:
            size[id(node)] = (1, 0, 0)
            continue
        parts = [size[id(c)] for c in node["children"]]
        n = sum(p[0] for p in parts)
        e = sum(p[1] for p in parts)
        if node["op"] == PROD:
            e += (n * n - sum(p[0] * p[0] for p in parts)) // 2
        size[id(node)] = (n, e, 1 + max(p[2] for p in parts))
    n, e, h = size[id(root)]
    return {"vertices": n, "edges": e, "height": h, "nodes": sum(kinds.values()),
            LEAF: kinds[LEAF], SUM: kinds[SUM], PROD: kinds[PROD]}


def _vertex_counts(root: dict) -> dict[int, int]:
    """Vertices under each node, by node id."""
    n_of: dict[int, int] = {}
    for node in postorder(root):
        n_of[id(node)] = 1 if node["op"] == LEAF else sum(
            n_of[id(c)] for c in node["children"])
    return n_of


def degrees(root: dict) -> Counter:
    """Multiset of vertex degrees: a leaf is adjacent to every vertex that a
    product ancestor joins to the branch holding the leaf."""
    n_of = _vertex_counts(root)
    out: Counter = Counter()
    stack = [(root, 0)]
    while stack:
        node, outside = stack.pop()
        if node["op"] == LEAF:
            out[outside] += 1
            continue
        for c in node["children"]:
            extra = n_of[id(node)] - n_of[id(c)] if node["op"] == PROD else 0
            stack.append((c, outside + extra))
    return out


def canon_counts(text: str) -> tuple[int, int]:
    """(vertices, edges) of a canonical encoding such as ``x(*,*,+(*,*))``."""
    stack: list[list] = []  # [kind, vertices, edges, sum of squared child sizes]
    result = None
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "+x":
            if text[i + 1:i + 2] != "(":
                raise ValueError(f"bad encoding at {i}")
            stack.append([ch, 0, 0, 0])
            i += 2
            continue
        if ch == "*":
            child = (1, 0)
        elif ch == ")":
            kind, n, e, sq = stack.pop()
            child = (n, e + ((n * n - sq) // 2 if kind == "x" else 0))
        elif ch == ",":
            i += 1
            continue
        else:
            raise ValueError(f"bad character {ch!r} at {i}")
        if stack:
            top = stack[-1]
            top[1] += child[0]
            top[2] += child[1]
            top[3] += child[0] * child[0]
        elif result is None:
            result = child
        else:
            raise ValueError("trailing text after the root")
        i += 1
    if stack or result is None:
        raise ValueError("unbalanced encoding")
    return result


# =============================================================================
# Generators
# =============================================================================

def random_tree(rng: random.Random, n: int, max_children: int = 5,
                max_depth: int = 24) -> dict:
    """A random reduced tree on n leaves whose height is at most max_depth."""
    root: dict = {}
    stack = [(root, n, rng.choice((SUM, PROD)), 0)]
    while stack:
        node, k, op, depth = stack.pop()
        if k == 1:
            node["op"] = LEAF
            continue
        node["op"] = op
        if depth + 1 >= max_depth:
            sizes = [1] * k
        else:
            m = rng.randint(2, min(k, max_children))
            cuts = sorted(rng.sample(range(1, k), m - 1))
            sizes = [b - a for a, b in zip([0] + cuts, cuts + [k])]
        kids = [{} for _ in sizes]
        node["children"] = kids
        other = PROD if op == SUM else SUM
        for kid, size in zip(kids, sizes):
            stack.append((kid, size, other, depth + 1))
    return root


def caterpillar(rng: random.Random, height: int) -> dict:
    """A threshold graph: a path of alternating sum and product nodes of the
    given height, with one or two leaves hanging from every node."""
    op = rng.choice((SUM, PROD))
    node = {"op": op, "children": [leaf(), leaf()]}
    for _ in range(height - 1):
        op = PROD if op == SUM else SUM
        node = {"op": op, "children": [leaf() for _ in range(rng.randint(1, 2))] + [node]}
    return node


def summand_paths(root: dict) -> list[tuple[tuple[int, ...], dict, int]]:
    """(child-index path, summand, outside-neighbourhood size) for every child
    of a sum node; pumping the summand copies it with that neighbourhood."""
    n_of = _vertex_counts(root)
    out = []
    stack = [(root, (), 0)]
    while stack:
        node, path, joined = stack.pop()
        for idx, c in enumerate(node.get("children", ())):
            if node["op"] == SUM:
                out.append((path + (idx,), c, joined))
            extra = n_of[id(node)] - n_of[id(c)] if node["op"] == PROD else 0
            stack.append((c, path + (idx,), joined + extra))
    out.sort(key=lambda item: item[0])
    return out
