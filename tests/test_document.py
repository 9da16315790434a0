"""The cogex.cotree/1 document writer against the json encoder it replaces."""

import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogex.constructions import (
    clique_product_family,
    k2t_extremal,
    k33_extremal,
    pump,
    regular_cograph,
    star_extremal,
)
from cogex.cotree import LEAF, SUM, make_leaf, make_product, make_sum, to_formula
from cogex.oracle import random_cotree
from cogex.serialize import (
    COTREE_FORMAT,
    cotree_to_obj,
    dumps_cotree_document,
    loads_cotree,
)


def _reference(g, verification):
    return json.dumps({"cotree": cotree_to_obj(g), "format": COTREE_FORMAT,
                       "verification": verification}, indent=2, sort_keys=True)


def _verification(g, **extra):
    """A block with every value type construct writes."""
    return {"vertices": g.n, "edges": g.edges, "formula": to_formula(g),
            "constraint": "K{3,3}", "degrees": [2, 3], "fulfills_constraint": True,
            **extra}


def _sum_child_path(g):
    """The first child-index path, in DFS order, that ends below a sum node."""
    stack = [(g, ())]
    while stack:
        node, path = stack.pop()
        if node.kind == SUM:
            return path + (0,)
        stack += [(c, path + (i,)) for i, c in reversed(list(enumerate(node.children)))]
    raise ValueError("no sum node")


# families at small, typical (up to 500 vertices) and 3,000-vertex sizes
FAMILIES = [
    *[(f"k33 n={n}", lambda n=n: k33_extremal(n)) for n in (2, 9, 347, 3000)],
    *[(f"k2t t={t} n={n}", lambda t=t, n=n: k2t_extremal(t, n))
      for t, n in ((2, 2), (2, 11), (2, 500), (2, 3000), (3, 2), (3, 11), (3, 412),
                   (3, 3000))],
    *[(f"star t={t} n={n}", lambda t=t, n=n: star_extremal(t, n))
      for t, n in ((3, 2), (4, 7), (7, 300), (20, 3000), (40, 3000))],
    *[(f"regular n={n} d={d}", lambda n=n, d=d: regular_cograph(n, d))
      for n, d in ((7, 4), (300, 9), (3000, 99))],
    *[(f"clique-product {s},{t},{r}", lambda s=s, t=t, r=r: clique_product_family(s, t, r))
      for s, t, r in ((3, 3, 2), (2, 7, 60), (3, 10, 299))],
    ("pump clique-product", lambda: pump(clique_product_family(3, 3, 2), (2, 0), 5)),
    ("pump k33 n=500", lambda: pump(k33_extremal(500), _sum_child_path(k33_extremal(500)), 3)),
    ("pump k33 n=3000",
     lambda: pump(k33_extremal(3000), _sum_child_path(k33_extremal(3000)), 2)),
    ("leaf", make_leaf),
]


@pytest.mark.parametrize("build", [b for _, b in FAMILIES], ids=[i for i, _ in FAMILIES])
def test_document_equals_json_encoder(build):
    g = build()
    v = _verification(g, pumped_path=[2, 0], k=5)
    assert dumps_cotree_document(g, v) == _reference(g, v)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 150),
       st.dictionaries(st.text(), json_values, max_size=6))
def test_document_equals_json_encoder_on_random_cotrees(seed, n, verification):
    g = random_cotree(random.Random(seed), n)
    assert dumps_cotree_document(g, verification) == _reference(g, verification)


def test_document_of_a_deep_cotree():
    height = 2000
    g = make_leaf()
    for i in range(height):
        g = (make_sum if i % 2 else make_product)([g, make_leaf()])
    v = {"vertices": g.n, "edges": g.edges, "formula": to_formula(g)}
    text = dumps_cotree_document(g, v)  # at the default recursion limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 6 * height))
    try:
        doc = json.loads(text)
    finally:
        sys.setrecursionlimit(limit)
    assert doc["format"] == COTREE_FORMAT and doc["verification"] == v
    # walk the loaded tree and the cotree side by side, without recursion
    depth, pairs = 0, [(doc["cotree"], g, 0)]
    while pairs:
        obj, node, d = pairs.pop()
        depth = max(depth, d)
        assert obj["op"] == node.kind
        if node.kind == LEAF:
            assert set(obj) == {"op"}
            continue
        assert set(obj) == {"op", "children"} and len(obj["children"]) == len(node.children)
        pairs += [(o, c, d + 1) for o, c in zip(obj["children"], node.children)]
    assert depth == height


def test_loads_cotree_reads_the_document():
    g = k33_extremal(40)
    text = dumps_cotree_document(g, _verification(g))
    assert loads_cotree(text) == g
    broken = json.loads(text)
    broken["cotree"]["children"][0] = {"op": "sum"}
    with pytest.raises(ValueError, match="/cotree/children/0"):
        loads_cotree(json.dumps(broken))
