"""Cotree data model: construction, reduction, expansion, sequences."""

import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cogex
from cogex.cotree import (
    AdjacencyGraph,
    CapacityError,
    biclique_sequence,
    canonical_form,
    check_sequence_invariants,
    clique,
    clique_number,
    complement,
    degree_counts,
    edgeless,
    height,
    is_induced_p4_free,
    make_leaf,
    make_product,
    make_sum,
    to_adjacency,
    to_formula,
)
from cogex.constructions import (
    clique_product_family,
    k2t_extremal,
    k33_extremal,
    pump,
    regular_cograph,
    star_extremal,
)
from cogex.oracle import enumerate_cotrees, random_cotree


def test_make_sum_edgeless(e2):
    assert e2.n == 2
    assert e2.edges == 0


def test_make_product_c4(c4):
    assert c4.n == 4
    assert c4.edges == 4


def test_single_child_returned_unchanged(k3):
    assert make_sum([k3]) is k3
    assert make_product([k3]) is k3


def test_nested_product_flattens():
    g = make_product([make_leaf(), make_product([make_leaf(), make_leaf()])])
    assert g.kind == "prod"
    assert len(g.children) == 3
    assert all(c.kind == "leaf" for c in g.children)
    assert g == clique(3)


def test_empty_children_rejected():
    with pytest.raises(ValueError):
        make_sum([])
    with pytest.raises(ValueError):
        make_product([])


def test_edge_count_laws():
    rng = random.Random(11)
    for _ in range(60):
        a = random_cotree(rng, rng.randint(1, 6))
        b = random_cotree(rng, rng.randint(1, 6))
        s = make_sum([a, b])
        p = make_product([a, b])
        assert s.edges == a.edges + b.edges
        assert p.edges == a.edges + b.edges + a.n * b.n


def test_canonical_form_commutative(k1):
    k2 = clique(2)
    assert canonical_form(make_sum([k2, k1])) == canonical_form(make_sum([k1, k2]))
    assert canonical_form(clique(3)) != canonical_form(edgeless(3))
    a = make_product([edgeless(2), clique(2)])
    b = make_product([clique(2), edgeless(2)])
    assert canonical_form(a) == canonical_form(b)


def test_complement_examples(c4):
    assert complement(clique(3)) == edgeless(3)
    assert complement(edgeless(2)) == clique(2)
    assert complement(c4) == make_sum([clique(2), clique(2)])


def test_complement_involution_small():
    for n in range(1, 7):
        for g in enumerate_cotrees(n).items:
            assert complement(complement(g)) == g
            assert g.edges + complement(g).edges == n * (n - 1) // 2


def test_height_and_clique_number(c4, k2_join_two_triangles):
    assert height(make_leaf()) == 0
    assert clique_number(make_leaf()) == 1
    assert height(c4) == 2
    assert clique_number(c4) == 2
    # join of an edge with two triangles: the sum child nests one level deeper
    assert clique_number(k2_join_two_triangles) == 5
    assert height(k2_join_two_triangles) == 3


def test_height_omega_bound():
    rng = random.Random(5)
    for _ in range(200):
        g = random_cotree(rng, rng.randint(1, 12))
        assert height(g) <= 2 * clique_number(g) + 1


def test_to_adjacency(c4):
    assert to_adjacency(edgeless(2)).rows == (0, 0)
    k2 = to_adjacency(clique(2))
    assert k2.edge_count() == 1
    a = to_adjacency(c4)
    assert a.degree_sequence() == (2, 2, 2, 2)
    assert is_induced_p4_free(a)
    assert a.edge_count() == c4.edges


def test_to_adjacency_limit():
    with pytest.raises(CapacityError):
        to_adjacency(edgeless(17))
    assert to_adjacency(edgeless(17), limit=17).n == 17


def test_degree_counts_match_expansion_exhaustive():
    assert degree_counts(make_leaf()) == {0: 1}
    for n in range(1, 10):
        for g in enumerate_cotrees(n).items:
            assert degree_counts(g) == Counter(to_adjacency(g).degree_sequence()), g


def test_degree_counts_far_past_the_expansion_limit():
    # the core K_2 sees everything; each K_3 vertex its triangle and the core
    assert degree_counts(k33_extremal(200)) == {199: 2, 4: 198}
    # 199 = 66 triangles and one vertex left over, joined to the core only
    assert degree_counts(k33_extremal(201)) == {200: 2, 4: 198, 2: 1}
    assert degree_counts(regular_cograph(500, 7)) == {7: 500}
    assert degree_counts(clique(40)) == {39: 40}
    assert degree_counts(edgeless(40)) == {0: 40}
    assert degree_counts(complement(regular_cograph(300, 4))) == {295: 300}


def test_adjacency_matches_cached_edges_exhaustive():
    for n in range(1, 8):
        for g in enumerate_cotrees(n).items:
            assert to_adjacency(g).edge_count() == g.edges


def test_adjacency_matches_cached_edges_random():
    rng = random.Random(99)
    for _ in range(50):
        g = random_cotree(rng, rng.randint(8, 14))
        assert to_adjacency(g).edge_count() == g.edges


def test_expansions_are_p4_free():
    for n in range(1, 8):
        for g in enumerate_cotrees(n).items:
            assert is_induced_p4_free(to_adjacency(g))


def test_p4_detected():
    p4 = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert not is_induced_p4_free(p4)


def test_biclique_sequence_examples(c4, p3, k1):
    # entries past n are -inf and not stored
    assert biclique_sequence(k1, 2) == (1, 0)
    assert biclique_sequence(c4, 4) == (4, 2, 2, 0, 0)
    assert biclique_sequence(p3, 3) == (3, 2, 1, 0)


def test_biclique_sequence_invariants():
    rng = random.Random(3)
    for _ in range(80):
        g = random_cotree(rng, rng.randint(1, 9))
        seq = biclique_sequence(g, g.n + 2)
        check_sequence_invariants(seq)
        assert seq[0] == g.n
        # at a cap past n, exactly the n + 1 entries 0..n, all ints
        assert len(seq) == g.n + 1 and all(type(v) is int for v in seq)


@pytest.mark.parametrize("seq, named", [
    ((2, 1, 0, 0), "entry 3 lies past n=2: (2, 1, 0, 0)"),
    ((2, 1, -1), "entry 2 should be >= 0 for n=2: (2, 1, -1)"),
    ((3, 0, 1), "not decreasing at 1: (3, 0, 1)"),
    ((3, 1, 1), "not subdiagonal at (1, 2): (3, 1, 1)"),
])
def test_sequence_invariants_reject_each_violation(seq, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        check_sequence_invariants(seq)


def test_sequence_invariants_are_checked_under_python_O():
    # an assert would be stripped by -O and let the sequence pass
    code = """
from cogex.cotree import check_sequence_invariants
try:
    check_sequence_invariants((3, 1, 2))
except ValueError as exc:
    print(exc)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cogex.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "not decreasing at 1: (3, 1, 2)\n"


def test_formula_rendering(k2_join_two_triangles):
    assert to_formula(clique(3)) == "K3"
    assert to_formula(edgeless(2)) == "E2"
    assert to_formula(k2_join_two_triangles) == "(v*v*(K3+K3))"


def _assert_reduced_canonical(g):
    if g.kind == "leaf":
        assert g.children == ()
        return
    assert len(g.children) >= 2
    canons = [canonical_form(c) for c in g.children]
    assert canons == sorted(canons)
    for c in g.children:
        assert c.kind != g.kind
        _assert_reduced_canonical(c)


def test_trees_are_reduced_and_canonical():
    rng = random.Random(13)
    for _ in range(150):
        g = random_cotree(rng, rng.randint(1, 12))
        _assert_reduced_canonical(g)
    for n in range(1, 7):
        for g in enumerate_cotrees(n).items:
            _assert_reduced_canonical(g)


def _reference_adjacency_rows(g):
    """The recursive expansion that the explicit-stack loop replaced."""
    rows = [0] * g.n

    def fill(node, offset):
        if node.kind == "leaf":
            return
        pos = offset
        spans = []
        for c in node.children:
            spans.append((pos, c.n))
            fill(c, pos)
            pos += c.n
        if node.kind == "prod":
            masks = [((1 << cn) - 1) << start for start, cn in spans]
            total = 0
            for m in masks:
                total |= m
            for m, (start, cn) in zip(masks, spans):
                for v in range(start, start + cn):
                    rows[v] |= total & ~m

    fill(g, 0)
    return tuple(rows)


def test_to_adjacency_matches_recursive_reference():
    # graph6 bytes depend on the DFS leaf numbering, so rows must be equal
    graphs = [g for n in range(1, 10) for g in enumerate_cotrees(n).items]
    sizes = range(2, 17)
    graphs += [k33_extremal(n) for n in sizes]
    graphs += [k2t_extremal(t, n) for t in (2, 3) for n in sizes]
    graphs += [star_extremal(t, n) for t in range(2, 7) for n in sizes]
    graphs += [g for n in sizes for d in range(n)
               if (g := regular_cograph(n, d)) is not None]
    graphs += [clique_product_family(s, t, r) for s in (1, 2, 3) for t in (3, 4)
               for r in (1, 2, 3)]
    graphs += [pump(clique_product_family(3, 3, 2), (2, 0), 1)]
    assert max(g.n for g in graphs) == 16
    for g in graphs:
        assert to_adjacency(g).rows == _reference_adjacency_rows(g)
