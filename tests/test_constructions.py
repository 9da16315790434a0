"""Families and transformations against the oracle and closed formulas."""

import random
from fractions import Fraction

import pytest

from cogex.constructions import (
    clique_product_family,
    davenport_subsequence,
    k2t_extremal,
    k33_extremal,
    pump,
    pump_subset,
    regular_cograph,
    regular_infeasibility_reason,
    star_extremal,
)
from cogex.cotree import (
    CapacityError,
    biclique_sequence,
    clique,
    is_induced_p4_free,
    make_leaf,
    make_product,
    make_sum,
    summands,
    to_adjacency,
)
from cogex.enumerator import extremal_function
from cogex.oracle import enumerate_cotrees, extremal_bruteforce
from cogex.profile import alpha_for, forbidden_biclique_profile, fulfills
from cogex.serialize import dumps_cotree


def _sum_child_path(g):
    for i, c in enumerate(g.children):
        if c.kind == "sum":
            return i
    raise AssertionError("no sum child")


def test_pump_example(k2_join_two_triangles):
    g = k2_join_two_triangles
    i = _sum_child_path(g)
    pumped = pump(g, (i, 0), 1)
    assert pumped.n == 11
    assert pumped.edges == 28


def test_pump_zero_is_identity(k2_join_two_triangles):
    g = k2_join_two_triangles
    i = _sum_child_path(g)
    assert pump(g, (i, 0), 0) == g


def test_pump_rejects_non_summand(k2_join_two_triangles):
    g = k2_join_two_triangles
    leaf_idx = next(i for i, c in enumerate(g.children) if c.kind == "leaf")
    with pytest.raises(ValueError):
        pump(g, (leaf_idx,), 1)  # product child, not a summand
    with pytest.raises(ValueError):
        pump(g, (), 1)


def test_pump_growth_formula():
    rng = random.Random(41)
    from cogex.cotree import summands
    from cogex.oracle import random_cotree

    done = 0
    while done < 60:
        g = random_cotree(rng, rng.randint(3, 9))
        paths = list(summands(g))
        if not paths:
            continue
        done += 1
        path, child, _, w = paths[rng.randrange(len(paths))]
        k = rng.randint(1, 3)
        pumped = pump(g, path, k)
        assert pumped.n == g.n + k * child.n
        assert pumped.edges == g.edges + k * (child.edges + child.n * w)


def test_pump_subset_validator(k2_join_two_triangles):
    g = k2_join_two_triangles
    # leaves of one triangle summand share their outside neighborhood
    offsets = []
    pos = 0
    for c in g.children:
        offsets.append((pos, c))
        pos += c.n
    start = next(o for o, c in offsets if c.kind == "sum")
    pumped = pump_subset(g, [start, start + 1, start + 2], 1)
    assert pumped.n == 11 and pumped.edges == 28
    # the two joined vertices are not a summand
    with pytest.raises(ValueError):
        pump_subset(g, [0], 1)
    # nor is a joined vertex with a triangle vertex, whose outside
    # neighborhoods differ
    with pytest.raises(ValueError, match="not a summand"):
        pump_subset(g, [0, start], 1)


def test_pump_subset_rejects_two_summands():
    # K_2 joined to three triangles (leaves 0-1, then 2-4, 5-7, 8-10): two
    # triangles share their outside neighborhood but are two summands
    g = make_product([clique(2), make_sum([clique(3)] * 3)])
    assert pump_subset(g, range(2, 5), 1).n == 14
    with pytest.raises(ValueError, match="not a summand"):
        pump_subset(g, range(2, 8), 1)


def test_pump_subset_past_sixteen_vertices():
    # the K_{3,3} family on 40 vertices: the core K_2 joined to 12 triangles
    # and a K_2 remainder; each summand pumps as pump does on its path
    g = k33_extremal(40)
    found = 0
    for path, c, first, _ in summands(g):
        found += 1
        assert pump_subset(g, range(first, first + c.n), 2) == pump(g, path, 2)
    assert found == 13


def test_regular_examples():
    g = regular_cograph(4, 2)
    assert set(to_adjacency(g).degree_sequence()) == {2}
    assert regular_cograph(5, 2) is None
    assert "2d = n-1" in regular_infeasibility_reason(5, 2)
    assert regular_cograph(5, 3) is None
    assert "odd" in regular_infeasibility_reason(5, 3)
    g = regular_cograph(7, 4)
    assert set(to_adjacency(g).degree_sequence()) == {4}


def test_regular_single_vertex():
    assert regular_cograph(1, 0).n == 1


def test_regular_rejects_bad_arguments():
    with pytest.raises(ValueError):
        regular_cograph(4, 4)
    with pytest.raises(ValueError):
        regular_cograph(0, 0)


def test_regular_sweep_to_40():
    for n in range(1, 41):
        for d in range(n):
            g = regular_cograph(n, d)
            if g is None:
                assert regular_infeasibility_reason(n, d) is not None, (n, d)
                continue
            a = to_adjacency(g, limit=64)
            assert a.n == n and set(a.degree_sequence()) == {d}, (n, d)


def test_regular_feasibility_matches_exhaustive():
    for n in range(1, 10):
        found = set()
        for g in enumerate_cotrees(n).items:
            degs = set(to_adjacency(g).degree_sequence())
            if len(degs) == 1:
                found.add(next(iter(degs)))
        constructed = {d for d in range(n) if regular_cograph(n, d) is not None}
        assert constructed == found, n


def test_clique_product_family_examples():
    g = clique_product_family(3, 3, 2)
    assert (g.n, g.edges) == (8, 19)
    g = clique_product_family(2, 2, 3)
    assert (g.n, g.edges) == (7, 9)
    assert clique_product_family(3, 3, 0) == clique(2)
    with pytest.raises(ValueError):
        clique_product_family(3, 2, 1)
    with pytest.raises(ValueError):
        clique_product_family(1, 2, 0)


def test_clique_product_formula_and_freeness():
    for s in range(1, 5):
        for t in range(s, 6):
            for r in range(0, 5):
                if s == 1 and r == 0:
                    continue
                g = clique_product_family(s, t, r)
                n = s - 1 + r * t
                expected = Fraction((s - 1) * (s - 2), 2) + alpha_for(s, t) * (n - s + 1)
                assert g.n == n
                assert Fraction(g.edges) == expected
                assert fulfills(biclique_sequence(g, g.n),
                                forbidden_biclique_profile(s, t))


def test_star_extremal_examples():
    g = star_extremal(3, 6)
    assert g.edges == 6
    assert set(to_adjacency(g).degree_sequence()) == {2}
    assert star_extremal(3, 5).edges == 4
    assert star_extremal(3, 2) == clique(2)  # n < t gives a clique


def test_star_extremal_honours_catalog_limit():
    # no (t-1)-regular cograph for even t and odd n, so the search tries
    # connected remainders of up to 2t - 3 vertices: 9 fit the catalog limit
    # of 12, 13 do not
    assert star_extremal(6, 21).n == 21
    with pytest.raises(CapacityError, match="n=13 exceeds limit 12"):
        star_extremal(8, 101)


def test_star_extremal_meets_oracle():
    for t in (2, 3, 4):
        for n in range(1, 10):
            want, _ = extremal_bruteforce(n, forbidden_biclique_profile(1, t))
            g = star_extremal(t, n)
            assert g.n == n and g.edges == want, (t, n)
            assert fulfills(biclique_sequence(g, g.n),
                            forbidden_biclique_profile(1, t))


def test_k2t_examples():
    assert k2t_extremal(2, 5).edges == 6
    assert k2t_extremal(3, 7).edges == 12
    assert k2t_extremal(3, 6).edges == 9
    with pytest.raises(ValueError):
        k2t_extremal(4, 6)


def test_k2t_meets_oracle():
    for t in (2, 3):
        for n in range(2, 10):
            want, _ = extremal_bruteforce(n, forbidden_biclique_profile(2, t))
            g = k2t_extremal(t, n)
            assert g.n == n and g.edges == want, (t, n)
            assert fulfills(biclique_sequence(g, g.n),
                            forbidden_biclique_profile(2, t))


def test_k33_examples():
    assert k33_extremal(8).edges == 19
    assert k33_extremal(9).edges == 21
    assert k33_extremal(2) == clique(2)
    with pytest.raises(ValueError):
        k33_extremal(1)


def test_k33_meets_oracle():
    for n in range(2, 10):
        want, _ = extremal_bruteforce(n, forbidden_biclique_profile(3, 3))
        g = k33_extremal(n)
        assert g.n == n and g.edges == want, n
        assert fulfills(biclique_sequence(g, g.n), forbidden_biclique_profile(3, 3))


@pytest.mark.parametrize("s,t,n_min,n_max,family", [
    (3, 3, 2, 40, k33_extremal),
    (2, 2, 2, 40, lambda n: k2t_extremal(2, n)),
    (2, 3, 2, 40, lambda n: k2t_extremal(3, n)),
    (1, 2, 1, 24, lambda n: star_extremal(2, n)),
    (1, 3, 1, 24, lambda n: star_extremal(3, n)),
], ids=["k33", "k22", "k23", "star2", "star3"])
def test_families_match_dp_past_oracle_scale(s, t, n_min, n_max, family):
    """DP ex equals the family's edge count where the oracle cannot reach,
    and every DP witness is recounted and re-checked against the profile."""
    p = forbidden_biclique_profile(s, t)
    series = extremal_function(s, t, range(1, n_max + 1))
    for n in range(n_min, n_max + 1):
        assert series.values[n] == family(n).edges, n
    for n, witnesses in series.witnesses.items():
        assert witnesses, n
        for w in witnesses:
            assert w.n == n and w.edges == series.values[n]
            assert to_adjacency(w, limit=n).edge_count() == w.edges
            assert fulfills(biclique_sequence(w, w.n), p)


# The builders as they were before they shared one clique-join shape.

def _old_clique_product_family(s, t, r):
    if r == 0:
        return clique(s - 1)
    pumped = make_sum([clique(t) for _ in range(r)])
    if s == 1:
        return pumped
    return make_product([clique(s - 1), pumped])


def _old_k2t_extremal(t, n):
    m = n - 1
    if t == 2:
        inner = star_extremal(2, m)
    else:
        triangles = [clique(3) for _ in range(m // 3)]
        rem = m % 3
        parts = triangles + ([clique(rem)] if rem else [])
        inner = make_sum(parts) if len(parts) > 1 else parts[0]
    return make_product([make_leaf(), inner])


def _old_k33_extremal(n):
    m = n - 2
    parts = [clique(3) for _ in range(m // 3)]
    if m % 3:
        parts.append(clique(m % 3))
    if not parts:
        return clique(2)
    inner = make_sum(parts) if len(parts) > 1 else parts[0]
    return make_product([clique(2), inner])


def _same_tree(a, b):
    return (a == b and (a.n, a.edges) == (b.n, b.edges)
            and dumps_cotree(a) == dumps_cotree(b))


def test_clique_join_families_equal_their_old_builders():
    for n in range(2, 61):
        assert _same_tree(k33_extremal(n), _old_k33_extremal(n)), n
        for t in (2, 3):
            assert _same_tree(k2t_extremal(t, n), _old_k2t_extremal(t, n)), (t, n)
    for s in range(1, 6):
        for t in range(s, 9):
            for r in range(int(s == 1), 11):
                assert _same_tree(clique_product_family(s, t, r),
                                  _old_clique_product_family(s, t, r)), (s, t, r)


def test_constructions_are_cographs():
    graphs = [star_extremal(3, 9), k2t_extremal(3, 9), k33_extremal(9),
              clique_product_family(3, 4, 2), regular_cograph(8, 4)]
    for g in graphs:
        assert is_induced_p4_free(to_adjacency(g, limit=16))


def test_davenport_examples():
    assert davenport_subsequence([1, 1, 1], 3) == [0, 1, 2]
    idx = davenport_subsequence([2, 3, 4, 5], 4)
    assert idx and sum([2, 3, 4, 5][i] for i in idx) % 4 == 0
    assert davenport_subsequence([5], 1) == [0]
    with pytest.raises(ValueError):
        davenport_subsequence([1, 2], 3)


def test_davenport_randomized():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 12)
        values = [rng.randint(-50, 50) for _ in range(rng.randint(n, n + 4))]
        idx = davenport_subsequence(values, n)
        assert idx == sorted(set(idx)) and idx
        assert max(idx) < n
        assert sum(values[i] for i in idx) % n == 0
