"""Oracle soundness and completeness; independent census cross-checks."""

import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cogex.cotree import (
    AdjacencyGraph,
    CapacityError,
    biclique_sequence,
    clique,
    edgeless,
    is_induced_p4_free,
    make_leaf,
    make_sum,
    product_entries,
    sum_entries,
    to_adjacency,
)
from cogex.oracle import (
    biclique_sequence_bruteforce,
    check_balanced_biclique,
    check_structure_theorems,
    connected_cotrees,
    contains_biclique,
    enumerate_cotrees,
    extremal_bruteforce,
    random_cotree,
    _sequence_table,
)
from cogex.profile import NEG_INF, BicliqueProfile, forbidden_biclique_profile, fulfills
from cogex.verification import SMALL_PAIRS

from census import count_p4_free_classes_bruteforce, labeled_p4_free_count, orbit_count_identity
from test_traversal import old_complement

# unlabeled cograph counts, cross-checked against the labeled census below,
# and the connected ones among them
CATALOG_SIZES = [1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624]
CONNECTED_SIZES = [1, 1, 2, 5, 12, 33, 90, 261, 766, 2312]


def test_catalog_sizes():
    assert [len(enumerate_cotrees(n)) for n in range(1, 11)] == CATALOG_SIZES
    assert [len(connected_cotrees(n)) for n in range(1, 11)] == CONNECTED_SIZES


def _complement_built_catalogs(n_max):
    """The catalogs as they were built before the direct build: each
    connected tree is the complement of a sum-rooted one, through
    make_sum and make_product."""
    connected = {1: (make_leaf(),)}
    catalogs = {1: (make_leaf(),)}

    def multisets(n_left, size_cap, idx_cap):
        if n_left == 0:
            yield ()
            return
        for size in range(min(size_cap, n_left), 0, -1):
            options = connected[size]
            start = idx_cap if (idx_cap is not None and size == size_cap) else len(options) - 1
            for i in range(start, -1, -1):
                for rest in multisets(n_left - size, size, i):
                    yield (options[i],) + rest

    for n in range(2, n_max + 1):
        sum_rooted = tuple(sorted(make_sum(parts) for parts in multisets(n, n - 1, None)
                                  if len(parts) >= 2))
        connected[n] = tuple(sorted(old_complement(g) for g in sum_rooted))
        catalogs[n] = tuple(sorted(connected[n] + sum_rooted))
    return catalogs, connected


def test_direct_catalog_equals_the_complement_built_one():
    catalogs, connected = _complement_built_catalogs(10)
    for n in range(1, 11):
        assert enumerate_cotrees(n).items == catalogs[n]
        assert connected_cotrees(n) == connected[n]


def test_one_catalog_per_n_whatever_the_limit():
    for n in range(1, 8):
        catalog = enumerate_cotrees(n)
        assert enumerate_cotrees(n, limit=n) is catalog
        assert enumerate_cotrees(n, limit=12) is catalog


def test_catalog_adjacency_expands_each_item_in_order():
    for n in range(1, 10):
        catalog = enumerate_cotrees(n)
        assert len(catalog.adjacency) == len(catalog.items)
        assert catalog.adjacency is catalog.adjacency
        for g, a in zip(catalog.items, catalog.adjacency):
            assert a == to_adjacency(g)


def test_catalog_no_duplicates():
    for n in range(1, 9):
        items = enumerate_cotrees(n).items
        assert len({g._canon for g in items}) == len(items)
        assert all(g.n == n for g in items)


def test_catalog_limit():
    with pytest.raises(CapacityError):
        enumerate_cotrees(11)
    assert len(enumerate_cotrees(11, limit=11)) == 14136


def test_catalog_soundness():
    for n in range(1, 8):
        for g in enumerate_cotrees(n).items:
            assert is_induced_p4_free(to_adjacency(g))


def test_catalog_completeness_by_isomorphism_rejection():
    """Independent route: filter all edge masks, reject isomorphs."""
    for n in range(1, 7):
        assert count_p4_free_classes_bruteforce(n) == len(enumerate_cotrees(n))


def test_catalog_completeness_by_orbit_counting():
    """At n = 7 the labeled count must equal the sum of orbit sizes."""
    lhs, rhs = orbit_count_identity(7)
    assert lhs == rhs == 78416


def test_labeled_counts_small():
    assert labeled_p4_free_count(1) == 1
    assert labeled_p4_free_count(2) == 2
    assert labeled_p4_free_count(3) == 8
    # all 4-vertex graphs except the 24 labelings of P_4 itself
    assert labeled_p4_free_count(4) == 64 - 12


def test_contains_biclique(c4, k3):
    assert contains_biclique(to_adjacency(c4), 2, 2)
    assert not contains_biclique(to_adjacency(k3), 1, 3)
    assert contains_biclique(to_adjacency(clique(4)), 2, 2)


def test_bruteforce_sequence_examples(c4, k1):
    assert biclique_sequence_bruteforce(to_adjacency(c4), 4) == (4, 2, 2, 0, 0)
    # entries past n are -inf and not stored
    assert biclique_sequence_bruteforce(to_adjacency(k1), 2) == (1, 0)
    assert biclique_sequence_bruteforce(to_adjacency(edgeless(3)), 3) == (3, 0, 0, 0)


def _is_sequence_at(seq, n, cap):
    """An int tuple of the entries 0..min(n, cap), entry 0 being n."""
    return (type(seq) is tuple and len(seq) == min(n, cap) + 1 and seq[0] == n
            and all(type(v) is int for v in seq))


def test_sequences_are_int_tuples_up_to_n():
    # the cotree fold and brute force store entries 0..min(n, cap) only, at
    # caps below, at and past n, on the catalog and on seeded random cotrees
    graphs = [g for n in range(1, 10) for g in enumerate_cotrees(n).items]
    rng = random.Random(28)
    graphs += [random_cotree(rng, rng.randint(1, 14)) for _ in range(60)]
    for g in graphs:
        a = to_adjacency(g)
        for cap in range(g.n + 3):
            assert _is_sequence_at(biclique_sequence(g, cap), g.n, cap), (g, cap)
            assert _is_sequence_at(biclique_sequence_bruteforce(a, cap), g.n, cap), (g, cap)


def test_combined_sequences_are_int_tuples_up_to_n():
    pool = [g for n in range(1, 5) for g in enumerate_cotrees(n).items]
    for a in pool:
        for b in pool:
            n = a.n + b.n
            for cap in range(n + 2):
                sa, sb = biclique_sequence(a, cap), biclique_sequence(b, cap)
                assert _is_sequence_at(sum_entries(sa, sb, cap), n, cap), (a, b, cap)
                assert _is_sequence_at(product_entries(sa, sb, cap), n, cap), (a, b, cap)


def test_sequence_recursion_agrees_with_bruteforce():
    for n in range(1, 8):
        for g in enumerate_cotrees(n).items:
            assert biclique_sequence(g, n) == \
                biclique_sequence_bruteforce(to_adjacency(g), n)


def test_fulfillment_agreement():
    for n in range(1, 8):
        for g in enumerate_cotrees(n).items:
            a = to_adjacency(g)
            seq = biclique_sequence(g, g.n)
            for s, t in ((2, 2), (2, 3), (3, 3)):
                assert fulfills(seq, forbidden_biclique_profile(s, t)) == \
                    (not contains_biclique(a, s, t))


def test_extremal_bruteforce_examples():
    assert extremal_bruteforce(5, forbidden_biclique_profile(2, 2))[0] == 6
    assert extremal_bruteforce(6, forbidden_biclique_profile(3, 3))[0] == 12
    edges, wits = extremal_bruteforce(3, BicliqueProfile((3, 0, 0, 0), NEG_INF))
    assert edges == 0
    assert wits == (edgeless(3),)


def test_balanced_biclique_small():
    for n in range(2, 10):
        assert check_balanced_biclique(n).passed, n


def test_balanced_biclique_degenerate_single_vertex():
    # K_1 has no 1x1 biclique on either side; the claim starts at n = 2
    res = check_balanced_biclique(1)
    assert not res.passed
    assert res.counterexamples == ["*"]


def test_structure_theorems_small():
    # on the catalog's witnesses, every extremal cograph of each n
    results = check_structure_theorems(range(2, 8), lambda s, t: {
        n: extremal_bruteforce(n, forbidden_biclique_profile(s, t))[1] for n in range(2, 8)})
    assert all(r.passed for r in results), [r for r in results if not r.passed]


# -- the lattice search and the per-n sequence table against plain loops -----

def _reference_sequence(a, cap):
    """Biclique sequence by one combinations loop per part size."""
    entries = [a.n]
    full = (1 << a.n) - 1
    for s in range(1, cap + 1):
        if s > a.n:
            entries.append(NEG_INF)
            continue
        best = 0
        for subset in combinations(range(a.n), s):
            common = full
            picked = 0
            for v in subset:
                common &= a.rows[v]
                picked |= 1 << v
            best = max(best, (common & ~picked).bit_count())
        entries.append(best)
    return tuple(entries)


def _lattice_sequence(a, cap):
    """Biclique sequence by one pass over the subset lattice, pruned to sets
    of at most cap vertices: a set's common neighborhood is that of the set
    without its highest vertex, ANDed with that vertex's row."""
    top = min(cap, a.n)
    best = [0] * (top + 1)
    # commons[k]: the nonempty common neighborhoods of the k-sets among the
    # vertices seen so far; the empty set's is every vertex
    commons = [[(1 << a.n) - 1]] + [[] for _ in range(top)]
    for v, row in enumerate(a.rows):
        for k in range(min(top, v + 1), 0, -1):
            grown = [m for c in commons[k - 1] if (m := c & row)]
            if grown:
                commons[k] += grown
                best[k] = max(best[k], max(map(int.bit_count, grown)))
    return (a.n, *best[1:]) + (NEG_INF,) * (cap - top)


def _assert_unpadded(seq, ref):
    """``seq`` is the padded reference ``ref`` (entries 0..cap, -inf past n)
    with its -inf tail stripped: the min(n, cap) + 1 entries 0..min(n, cap),
    equal to the reference's, and every reference entry past them -inf."""
    m = min(ref[0], len(ref) - 1) + 1
    assert len(seq) == m and seq == ref[:m], (seq, ref)
    assert all(v == NEG_INF for v in ref[m:]), ref


def _reference_extremal(n, p):
    """Max edges and witnesses by a scan of every catalog graph, no table."""
    best = -1
    witnesses = []
    for g in enumerate_cotrees(n).items:
        if not fulfills(biclique_sequence_bruteforce(to_adjacency(g), g.n), p):
            continue
        if g.edges > best:
            best, witnesses = g.edges, [g]
        elif g.edges == best:
            witnesses.append(g)
    return (best, tuple(sorted(witnesses))) if best >= 0 else (-1, ())


def test_bruteforce_sequence_matches_reference_on_catalog():
    # the reference's entry s does not depend on cap, so one run at the
    # largest cap gives it at every smaller cap as a prefix
    for n in range(1, 10):
        for g in enumerate_cotrees(n).items:
            a = to_adjacency(g)
            want = _reference_sequence(a, n + 1)
            for cap in range(n + 2):
                _assert_unpadded(biclique_sequence_bruteforce(a, cap), want[:cap + 1])


@st.composite
def non_cographs(draw):
    """A graph on 4..10 vertices with an induced P4."""
    n = draw(st.integers(4, 10))
    edges = draw(st.sets(st.sampled_from(list(combinations(range(n), 2)))))
    a = AdjacencyGraph.from_edges(n, edges)
    assume(not is_induced_p4_free(a))
    return a


@settings(max_examples=200, deadline=None)
@given(non_cographs(), st.integers(0, 11))
def test_bruteforce_sequence_matches_reference_off_cographs(a, cap):
    _assert_unpadded(biclique_sequence_bruteforce(a, cap), _reference_sequence(a, cap))


def test_bruteforce_sequence_matches_lattice_at_n10():
    for g in enumerate_cotrees(10).items:
        a = to_adjacency(g)
        _assert_unpadded(biclique_sequence_bruteforce(a, 10), _lattice_sequence(a, 10))


@settings(max_examples=40, deadline=None)
@given(st.integers(11, 16), st.sampled_from([0.1, 0.3, 0.7, 0.95]),
       st.integers(0, 2**32 - 1), st.integers(0, 18))
def test_bruteforce_sequence_matches_lattice_up_to_16(n, density, seed, cap):
    rng = random.Random(seed)
    a = AdjacencyGraph.from_edges(n, [e for e in combinations(range(n), 2)
                                      if rng.random() < density])
    _assert_unpadded(biclique_sequence_bruteforce(a, cap), _lattice_sequence(a, cap))


def test_bruteforce_sequence_capacity():
    with pytest.raises(CapacityError, match="17 vertices exceeds limit 16"):
        biclique_sequence_bruteforce(AdjacencyGraph(17, (0,) * 17), 2)


def test_bruteforce_sequence_empty_graph_and_bad_cap():
    assert biclique_sequence_bruteforce(AdjacencyGraph(0, ()), 2) == (0,)
    with pytest.raises(ValueError):
        biclique_sequence_bruteforce(AdjacencyGraph(0, ()), -1)


def test_sequence_table_not_built_at_import():
    # neither the per-n sequence tables, the k-set masks nor the catalogs
    code = ("import cogex.cli, cogex.oracle as o; "
            "print(o._sequence_table.cache_info().currsize, "
            "o._k_set_masks.cache_info().currsize, "
            "o._catalog.cache_info().currsize, "
            "o._rooted_cotrees.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "0", "0", "0"]


def test_sequence_table_groups_the_catalog():
    tables = [_sequence_table(n) for n in range(1, 10)]
    assert sum(len(t) for t in tables) == 228
    for n, table in enumerate(tables, start=1):
        assert len({seq for seq, _ in table}) == len(table)
        grouped = [g for _, graphs in table for g in graphs]
        assert sorted(grouped) == sorted(enumerate_cotrees(n).items)
        for seq, graphs in table:
            assert all(biclique_sequence_bruteforce(to_adjacency(g), n) == seq
                       for g in graphs)


def test_cached_table_keeps_the_limit():
    p = forbidden_biclique_profile(3, 3)
    extremal_bruteforce(9, p)
    assert _sequence_table.cache_info().currsize >= 1
    with pytest.raises(CapacityError):
        extremal_bruteforce(9, p, limit=8)
    with pytest.raises(ValueError):
        extremal_bruteforce(0, p)


# SMALL_PAIRS holds the star (1, t) and K_{2,t} profiles that verify scans
@pytest.mark.parametrize("s,t", list(SMALL_PAIRS) + [(3, 4)])
def test_extremal_bruteforce_matches_uncached_scan(s, t):
    p = forbidden_biclique_profile(s, t)
    for n in range(1, 10):
        assert extremal_bruteforce(n, p) == _reference_extremal(n, p), n
