"""Oracle soundness and completeness; independent census cross-checks."""

import pytest

from cogex.cotree import (
    CapacityError,
    biclique_sequence,
    clique,
    edgeless,
    is_induced_p4_free,
    to_adjacency,
)
from cogex.oracle import (
    biclique_sequence_bruteforce,
    check_balanced_biclique,
    check_structure_theorems,
    contains_biclique,
    count_p4_free_classes_bruteforce,
    enumerate_cotrees,
    extremal_bruteforce,
    labeled_p4_free_count,
    orbit_count_identity,
)
from cogex.profile import forbidden_biclique_profile, fulfills, validate
from cogex.cotree import NEG_INF

# unlabeled cograph counts, cross-checked against the labeled census below
CATALOG_SIZES = [1, 2, 4, 10, 24, 66, 180, 522, 1532]


def test_catalog_sizes():
    assert [len(enumerate_cotrees(n)) for n in range(1, 10)] == CATALOG_SIZES


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
    assert biclique_sequence_bruteforce(to_adjacency(c4), 4).entries == (4, 2, 2, 0, 0)
    assert biclique_sequence_bruteforce(to_adjacency(k1), 2).entries == (1, 0, NEG_INF)
    assert biclique_sequence_bruteforce(to_adjacency(edgeless(3)), 3).entries == (3, 0, 0, 0)


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
    edges, wits = extremal_bruteforce(3, validate((3, 0, 0, 0), NEG_INF))
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
    results = check_structure_theorems(range(2, 8))
    assert all(r.passed for r in results), [r for r in results if not r.passed]
