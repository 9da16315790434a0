"""Profile algebra: validation, order, combination, restriction, fulfillment."""

import random

import pytest

from cogex.cotree import (
    biclique_sequence,
    clique,
    edgeless,
    make_product,
    product_entries,
    sum_entries,
)
from cogex.profile import INF, NEG_INF
from cogex.profile import (
    BicliqueProfile,
    ProfileError,
    binding_cap,
    dominates,
    forbidden_biclique_profile,
    format_profile,
    fulfills,
    parse_profile,
    restrict,
    start_index,
)
from cogex.oracle import enumerate_cotrees, random_cotree


def test_validate_rejects_not_decreasing():
    with pytest.raises(ProfileError) as exc:
        BicliqueProfile((3, 1, 2), NEG_INF)
    assert exc.value.reason == "not-decreasing"
    assert exc.value.indices == (1, 2)


def test_validate_rejects_not_subdiagonal():
    # a degree bound of 1 forces common neighborhoods below 1
    with pytest.raises(ProfileError) as exc:
        BicliqueProfile((INF, 1, 1, 1), 1)
    assert exc.value.reason == "not-subdiagonal"
    assert exc.value.indices == (1, 2)


def test_validate_accepts_forbidden_profiles():
    for s in range(1, 5):
        for t in range(s, 7):
            p = forbidden_biclique_profile(max(s, 1), t)
            assert isinstance(p, BicliqueProfile)


def test_validate_repeated_band_after_value_is_rejected():
    # a value v at index j forbids the same value persisting at index v+1
    with pytest.raises(ProfileError) as exc:
        BicliqueProfile((INF, INF, 2, 2), 2)
    assert exc.value.indices == (2, 3)


def test_forbidden_profiles():
    assert format_profile(forbidden_biclique_profile(3, 3)) == "inf,inf,inf;2"
    assert format_profile(forbidden_biclique_profile(2, 3)) == "inf,inf,2;1"
    assert format_profile(forbidden_biclique_profile(2, 2)) == "inf,inf;1"
    with pytest.raises(ValueError):
        forbidden_biclique_profile(3, 2)
    with pytest.raises(ValueError):
        forbidden_biclique_profile(0, 2)


def test_text_form_round_trip():
    for text in ("inf,inf,inf;2", "inf,inf,2;1", "5;-inf", "inf,4;0", "inf;0"):
        assert format_profile(parse_profile(text)) == text
        assert parse_profile(format_profile(parse_profile(text))) == parse_profile(text)


def test_start_index():
    assert start_index(forbidden_biclique_profile(3, 3)) == 3
    assert start_index(BicliqueProfile((5,), NEG_INF)) == 0
    assert start_index(BicliqueProfile((INF, 4), 0)) == 1
    with pytest.raises(ValueError):
        start_index(BicliqueProfile((), INF))


def test_dominates():
    p = BicliqueProfile((INF, 3), 0)
    q = BicliqueProfile((INF, 2), 0)
    assert dominates(p, q)
    assert not dominates(q, p)
    assert not dominates(p, p)
    a = BicliqueProfile((INF, 3, 1), 0)
    b = BicliqueProfile((INF, 2, 2), 0)
    assert not dominates(a, b)
    assert not dominates(b, a)


def test_dominates_strict_partial_order():
    rng = random.Random(17)
    profiles = [forbidden_biclique_profile(s, t)
                for s in range(1, 4) for t in range(s, 6)]
    for _ in range(200):
        x, y, z = (profiles[rng.randrange(len(profiles))] for _ in range(3))
        assert not dominates(x, x)
        if dominates(x, y) and dominates(y, z):
            assert dominates(x, z)
        if dominates(x, y):
            assert not dominates(y, x)


def test_combine_examples(k1, e2, k3):
    s_e2 = biclique_sequence(e2, 4)
    assert product_entries(s_e2, s_e2, 4) == (4, 2, 2, 0, 0)
    s_k3 = biclique_sequence(k3, 3)
    assert sum_entries(s_k3, s_k3, 3) == (6, 2, 1, 0)
    s_k1 = biclique_sequence(k1, 2)
    assert product_entries(s_k1, s_k1, 2) == (2, 1, 0)


def test_combine_matches_oracle_exhaustively():
    from cogex.cotree import make_sum
    from cogex.oracle import biclique_sequence_bruteforce
    from cogex.cotree import to_adjacency

    pool = [g for n in range(1, 5) for g in enumerate_cotrees(n).items]
    for a in pool:
        for b in pool:
            if a.n + b.n > 7:
                continue
            cap = a.n + b.n
            sa = biclique_sequence(a, cap)
            sb = biclique_sequence(b, cap)
            s = make_sum([a, b])
            p = make_product([a, b])
            assert sum_entries(sa, sb, cap) == \
                biclique_sequence_bruteforce(to_adjacency(s), cap)
            assert product_entries(sa, sb, cap) == \
                biclique_sequence_bruteforce(to_adjacency(p), cap)


def test_restrict_by_single_vertex(k1):
    p = forbidden_biclique_profile(3, 3)
    r = restrict(p, biclique_sequence(k1, 1))
    assert r == forbidden_biclique_profile(2, 3)


def test_restrict_null_context():
    p = forbidden_biclique_profile(3, 3)
    null_seq = (0,)
    assert restrict(p, null_seq) == p


def test_restrict_negative_values_clamp(k3):
    # joining K_3 to anything nonempty creates a 2x2 biclique
    r = restrict(forbidden_biclique_profile(2, 2), biclique_sequence(k3, 3))
    assert r[0] == 0
    assert r[1] == NEG_INF


def test_restrict_output_validates_on_random_inputs():
    rng = random.Random(23)
    profiles = [forbidden_biclique_profile(s, t)
                for s in range(1, 4) for t in range(s, 6)]
    for _ in range(150):
        p = profiles[rng.randrange(len(profiles))]
        g = random_cotree(rng, rng.randint(1, 7))
        r = restrict(p, biclique_sequence(g, g.n))
        assert isinstance(r, BicliqueProfile)


def test_fulfills(c4, k1):
    assert not fulfills(biclique_sequence(c4, 4), BicliqueProfile((INF, INF, 1), 1))
    assert fulfills(biclique_sequence(k1, 1), forbidden_biclique_profile(3, 3))
    e5 = edgeless(5)
    assert fulfills(biclique_sequence(e5, 5), BicliqueProfile((5, 0, 0, 0, 0, 0), NEG_INF))


def test_fulfills_requires_enough_entries(k3):
    p = forbidden_biclique_profile(3, 4)  # prefix length 4
    for cap in (2, 3):
        with pytest.raises(ValueError, match=f"computed to cap {cap} but comparison needs entry 4"):
            fulfills(biclique_sequence(clique(6), cap), p)


def test_fulfills_accepts_a_truncated_sequence_that_reaches_the_window():
    # entries 0..4 decide K_{3,4}: K_7 holds it, K_6 does not
    p = forbidden_biclique_profile(3, 4)  # prefix length 4
    assert biclique_sequence(clique(7), 4) == (7, 6, 5, 4, 3)
    assert not fulfills(biclique_sequence(clique(7), 4), p)
    assert fulfills(biclique_sequence(clique(6), 4), p)
    # a complete sequence shorter than the window needs no more entries
    assert fulfills(biclique_sequence(clique(3), 3), p)


def test_restrict_needs_a_complete_factor():
    p = forbidden_biclique_profile(3, 3)
    with pytest.raises(ValueError, match="restriction needs the complete sequence"):
        restrict(p, biclique_sequence(clique(4), 3))
    assert restrict(p, biclique_sequence(clique(4), 4)) == \
        restrict(p, biclique_sequence(clique(4), 6))


def test_binding_cap():
    assert binding_cap(forbidden_biclique_profile(2, 2)) == 2
    assert binding_cap(forbidden_biclique_profile(2, 5)) == 2
    assert binding_cap(forbidden_biclique_profile(3, 3)) == 3
    assert binding_cap(forbidden_biclique_profile(1, 4)) == 1
    # a loose profile whose low index does not cover the later drop
    assert binding_cap(BicliqueProfile((INF, 5, 0), 0)) == 2
