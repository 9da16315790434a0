"""Registry DP: building, Pareto filtering, queries, series, periodicity."""

from fractions import Fraction

import pytest

from cogex.cotree import NEG_INF, clique, edgeless, make_product, make_sum
from cogex.enumerator import (
    ExtremalSeries,
    analyze_periodicity,
    build_registries,
    extremal_function,
    extremal_series_for_profile,
    pareto_filter,
    query,
)
from cogex.oracle import extremal_bruteforce
from cogex.profile import forbidden_biclique_profile, validate
from cogex.cotree import INF

# brute-force extremal values, frozen from the oracle (n = 1..9)
ORACLE_EX = {
    (1, 2): [0, 1, 1, 2, 2, 3, 3, 4, 4],
    (1, 3): [0, 1, 3, 4, 4, 6, 7, 8, 9],
    (2, 2): [0, 1, 3, 4, 6, 7, 9, 10, 12],
    (2, 3): [0, 1, 3, 6, 7, 9, 12, 13, 15],
    (3, 3): [0, 1, 3, 6, 10, 12, 15, 19, 21],
}


def test_base_registry():
    regs = build_registries(1, 2)
    rec = next(iter(regs[0].records.values()))
    assert rec.key == (1, 0, NEG_INF)
    assert rec.edges == 0
    assert rec.witnesses[0].n == 1


def test_level_two_keeps_both_records():
    regs = build_registries(2, 2)
    records = regs[1].records
    assert set(records) == {(2, 0, 0), (2, 1, 0)}
    assert records[(2, 1, 0)].edges == 1
    assert records[(2, 1, 0)].witnesses == (clique(2),)
    assert records[(2, 0, 0)].edges == 0
    assert records[(2, 0, 0)].witnesses == (edgeless(2),)


def test_pareto_filter_examples():
    assert pareto_filter({((3, 1, 0), 2), ((3, 2, 1), 2)}) == {((3, 1, 0), 2)}
    both = {((3, 1, 0), 2), ((3, 2, 1), 3)}
    assert pareto_filter(both) == both
    assert pareto_filter([((3, 1, 0), 2), ((3, 1, 0), 2)]) == {((3, 1, 0), 2)}


def test_query_examples():
    f22 = forbidden_biclique_profile(2, 2)
    regs = build_registries(5, 3, prune=f22)
    rec = query(regs[4], f22)
    assert rec.edges == 6
    assert make_product([clique(1), make_sum([clique(2), clique(2)])]) in rec.witnesses

    r1 = build_registries(1, 2)[0]
    assert query(r1, validate((INF, INF), 0)).edges == 0

    # forbidding every edge leaves only the edgeless class
    regs = build_registries(4, 2)
    rec = query(regs[3], validate((4, 0, 0, 0, 0), NEG_INF))
    assert rec.edges == 0
    assert rec.witnesses == (edgeless(4),)


@pytest.mark.parametrize("st", sorted(ORACLE_EX))
def test_dp_matches_oracle_table(st):
    s, t = st
    series = extremal_function(s, t, range(1, 10))
    assert [series.values[n] for n in range(1, 10)] == ORACLE_EX[st]


def test_dp_matches_oracle_extended_pairs():
    """Wider (s, t) sweep guarding the truncation-window logic."""
    from cogex.cotree import to_adjacency
    from cogex.oracle import biclique_sequence_bruteforce, enumerate_cotrees
    from cogex.profile import fulfills

    seqs = []
    for n in range(1, 9):
        for g in enumerate_cotrees(n).items:
            seqs.append((n, g.edges, biclique_sequence_bruteforce(to_adjacency(g), n)))
    for s, t in ((1, 4), (2, 4), (2, 5), (3, 4), (4, 4), (4, 5)):
        p = forbidden_biclique_profile(s, t)
        brute: dict[int, int] = {}
        for n, e, seq in seqs:
            if fulfills(seq, p):
                brute[n] = max(brute.get(n, -1), e)
        series = extremal_function(s, t, range(1, 9))
        assert series.values == brute, (s, t)


def test_profile_route_equals_st_route():
    direct = extremal_function(3, 3, range(1, 11))
    via_profile = extremal_series_for_profile(
        forbidden_biclique_profile(3, 3), range(1, 11))
    assert direct.values == via_profile.values


def test_small_n_is_complete_graph():
    series = extremal_function(3, 3, range(1, 5))
    for n in range(1, 5):
        assert series.values[n] == n * (n - 1) // 2


def test_monotonicity():
    for s, t in ((2, 2), (2, 3), (3, 3), (3, 4)):
        series = extremal_function(s, t, range(1, 21))
        ns = series.ns()
        assert all(series.values[b] >= series.values[a]
                   for a, b in zip(ns, ns[1:]))


def test_filtered_witness_shape_at_eight():
    # the edge joined to two triangles survives Pareto filtering at n = 8
    series = extremal_function(3, 3, range(1, 9))
    target = make_product([clique(2), make_sum([clique(3), clique(3)])])
    assert series.values[8] == 19
    assert target in series.witnesses[8]


def test_witnesses_have_claimed_size_and_edges():
    series = extremal_function(3, 3, range(2, 10))
    for n, wits in series.witnesses.items():
        assert wits
        for w in wits:
            assert w.n == n
            assert w.edges == series.values[n]


def test_exhaustive_witnesses_match_oracle():
    for s, t in ((2, 2), (3, 3)):
        p = forbidden_biclique_profile(s, t)
        series = extremal_function(s, t, range(1, 7), exhaustive=True)
        for n in range(1, 7):
            _, brute = extremal_bruteforce(n, p)
            assert set(series.witnesses[n]) == set(brute), (s, t, n)


def test_exhaustive_and_filtered_values_agree():
    for s, t in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
        a = extremal_function(s, t, range(1, 9))
        b = extremal_function(s, t, range(1, 9), exhaustive=True)
        assert a.values == b.values


def test_strict_bound_small():
    for s, t in ((2, 2), (2, 3), (3, 3), (3, 4)):
        series = extremal_function(s, t, range(1, 21))
        for n, ex in series.values.items():
            assert Fraction(ex) < series.alpha * n


def test_periodicity_22():
    series = extremal_function(2, 2, range(4, 31))
    rep = analyze_periodicity(series)
    assert rep.detected_period == 2
    assert rep.constants == {0: Fraction(-2), 1: Fraction(-3, 2)}
    assert rep.all_negative
    assert rep.strict_bound
    assert rep.slope_estimate == Fraction(3, 2)


def test_periodicity_33():
    series = extremal_function(3, 3, range(5, 31))
    rep = analyze_periodicity(series)
    assert rep.detected_period == 3
    assert rep.constants == {0: Fraction(-6), 1: Fraction(-6), 2: Fraction(-5)}
    assert rep.all_negative


def test_periodicity_rejects_spurious_small_period():
    # over 1..40 the last two residuals of the (3,3) series coincide; a
    # two-observation stability window would misreport R = 1
    series = extremal_function(3, 3, range(1, 41))
    rep = analyze_periodicity(series)
    assert rep.detected_period == 3
    assert rep.constants == {0: Fraction(-6), 1: Fraction(-6), 2: Fraction(-5)}


def test_periodicity_constant_series():
    series = ExtremalSeries(constraint="const", alpha=Fraction(0),
                            values={n: 5 for n in range(1, 13)})
    rep = analyze_periodicity(series, alpha=Fraction(0))
    assert rep.detected_period == 1
    assert rep.constants == {0: Fraction(5)}
    assert not rep.all_negative  # zero/positive constant flagged


def test_periodicity_inconclusive():
    # strictly convex growth never stabilizes
    series = ExtremalSeries(constraint="squares", alpha=Fraction(0),
                            values={n: n * n for n in range(1, 16)})
    rep = analyze_periodicity(series, alpha=Fraction(0), periods=[1, 2, 3])
    assert rep.status == "inconclusive"
    assert rep.detected_period is None
