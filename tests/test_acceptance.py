"""Acceptance gate: each test is one criterion at its stated tolerance.

Every expected value here is either pinned from the brute-force oracle
(criteria 1, 2, 6, 7, 8, 9, 10 recompute it in-process) or an exact
rational identity (criteria 3, 4, 5).  A printed PASS line per criterion
shows up under ``pytest -v -s``.
"""

from fractions import Fraction
from functools import lru_cache

from cogex.constructions import (
    clique_product_family,
    regular_cograph,
    regular_infeasibility_reason,
)
from cogex.cotree import biclique_sequence, make_product, to_adjacency
from cogex.enumerator import analyze_periodicity, extremal_function
from cogex.oracle import (
    biclique_sequence_bruteforce,
    check_balanced_biclique,
    check_k33_shape,
    check_universal_vertex,
    enumerate_cotrees,
    extremal_bruteforce,
)
from cogex.profile import alpha_for, forbidden_biclique_profile, fulfills, restrict

SMALL_PAIRS = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
BOUND_PAIRS = ((2, 2), (2, 3), (3, 3), (3, 4))


@lru_cache(maxsize=None)
def _series(s: int, t: int, lo: int, hi: int):
    return extremal_function(s, t, range(lo, hi + 1))


def _report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {text}")


def test_criterion_01_oracle_equivalence():
    """DP extremal values equal brute force for the small pairs, n <= 9."""
    for s, t in SMALL_PAIRS:
        series = _series(s, t, 1, 9)
        p = forbidden_biclique_profile(s, t)
        for n in range(1, 10):
            brute, _ = extremal_bruteforce(n, p)
            assert series.values[n] == brute, (s, t, n)
    _report(1, "extremal_function == extremal_bruteforce for "
               f"{len(SMALL_PAIRS)} pairs, n <= 9")


def test_criterion_02_sequence_recursion():
    """Cotree recursion equals brute-force sequences, all cographs n <= 7."""
    count = 0
    for n in range(1, 8):
        for g in enumerate_cotrees(n).items:
            count += 1
            assert biclique_sequence(g, n) == \
                biclique_sequence_bruteforce(to_adjacency(g), n)
    _report(2, f"sequence recursion exact on {count} cographs, cap = n")


def test_criterion_03_strict_upper_bound():
    """ex(n) < (s - 1 + (t-1)/2) n, exact rationals, n <= 30."""
    for s, t in BOUND_PAIRS:
        series = _series(s, t, 1, 30)
        alpha = alpha_for(s, t)
        for n in range(1, 31):
            assert Fraction(series.values[n]) < alpha * n, (s, t, n)
    _report(3, f"strict bound on {BOUND_PAIRS}, n <= 30")


def test_criterion_04_periodicity():
    """(2,2) gives R=2 with constants -2, -3/2; (3,3) gives R=3 with
    constants -5, -6, -6; all negative."""
    s22 = extremal_function(2, 2, range(4, 31))
    rep = analyze_periodicity(s22)
    assert rep.detected_period == 2
    assert rep.constants == {0: Fraction(-2), 1: Fraction(-3, 2)}
    assert rep.all_negative

    s33 = extremal_function(3, 3, range(5, 31))
    rep = analyze_periodicity(s33)
    assert rep.detected_period == 3
    assert rep.constants == {0: Fraction(-6), 1: Fraction(-6), 2: Fraction(-5)}
    assert rep.all_negative
    _report(4, "R=2 with {-2, -3/2} and R=3 with {-5, -6, -6}, all negative")


def test_criterion_05_lower_bound_family():
    """K_2 x (r K_3) hits the DP optimum at n = 2 + 3r and the closed formula."""
    series = _series(3, 3, 1, 30)
    alpha = alpha_for(3, 3)
    for r in range(0, 10):
        n = 2 + 3 * r
        if n > 30:
            break
        g = clique_product_family(3, 3, r)
        assert g.n == n
        assert Fraction(g.edges) == Fraction(1) + alpha * (n - 2)
        assert g.edges == series.values[n], (r, n)
    _report(5, "clique_product_family(3,3,r) extremal at every n = 2+3r <= 30")


def test_criterion_06_classification_checks():
    """Universal vertices for (2,2)/(2,3); the edge-x-cliques shape for
    (3,3); 2-regularity of (1,3)-extremal graphs on even n >= 4."""
    for n in range(1, 10):
        for t in (2, 3):
            _, wits = extremal_bruteforce(n, forbidden_biclique_profile(2, t))
            assert check_universal_vertex(wits, n, t).passed, (n, t)
        if n >= 2:
            _, wits = extremal_bruteforce(n, forbidden_biclique_profile(3, 3))
            assert check_k33_shape(wits, n).passed, n
    p13 = forbidden_biclique_profile(1, 3)
    for n in (4, 6, 8):  # even n at least t
        _, wits = extremal_bruteforce(n, p13)
        for g in wits:
            assert set(to_adjacency(g).degree_sequence()) == {2}, (n, g)
    _report(6, "universal-vertex, edge-x-cliques, and 2-regular shapes, n <= 9")


def test_criterion_07_balanced_bicliques():
    """Every cograph or its complement contains K_{t,t} with t = n//6 + 1.

    The single-vertex graph is the known degenerate exception: neither K_1
    nor its complement contains K_{1,1}."""
    for n in range(2, 10):
        assert check_balanced_biclique(n).passed, n
    degenerate = check_balanced_biclique(1)
    assert not degenerate.passed
    assert degenerate.counterexamples == ["*"]
    _report(7, "K_{t,t} in G or its complement for 2 <= n <= 9 "
               "(n = 1 degenerate, as expected)")


def test_criterion_08_restriction_transport():
    """G1 x G2 fulfills p iff G2 fulfills restrict(p, S(G1)), exhaustively."""
    g1s = [g for n in range(1, 4) for g in enumerate_cotrees(n).items]
    g2s = [g for n in range(1, 6) for g in enumerate_cotrees(n).items]
    count = 0
    for s, t in ((2, 2), (2, 3), (3, 3)):
        p = forbidden_biclique_profile(s, t)
        for g1 in g1s:
            restricted = restrict(p, biclique_sequence(g1, g1.n))
            for g2 in g2s:
                count += 1
                prod = make_product([g1, g2])
                assert fulfills(biclique_sequence(prod, prod.n), p) == \
                    fulfills(biclique_sequence(g2, g2.n), restricted), (s, t, g1, g2)
    _report(8, f"restriction transport exact on {count} combinations")


def test_criterion_09_regular_constructor():
    """Feasible (n, d) pairs produce verified d-regular cographs for
    n <= 40; feasibility matches exhaustive search for n <= 9."""
    for n in range(1, 41):
        for d in range(n):
            g = regular_cograph(n, d)
            if g is None:
                assert regular_infeasibility_reason(n, d) is not None, (n, d)
                continue
            a = to_adjacency(g, limit=64)
            assert a.n == n and set(a.degree_sequence()) == {d}, (n, d)
    for n in range(1, 10):
        exhaustive = set()
        for g in enumerate_cotrees(n).items:
            degs = set(to_adjacency(g).degree_sequence())
            if len(degs) == 1:
                exhaustive.add(next(iter(degs)))
        constructed = {d for d in range(n) if regular_cograph(n, d) is not None}
        assert constructed == exhaustive, n
    _report(9, "regular constructor exact on n <= 40, matches search on n <= 9")


def test_criterion_10_pareto_safety():
    """Pareto-filtered and exhaustive DP agree on every extremal value."""
    for s, t in SMALL_PAIRS:
        filtered = extremal_function(s, t, range(1, 9))
        full = extremal_function(s, t, range(1, 9), exhaustive=True)
        assert filtered.values == full.values, (s, t)
    _report(10, f"filtered == exhaustive optima for {len(SMALL_PAIRS)} pairs, n <= 8")
