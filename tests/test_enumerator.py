"""Registry DP: building, Pareto filtering, queries, series, periodicity."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies

from cogex.cotree import (
    NEG_INF,
    CapacityError,
    clique,
    edgeless,
    make_leaf,
    make_product,
    make_sum,
    product_entries,
    sum_entries,
)
from cogex import enumerator
from cogex.enumerator import (
    DEFAULT_WITNESS_LIMIT,
    ExtremalRecord,
    ExtremalSeries,
    _encode,
    _join_slack,
    _passes,
    analyze_periodicity,
    build_registries,
    extremal_function,
    extremal_series_for_profile,
    pareto_filter,
    query,
    query_witnesses,
)
from cogex.oracle import extremal_bruteforce
from cogex.profile import (BicliqueProfile, alpha_for, binding_cap,
                           forbidden_biclique_profile, format_profile, parse_profile)
from cogex.verification import dp_series, verify_pareto_safety
from cogex.cotree import INF

# the all-+inf profile: a window that prunes nothing, at cap 2
NO_WINDOW = BicliqueProfile((), INF)

# brute-force extremal values, frozen from the oracle (n = 1..9)
ORACLE_EX = {
    (1, 2): [0, 1, 1, 2, 2, 3, 3, 4, 4],
    (1, 3): [0, 1, 3, 4, 4, 6, 7, 8, 9],
    (2, 2): [0, 1, 3, 4, 6, 7, 9, 10, 12],
    (2, 3): [0, 1, 3, 6, 7, 9, 12, 13, 15],
    (3, 3): [0, 1, 3, 6, 10, 12, 15, 19, 21],
}


# ex(n) for n = 1..len(row), pinned from the pair-loop DP before its
# fast path; K_{4,4} and K_{4,5} stop at n = 28 to keep the suite quick
EX_TABLES = {
    (1, 2): [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10,
             10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 17, 18,
             18, 19, 19, 20],
    (1, 3): [0, 1, 3, 4, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
             19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34,
             35, 36, 37, 38, 39, 40],
    (2, 2): [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18, 19, 21, 22, 24, 25,
             27, 28, 30, 31, 33, 34, 36, 37, 39, 40, 42, 43, 45, 46, 48, 49,
             51, 52, 54, 55, 57, 58],
    (2, 3): [0, 1, 3, 6, 7, 9, 12, 13, 15, 18, 19, 21, 24, 25, 27, 30, 31, 33,
             36, 37, 39, 42, 43, 45, 48, 49, 51, 54, 55, 57, 60, 61, 63, 66,
             67, 69, 72, 73, 75, 78],
    (3, 3): [0, 1, 3, 6, 10, 12, 15, 19, 21, 24, 28, 30, 33, 37, 39, 42, 46,
             48, 51, 55, 57, 60, 64, 66, 69, 73, 75, 78, 82, 84, 87, 91, 93,
             96, 100, 102, 105, 109, 111, 114],
    (3, 4): [0, 1, 3, 6, 10, 15, 17, 20, 24, 29, 31, 34, 38, 43, 45, 48, 52,
             57, 59, 62, 66, 71, 73, 76, 80, 85, 87, 90, 94, 99, 101, 104,
             108, 113, 115, 118, 122, 127, 129, 132],
    (4, 4): [0, 1, 3, 6, 10, 15, 21, 24, 28, 33, 39, 42, 46, 51, 57, 60, 64,
             69, 75, 78, 82, 87, 93, 96, 100, 105, 111, 114],
    (4, 5): [0, 1, 3, 6, 10, 15, 21, 28, 31, 35, 40, 46, 53, 56, 60, 65, 71,
             78, 81, 85, 90, 96, 103, 106, 110, 115, 121, 128],
}


def test_base_registry():
    regs = build_registries(1, NO_WINDOW)
    rec = next(iter(regs[0].records.values()))
    assert rec.key == (1, 0, NEG_INF)
    assert rec.edges == 0
    assert rec.witnesses[0].n == 1


def test_level_two_keeps_both_records():
    regs = build_registries(2, NO_WINDOW)
    records = regs[1].records
    assert set(records) == {(2, 0, 0), (2, 1, 0)}
    assert records[(2, 1, 0)].edges == 1
    assert records[(2, 1, 0)].witnesses == (clique(2),)
    assert records[(2, 0, 0)].edges == 0
    assert records[(2, 0, 0)].witnesses == (edgeless(2),)


def _decode(code, n, cap, width):
    """The key (n, entries 1..cap) whose ``_encode`` is ``code``."""
    mask = (1 << width) - 1
    fields = [code >> (cap - j) * width & mask for j in range(1, cap + 1)]
    return (n, *(f.bit_length() - 1 if f else NEG_INF for f in fields))


def _coded(pairs, width=5):
    return {(_encode(key, width), edges) for key, edges in pairs}


def test_pareto_filter_examples():
    assert pareto_filter(_coded({((3, 1, 0), 2), ((3, 2, 1), 2)})) == \
        _coded({((3, 1, 0), 2)})
    both = _coded({((3, 1, 0), 2), ((3, 2, 1), 3)})
    assert pareto_filter(both) == both
    assert pareto_filter([(_encode((3, 1, 0), 5), 2)] * 2) == _coded({((3, 1, 0), 2)})


def _tuple_frontier(pairs):
    """The all-pairs filter on tuple keys: drop a pair when another has a
    pointwise smaller-or-equal key and at least as many edges."""
    return {(k, e) for k, e in pairs
            if not any(k2 != k and e2 >= e and all(a <= b for a, b in zip(k2, k))
                       for k2, e2 in pairs)}


@pytest.mark.parametrize("st", [(3, 3), (4, 4), (5, 5)])
def test_pareto_filter_on_codes_matches_tuple_filter(st, monkeypatch):
    """On every level's candidates, the filter on codes keeps the frontier
    that the all-pairs filter keeps on the decoded keys; the wide K_{5,5}
    levels keep codes of many bit lengths."""
    levels = []
    original = enumerator.pareto_filter

    def record(candidates):
        candidates = list(candidates)
        levels.append(candidates)
        return original(candidates)

    monkeypatch.setattr(enumerator, "pareto_filter", record)
    n_max = 20
    cap, width = build_registries(n_max, **_kst(*st))[0].cap, n_max + 2
    assert len(levels) == n_max - 1
    for n, candidates in enumerate(levels, start=2):
        decoded = [(_decode(c, n, cap, width), e) for c, e in candidates]
        assert {(_decode(c, n, cap, width), e) for c, e in original(candidates)} == \
            _tuple_frontier(decoded)


# small codes repeat and nest often, large ones have many bit lengths
_codes = strategies.one_of(strategies.integers(0, 63),
                         strategies.integers(min_value=0))


@given(strategies.lists(strategies.tuples(_codes, strategies.integers(0, 3)),
                        max_size=40))
# the zero code is a subset of every code
@example([(0, 1), (0, 0), (4, 1), (4, 2), (7, 0)])
# kept code 1 dominates 3 and 5, not 6, then 9 again; 6 dominates 14
@example([(1, 3), (3, 2), (5, 2), (6, 2), (9, 2), (14, 1)])
def test_pareto_filter_matches_all_pairs_subset_filter(pairs):
    """On any non-negative codes, with repeated codes and tied edges, the
    filter keeps each code's best edges unless another code that is a
    bitwise subset has at least as many."""
    best = {}
    for code, edges in pairs:
        best[code] = max(best.get(code, -1), edges)
    assert pareto_filter(pairs) == {
        (c, e) for c, e in best.items()
        if not any(c2 != c and e2 >= e and not c2 & ~c for c2, e2 in best.items())}


def old_joinable(key, other_n, window, bounded):
    """The per-split join test the stored slack replaced."""
    return all(key[j] + other_n <= window[j] for j in bounded)


@pytest.mark.parametrize("st", [(3, 3), (4, 4), (4, 5)])
def test_join_slack_matches_the_per_split_test(st):
    """On every record of every level, at every split size, a stored slack
    covering the other part's size is the old join test."""
    n_max, opts = 20, _kst(*st)
    regs = build_registries(n_max, **opts)
    window = opts["prune"].window(regs[0].cap + 1)
    bounded = [j for j, w in enumerate(window) if w < INF]
    unbounded_entries = 0  # -inf key entries on bounded window entries
    for reg in regs:
        for key in reg.records:
            slack = _join_slack(key, window, bounded)
            for other_n in range(1, n_max - reg.n + 1):
                assert (slack >= other_n) == old_joinable(key, other_n, window, bounded)
            unbounded_entries += sum(key[j] == NEG_INF for j in bounded)
    assert unbounded_entries


def test_query_examples():
    regs = build_registries(5, forbidden_biclique_profile(2, 2))
    rec = query(regs[4])
    assert rec.edges == 6
    assert make_product([clique(1), make_sum([clique(2), clique(2)])]) in rec.witnesses

    r1 = build_registries(1, BicliqueProfile((INF, INF), 0))[0]
    assert query(r1).edges == 0

    # forbidding every edge leaves only the edgeless class
    regs = build_registries(4, BicliqueProfile((4, 0, 0, 0, 0), NEG_INF))
    rec = query(regs[3])
    assert rec.edges == 0
    assert rec.witnesses == (edgeless(4),)

    # K_6 has 15 edges and contains K_{3,3}, which only entry 3 shows: the
    # cap comes from the profile, so K_6 is pruned and ex(6) = 12
    regs = build_registries(10, forbidden_biclique_profile(3, 3))
    assert regs[5].cap == 4
    assert query(regs[5]).edges == 12


@pytest.mark.parametrize("st", sorted(ORACLE_EX))
def test_dp_matches_oracle_table(st):
    s, t = st
    series = extremal_function(s, t, range(1, 10))
    assert [series.values[n] for n in range(1, 10)] == ORACLE_EX[st]


@pytest.mark.parametrize("st", sorted(EX_TABLES))
def test_ex_table_pinned(st):
    s, t = st
    want = EX_TABLES[st]
    series = extremal_function(s, t, range(1, len(want) + 1))
    assert [series.values[n] for n in range(1, len(want) + 1)] == want


def _reference_registries(n_max, prune, exhaustive=False,
                          witness_limit=DEFAULT_WITNESS_LIMIT, max_records=None):
    """The DP without its fast path: every sum and join of every record pair
    through sum_entries and product_entries, then the window check, then an
    all-pairs dominance filter.  Levels are lists of (key, edges, witnesses)."""
    cap = binding_cap(prune) + 1
    window = prune.window(cap + 1)
    limit = None if exhaustive else witness_limit

    def fits(key):
        return all(a <= b for a, b in zip(key, window))

    base = (1, 0) + (NEG_INF,) * (cap - 1)
    levels = [{base: (0, (make_leaf(),))} if fits(base) else {}]
    for n in range(2, n_max + 1):
        cands = {}
        for n1 in range(1, n // 2 + 1):
            n2 = n - n1
            for k1, (e1, _) in levels[n1 - 1].items():
                for k2, (e2, _) in levels[n2 - 1].items():
                    if n1 == n2 and k2 < k1:
                        continue
                    for maker, key, edges in (
                            (make_sum, sum_entries(k1, k2, cap), e1 + e2),
                            (make_product, product_entries(k1, k2, cap),
                             e1 + e2 + n1 * n2)):
                        if not fits(key):
                            continue
                        best, sources = cands.get(key, (-1, []))
                        if edges > best:
                            best, sources = edges, []
                        if edges == best:
                            sources.append((maker, n1, k1, k2))
                        cands[key] = (best, sources)
        if max_records is not None and len(cands) > max_records:
            raise CapacityError(f"level {n} produced {len(cands)} profile keys "
                                f"(limit {max_records})")
        keep = set(cands) if exhaustive else {
            k for k, (e, _) in cands.items()
            if not any(k2 != k and e2 >= e and all(a <= b for a, b in zip(k2, k))
                       for k2, (e2, _) in cands.items())}
        level = {}
        for key in sorted(keep):
            edges, sources = cands[key]
            wits = sorted({maker([a, b]) for maker, n1, k1, k2 in sources
                           for a in levels[n1 - 1][k1][1]
                           for b in levels[n - n1 - 1][k2][1]})
            level[key] = (edges, tuple(wits[:limit]))
        levels.append(level)
    return [[(k, e, w) for k, (e, w) in level.items()] for level in levels]


def _as_levels(registries):
    for reg in registries:
        assert all(r.key == k for k, r in reg.records.items())
    return [[(k, r.edges, r.witnesses) for k, r in reg.records.items()]
            for reg in registries]


def _kst(s, t):
    return dict(prune=forbidden_biclique_profile(s, t))


def _profile(text):
    return dict(prune=parse_profile(text))


REFERENCE_CASES = {
    **{f"K{s}{t}": (20, _kst(s, t)) for s, t in (
        (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5))},
    "n-bounded": (8, _profile("3,1,0;-inf")),     # sums checked at entry 0
    "neg-inf-window": (8, _profile("inf,inf,1;-inf")),  # and at entry 3
    "no-window": (9, dict(prune=NO_WINDOW)),
    "exhaustive": (10, dict(_kst(3, 3), exhaustive=True)),
    "all-witnesses": (14, dict(_kst(2, 3), witness_limit=None)),
    # the sum cutoff keeps every tied best source: every witness is compared.
    # Past n = 15 a filtered record can have fewer witnesses than the
    # reference's, as its sums start with a smallest component
    **{f"K{s}{t}-all-witnesses": (15, dict(_kst(s, t), witness_limit=None))
       for s, t in ((3, 3), (4, 5), (2, 7))},
    # wide windows, where most sums of two parts have a sum-only first part
    **{f"K{s}{t}{mode}": (18, dict(_kst(s, t), exhaustive=mode == "-exhaustive"))
       for s, t in ((2, 7), (3, 5)) for mode in ("", "-exhaustive")},
    # series whose filtered witness lists move when sums start with a
    # smallest component: K_{1,4} from n = 17, and K_{2,6}, whose list at
    # n = 32 lies past the reference's reach, for its window
    **{f"K{s}{t}{mode}": (n_max, dict(_kst(s, t), exhaustive=mode == "-exhaustive"))
       for s, t, n_max in ((1, 4, 24), (2, 6, 20)) for mode in ("", "-exhaustive")},
}


def _keys_and_edges(levels):
    return [[(k, e) for k, e, _ in level] for level in levels]


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_fast_dp_matches_reference(case):
    # the reference sums every pair of records; the fast DP sums only those
    # whose first part is a smallest component, so a record under a binding
    # witness limit keeps the first graphs of fewer sources.  Its (key,
    # edges) match on every level, and its witnesses are extremal graphs of
    # its key that the reference builds without a limit
    n_max, opts = REFERENCE_CASES[case]
    fast = _as_levels(build_registries(n_max, **opts))
    limit = None if opts.get("exhaustive") else opts.get("witness_limit",
                                                         DEFAULT_WITNESS_LIMIT)
    if limit is None:
        assert fast == _reference_registries(n_max, **opts)
        return
    every = _reference_registries(n_max, **dict(opts, witness_limit=None))
    assert _keys_and_edges(fast) == _keys_and_edges(every)
    for fast_level, every_level in zip(fast, every):
        for (key, _, wits), (_, _, all_wits) in zip(fast_level, every_level):
            assert 1 <= len(wits) <= limit and set(wits) <= set(all_wits), key


# one case per profile of REFERENCE_CASES
PROFILE_CASES = {format_profile(opts["prune"]): (n_max, opts["prune"])
                 for n_max, opts in REFERENCE_CASES.values()}


@pytest.mark.parametrize("exhaustive", [False, True], ids=["filtered", "exhaustive"])
@pytest.mark.parametrize("case", PROFILE_CASES)
def test_every_record_fits_the_profile_it_was_built_under(case, exhaustive):
    # query reads every record of a level, so each must pass the window; a
    # series is then the queries of its levels
    n_max, p = PROFILE_CASES[case]
    regs = build_registries(n_max, p, exhaustive=exhaustive)
    for reg in regs:
        window = p.window(reg.cap + 1)
        assert all(_passes(key, window) for key in reg.records), reg.n
    if p == NO_WINDOW:
        return  # no start index, so no series
    series = extremal_series_for_profile(p, range(1, n_max + 1), exhaustive=exhaustive)
    queried = {reg.n: query_witnesses(reg) for reg in regs if reg.records}
    assert {n: edges for n, (edges, _) in queried.items()} == series.values
    assert {n: wits[:DEFAULT_WITNESS_LIMIT] for n, (_, wits) in queried.items()} == \
        series.witnesses


@pytest.mark.parametrize("case", ["K33", "K45", "no-window", "exhaustive"])
def test_every_sum_source_starts_with_a_connected_type_part(case):
    # connected-type: the leaf, or a record with a join source; the sources
    # are read before any witness is built
    n_max, opts = REFERENCE_CASES[case]
    sums = 0
    for reg in build_registries(n_max, **opts):
        for rec in reg.records.values():
            if rec._pending is None:  # the leaf
                continue
            for maker, r1, _ in rec._pending[0]:
                if maker is make_sum:
                    sums += 1
                    assert r1.key[0] == 1 or any(
                        m is make_product for m, _, _ in r1._pending[0]), (rec.key, r1.key)
    assert sums


def _largest_first_part(rec):
    """n for the leaf and a record with a join source, else the most
    vertices of a first part over its sum sources."""
    if rec._pending is None:  # the leaf
        return rec.key[0]
    sources = rec._pending[0]
    if any(maker is make_product for maker, _, _ in sources):
        return rec.key[0]
    return max(r1.key[0] for _, r1, _ in sources)


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_every_sum_source_starts_with_a_smallest_component(case):
    # a sum's first part is connected-type, has at most as many vertices as
    # its second part, and is no larger than any first part the second part
    # starts with; the sources are read before any witness is built
    n_max, opts = REFERENCE_CASES[case]
    sums = 0
    for reg in build_registries(n_max, **opts):
        for rec in reg.records.values():
            if rec._pending is None:  # the leaf
                continue
            for maker, r1, r2 in rec._pending[0]:
                if maker is make_sum:
                    sums += 1
                    n1 = r1.key[0]
                    assert _largest_first_part(r1) == n1 <= r2.key[0], (rec.key, r1.key)
                    assert _largest_first_part(r2) >= n1, (rec.key, r1.key, r2.key)
    assert sums


def test_fast_dp_keeps_every_witness_without_a_limit():
    # exhaustive mode keeps all witnesses; at n <= 9 no key has more than two
    opts = dict(prune=NO_WINDOW, exhaustive=True)
    ref = _reference_registries(11, **opts)
    assert max(len(wits) for level in ref for _, _, wits in level) > 2
    assert _as_levels(build_registries(11, **opts)) == ref


def test_fast_dp_capacity_error_matches_reference():
    opts = dict(_kst(3, 3), max_records=20)
    with pytest.raises(CapacityError) as fast:
        build_registries(30, **opts)
    with pytest.raises(CapacityError) as ref:
        _reference_registries(30, **opts)
    assert str(fast.value) == str(ref.value)


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
    # the K_{s,t} series takes alpha, s and t from its profile
    for s in range(1, 9):
        for t in range(s, 9):
            series = extremal_function(s, t, range(1, 2))
            assert (series.alpha, series.s, series.t) == (alpha_for(s, t), s, t)


@pytest.mark.parametrize("text, message", [
    ("inf;inf", "all-infinite profile has no start index"),
    ("inf;-inf", "start value must be finite"),
], ids=["inf;inf", "inf;-inf"])
def test_profile_without_a_finite_start_value_is_rejected_before_the_dp(
        text, message, monkeypatch, capsys):
    # checked before the DP, which takes half a minute at --n-max 80 before
    # the profile's start value is read
    from cogex.cli import main

    def no_dp(*_, **__):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(enumerator, "build_registries", no_dp)
    with pytest.raises(ValueError, match=f"^{message}$"):
        extremal_series_for_profile(parse_profile(text), range(1, 81))
    assert main(["enumerate", "--profile", text, "--n-max", "80"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("n_range", [5, (1, 5), range(0, 5), range(3, 3), range(1, 9, 2)])
def test_series_needs_a_contiguous_range(n_range):
    with pytest.raises(ValueError, match="contiguous range"):
        extremal_function(2, 2, n_range)


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


def _count_witness_builds(monkeypatch):
    """Patch the enumerator's cotree constructors with one call counter."""
    calls = [0]
    for name in ("make_sum", "make_product"):
        def counted(parts, original=getattr(enumerator, name)):
            calls[0] += 1
            return original(parts)
        monkeypatch.setattr(enumerator, name, counted)
    return calls


def test_registries_build_no_witness(monkeypatch):
    calls = _count_witness_builds(monkeypatch)
    build_registries(48, **_kst(3, 3))
    assert calls[0] == 0


def test_series_builds_the_witnesses_it_reads(monkeypatch):
    # building every record's witnesses would take 9,009 calls.  It took
    # 681 when sums of every pair were sources; with a connected-type first
    # part, the records read have fewer sum sources, and so fewer parts.
    # It took 148 then; a first part that is a smallest component drops the
    # sum sources whose second part starts with a smaller one
    calls = _count_witness_builds(monkeypatch)
    extremal_function(3, 3, range(1, 49))
    assert calls[0] == 123


def test_lazy_record_keeps_the_first_witnesses_of_every_pair():
    part = ExtremalRecord((2, 0), 0, (clique(2), edgeless(2)))
    every = sorted({maker([a, b]) for maker in (make_sum, make_product)
                    for a in part.witnesses for b in part.witnesses})
    assert len(every) > 3
    lazy = ExtremalRecord._lazy(
        (4, 0), 0, [(make_sum, part, part), (make_product, part, part)], 3)
    eager = ExtremalRecord((4, 0), 0, tuple(every[:3]))
    assert lazy.witnesses == eager.witnesses
    assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_witnesses_build_without_recursion():
    # the witness at n = 300 rests on a chain of records down to n = 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        series = extremal_function(1, 2, range(300, 301))
    finally:
        sys.setrecursionlimit(limit)
    assert series.values == {300: 150}
    assert all(w.n == 300 and w.edges == 150 for w in series.witnesses[300])


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


def test_pareto_safety_beyond_small_pairs():
    # wider windows than SMALL_PAIRS, past the oracle's reach
    result = verify_pareto_safety([(dp_series(s, t, 14), dp_series(s, t, 14, True))
                                   for s, t in ((3, 4), (4, 4), (4, 5), (5, 5))])
    assert result.passed, result.counterexamples
    assert result.params == {"n_max": 14, "pairs": [[3, 4], [4, 4], [4, 5], [5, 5]]}


def test_strict_bound_small():
    for s, t in ((2, 2), (2, 3), (3, 3), (3, 4)):
        series = extremal_function(s, t, range(1, 21))
        for n, ex in series.values.items():
            assert Fraction(ex) < series.alpha * n
        assert series.at_bound() == []


def test_at_bound_lists_the_n_where_ex_reaches_alpha_n():
    series = ExtremalSeries(constraint="x", alpha=Fraction(1),
                            values={3: 2, 1: 0, 2: 2, 4: 5})
    # ex = alpha * n counts as reaching the bound
    assert series.at_bound() == [2, 4]
    assert series.at_bound(Fraction(1, 2)) == [2, 3, 4]
    assert series.at_bound(Fraction(2)) == []


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



def test_periodicity_last_value_breaks_the_tail():
    # alternating residuals whose last value breaks the pattern: every
    # periodic tail ends before n_max, so no period stabilizes
    values = {n: n % 2 for n in range(1, 12)} | {12: 5}
    series = ExtremalSeries(constraint="broken", alpha=Fraction(0), values=values)
    rep = analyze_periodicity(series, alpha=Fraction(0))
    assert rep.status == "inconclusive"

# ex(n) for n = 1..len(row) where EX_TABLES stops short, from the DP; the
# detector is pinned on these values because the DP would take minutes
EX_LONG = {
    (2, 3): [0, 1, 3, 6, 7, 9, 12, 13, 15, 18, 19, 21, 24, 25, 27, 30, 31, 33,
             36, 37, 39, 42, 43, 45, 48, 49, 51, 54, 55, 57, 60, 61, 63, 66, 67,
             69, 72, 73, 75, 78, 79, 81, 84, 85, 87, 90, 91, 93, 96, 97, 99, 102,
             103, 105, 108, 109, 111, 114, 115, 117],
    (2, 4): [0, 1, 3, 6, 10, 11, 13, 16, 20, 21, 23, 26, 30, 31, 33, 36, 40, 41,
             43, 46, 50, 51, 53, 56, 60, 61, 63, 66, 70, 71, 73, 76, 80, 81, 83,
             86, 90, 91, 93, 96],
    (3, 3): [0, 1, 3, 6, 10, 12, 15, 19, 21, 24, 28, 30, 33, 37, 39, 42, 46, 48,
             51, 55, 57, 60, 64, 66, 69, 73, 75, 78, 82, 84, 87, 91, 93, 96, 100,
             102, 105, 109, 111, 114, 118, 120, 123, 127, 129, 132, 136, 138],
    (3, 5): [0, 1, 3, 6, 10, 15, 21, 24, 26, 30, 35, 41, 44, 48, 50, 55, 61, 64,
             68, 72, 75, 81, 84, 88, 92, 96, 101, 104, 108, 112, 116, 121, 124,
             128, 132, 136, 141, 144, 148, 152],
    (4, 4): [0, 1, 3, 6, 10, 15, 21, 24, 28, 33, 39, 42, 46, 51, 57, 60, 64, 69,
             75, 78, 82, 87, 93, 96, 100, 105, 111, 114, 118, 123, 129, 132, 136,
             141, 147, 150, 154, 159, 165, 168],
    (4, 5): [0, 1, 3, 6, 10, 15, 21, 28, 31, 35, 40, 46, 53, 56, 60, 65, 71, 78,
             81, 85, 90, 96, 103, 106, 110, 115, 121, 128, 131, 135, 140, 146,
             153, 156, 160, 165, 171, 178, 181, 185],
    (5, 5): [0, 1, 3, 6, 10, 15, 21, 28, 36, 40, 45, 51, 58, 66, 70, 76, 81, 88,
             96, 100, 106, 112, 118, 126, 130, 136, 142, 148, 156, 160, 166, 172,
             178, 186, 190, 196, 202, 208, 216, 220, 226, 232, 238, 246],
}

# (s, t, n_min, n_max, R, constants by residue): R is what the detector that
# required three periods gave, except for K_{3,5}, whose last three residuals
# coincide: that detector reported R = 1 from n = 38 on both ranges
PERIODS = [
    (2, 2, 1, 40, 2, ["-2", "-3/2"]),
    (2, 3, 1, 40, 3, ["-3", "-2", "-3"]),
    (2, 3, 1, 60, 3, ["-3", "-2", "-3"]),
    (2, 4, 1, 40, 4, ["-4", "-5/2", "-4", "-9/2"]),
    (3, 3, 1, 40, 3, ["-6", "-6", "-5"]),
    (3, 3, 1, 48, 3, ["-6", "-6", "-5"]),
    (3, 4, 1, 40, 4, ["-8", "-15/2", "-6", "-15/2"]),
    (3, 5, 1, 40, None, []),
    (3, 5, 5, 40, 5, ["-8", "-8", "-7", "-8", "-8"]),
    (4, 4, 1, 40, 4, ["-12", "-25/2", "-12", "-21/2"]),
    (4, 5, 1, 22, 5, ["-15", "-15", "-14", "-12", "-14"]),
    (4, 5, 1, 40, 5, ["-15", "-15", "-14", "-12", "-14"]),
    (5, 5, 1, 20, None, []),
    (5, 5, 1, 44, 5, ["-20", "-20", "-20", "-20", "-18"]),
]


@pytest.mark.parametrize("s, t, n_min, n_max, period, constants", PERIODS)
def test_period_pinned(s, t, n_min, n_max, period, constants):
    ex = EX_LONG.get((s, t)) or EX_TABLES[(s, t)]
    assert len(ex) >= n_max
    series = ExtremalSeries(constraint=f"K{{{s},{t}}}", alpha=alpha_for(s, t),
                            values={n: ex[n - 1] for n in range(n_min, n_max + 1)},
                            s=s, t=t)
    rep = analyze_periodicity(series)
    assert rep.detected_period == period
    assert rep.constants == {q: Fraction(c) for q, c in enumerate(constants)}
    assert rep.status == ("periodic" if period else "inconclusive")
