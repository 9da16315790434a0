"""The bundled verification suite stays green and reports structure."""

from pathlib import Path

import pytest

import cogex.verification as verification
from cogex.cli import main
from cogex.cotree import (CapacityError, clique, degree_counts, edgeless, make_product,
                          make_sum, summands)
from cogex.oracle import CheckResult, CographCatalog, extremal_bruteforce
from cogex.profile import forbidden_biclique_profile
from cogex.verification import (
    SELECTORS,
    SMALL_PAIRS,
    STRUCTURE_PAIRS,
    dp_series,
    options_read,
    run_suite,
    verify_constructions_meet_optimum,
    verify_dp_vs_oracle,
    verify_pareto_safety,
    verify_pump_invariants,
    verify_restriction_transport,
    verify_strict_bound,
    verify_structure_theorems,
)


def test_individual_checks_pass():
    assert verify_dp_vs_oracle(dp_series(2, 3, 8), dp_series(2, 3, 8, True)).passed
    assert verify_strict_bound(dp_series(2, 2, 20)).passed
    assert verify_restriction_transport(4).passed
    assert verify_constructions_meet_optimum(8).passed


def test_dp_vs_oracle_compares_exhaustive_witness_sets():
    # the structure checks read these sets past the catalog, so the oracle
    # holds them to every extremal cograph at every n it reaches
    for s, t in SMALL_PAIRS:
        assert verify_dp_vs_oracle(dp_series(s, t, 9), dp_series(s, t, 9, True)).passed, (s, t)
    exhaustive = dp_series(3, 3, 8, True)
    exhaustive.witnesses[6] = exhaustive.witnesses[6][1:]
    result = verify_dp_vs_oracle(dp_series(3, 3, 8), exhaustive)
    assert not result.passed
    assert result.counterexamples == ["n=6: dp witnesses 1 != brute 2"]


def test_dp_checks_judge_the_series_they_are_given():
    # the checks read s, t, n_max and the values from the series as given:
    # a filtered value off by one, then a value at the bound
    filtered, exhaustive = dp_series(2, 3, 8), dp_series(2, 3, 8, True)
    filtered.values[7] += 1  # 13, still below 2 * 7
    result = verify_pareto_safety([(dp_series(2, 2, 8), dp_series(2, 2, 8, True)),
                                   (filtered, exhaustive)])
    assert result.params == {"n_max": 8, "pairs": [[2, 2], [2, 3]]}
    assert result.counterexamples == [f"(2,3) n=7: filtered={exhaustive.values[7] + 1} "
                                      f"exhaustive={exhaustive.values[7]}"]
    filtered.values[5] = 10  # alpha(K_{2,3}) = 2
    result = verify_strict_bound(filtered)
    assert result.params == {"s": 2, "t": 3, "n_max": 8, "alpha": "2"}
    assert result.counterexamples == ["n=5: ex=10 >= 10"]


def test_structure_selector_builds_no_catalog(monkeypatch):
    import cogex.oracle as oracle

    def no_catalog(*_, **__):
        raise AssertionError("the structure selector built an oracle catalog")

    for name in ("enumerate_cotrees", "_catalog"):
        monkeypatch.setattr(oracle, name, no_catalog)
    report = run_suite("structure", n_max=20)
    assert report["passed"]
    assert max(c["params"]["n"] for c in report["checks"]) == 20


def test_structure_theorems_to_30_on_exhaustive_witnesses():
    results = verify_structure_theorems(
        range(2, 31), {st: dp_series(*st, 30, True).witnesses for st in STRUCTURE_PAIRS})
    assert len(results) == 202
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def _k33_family(n):
    """The K_{3,3}-extremal cographs on n >= 2 vertices as the exhaustive DP
    shows them for n <= 45: K_2 x (q K_3 + K_r) with q, r = divmod(n - 2, 3),
    and, when r > 0, E_2 x (a K_3 + b C_4) for each a >= 0, b >= 1 with
    3a + 4b = n - 2, where C_4 = E_2 x E_2.  This matches the DP; it is not
    the paper's statement."""
    q, r = divmod(n - 2, 3)
    rest = [clique(3)] * q + ([clique(r)] if r else [])
    family = {make_product([clique(2), *([make_sum(rest)] if rest else [])])}
    c4 = make_product([edgeless(2), edgeless(2)])
    for b in range(1, (n - 2) // 4 + 1) if r else ():
        a, left = divmod(n - 2 - 4 * b, 3)
        if not left:
            family.add(make_product([edgeless(2), make_sum([clique(3)] * a + [c4] * b)]))
    return family


def test_k33_extremal_cographs_are_the_family():
    witnesses = dp_series(3, 3, 45, True).witnesses
    for n in range(2, 46):
        assert set(witnesses[n]) == _k33_family(n), n
        assert verification.k33_extremal(n) in _k33_family(n), n
    p = forbidden_biclique_profile(3, 3)
    for n in range(2, 10):
        assert set(extremal_bruteforce(n, p)[1]) == _k33_family(n), n
    assert [len(_k33_family(n)) for n in (12, 13, 14, 30, 31, 32, 45)] == [2, 2, 1, 4, 3, 1, 5]


# (s, t, n_max, the least n from which every extremal cograph has the shape)
STAR_LIKE_ONSETS = [(2, 3, 40, 5), (3, 3, 45, 7), (3, 4, 36, 7), (4, 4, 32, 8),
                    (3, 5, 36, 9), (2, 5, 36, 20), (2, 7, 36, 22)]


@pytest.mark.parametrize("s, t, n_max, onset", STAR_LIKE_ONSETS,
                         ids=[f"K{s}{t}" for s, t, _, _ in STAR_LIKE_ONSETS])
def test_every_extremal_cograph_is_star_like_from_its_onset(s, t, n_max, onset):
    # the star-like shape: a (t-1)-regular summand with s - 1 outside
    # neighbours, on every exhaustive witness from the onset to n_max, and
    # missing from some witness one level below it
    def star_like(g):
        return any(degree_counts(c) == {t - 1: c.n} and outside == s - 1
                   for _, c, _, outside in summands(g))

    witnesses = dp_series(s, t, n_max, True).witnesses
    for n in range(onset, n_max + 1):
        assert all(map(star_like, witnesses[n])), n
    assert not all(map(star_like, witnesses[onset - 1]))


@pytest.mark.parametrize("options, calls", [({}, 13), ({"n_max": 6}, 10)],
                         ids=["all", "n-max"])
def test_run_suite_builds_each_dp_series_once(options, calls, monkeypatch):
    # dp-vs-oracle, structure and pareto share their series at the same size,
    # and bounds too at its --n-max
    import cogex.enumerator as enumerator

    built = []
    original = enumerator.build_registries

    def record(n_max, prune, exhaustive=False, **kwargs):
        built.append((prune, n_max, exhaustive))
        return original(n_max, prune, exhaustive=exhaustive, **kwargs)

    monkeypatch.setattr(enumerator, "build_registries", record)
    assert run_suite("all", **options)["passed"]
    assert len(built) == len(set(built)) == calls


def test_regular_constructor_check_reads_degrees_past_16_vertices(monkeypatch):
    # a 3-regular graph where 4-regular is asked, an irregular one on the
    # right vertex count, and one vertex short, all above 16 vertices
    regular = verification.regular_cograph
    wrong = {(20, 4): regular(20, 3),
             (24, 4): make_sum([clique(5)] * 4 + [clique(4)]),
             (30, 5): regular(28, 5)}
    monkeypatch.setattr(verification, "regular_cograph",
                        lambda n, d: wrong.get((n, d)) or regular(n, d))
    result = verification.verify_regular_constructor(4)
    assert not result.passed
    assert result.counterexamples == ["(20,4): output not 4-regular",
                                      "(24,4): output not 4-regular",
                                      "(30,5): output not 5-regular"]


def test_constructions_optimum_checks_freeness(monkeypatch):
    # same vertex and edge counts as the families, but each holds its K_{s,t}:
    # P_3 + K_1 has a K_{1,2}, K_3 x E_3 a K_{3,3}; and E_2 is one edge short
    # at the smallest n that k2t covers
    star, k2t, k33 = (verification.star_extremal, verification.k2t_extremal,
                      verification.k33_extremal)
    p3_k1 = make_sum([make_product([clique(1), edgeless(2)]), clique(1)])
    monkeypatch.setattr(verification, "star_extremal",
                        lambda t, n: p3_k1 if (t, n) == (2, 4) else star(t, n))
    monkeypatch.setattr(verification, "k2t_extremal",
                        lambda t, n: edgeless(2) if (t, n) == (3, 2) else k2t(t, n))
    monkeypatch.setattr(verification, "k33_extremal",
                        lambda n: make_product([clique(3), edgeless(3)]) if n == 6 else k33(n))
    result = verify_constructions_meet_optimum(7)
    assert not result.passed
    assert result.counterexamples == ["k2t(3,2): 0 != 1", "star(2,4): 2 != 2",
                                      "k33(6): 12 != 12"]


def test_sequences_check_records_an_invariant_violation(monkeypatch):
    # a sequence that the recursion and brute force agree on but that is not
    # decreasing is a failed check, not a traceback
    bad = (3, 1, 2)
    sequence, catalogs = verification.biclique_sequence, verification.enumerate_cotrees
    # a fresh catalog of the 3-vertex cographs whose grouping by sequence,
    # a cached property, is set to the bad sequence
    three = CographCatalog(3, catalogs(3).items)
    vars(three)["by_sequence"] = ((bad, three.items),)
    monkeypatch.setattr(verification, "biclique_sequence",
                        lambda g, k: bad if g.n == 3 else sequence(g, k))
    monkeypatch.setattr(verification, "enumerate_cotrees",
                        lambda n, limit: three if n == 3 else catalogs(n, limit))
    result = verification.verify_sequences(4)
    assert not result.passed
    assert len(result.counterexamples) == 4  # the cographs on 3 vertices
    assert all(c.endswith(": not decreasing at 1: (3, 1, 2)")
               for c in result.counterexamples)


def test_pump_invariants_compute_each_sequence_at_most_once(monkeypatch):
    # per trial: the core's sequence once, then the pumped graph's at most
    # once, and only when the core fulfills a pair whose s exceeds w
    events = []
    sequence, pump = verification.biclique_sequence, verification.pump
    monkeypatch.setattr(verification, "pump", lambda g, path, k: events.append(
        ("pump", g, out := pump(g, path, k))) or out)
    monkeypatch.setattr(verification, "biclique_sequence",
                        lambda g, k: events.append(("seq", g)) or sequence(g, k))
    assert verify_pump_invariants(seed=7, trials=40).passed
    trials = []
    for event in events:
        if event[0] == "pump":
            trials.append((event[1], event[2], []))
        else:
            trials[-1][2].append(event[1])
    assert len(trials) == 40
    assert all(seqs in ([g], [g, pumped]) for g, pumped, seqs in trials)
    pumped_read = sum(len(seqs) == 2 for _, _, seqs in trials)
    assert 0 < pumped_read < 40


def test_pump_invariants_deterministic_seed():
    a = verify_pump_invariants(seed=7, trials=40)
    b = verify_pump_invariants(seed=7, trials=40)
    assert a.passed and b.passed
    assert a.detail == b.detail


# (check, params) of every check in ``run_suite("all")``, in order: the 74
# checks of the verify workload's report (perfbench/checks.py)
BUNDLE = [
    ("balanced-biclique", {"n": 2, "t": 1}), ("balanced-biclique", {"n": 3, "t": 1}),
    ("balanced-biclique", {"n": 4, "t": 1}), ("balanced-biclique", {"n": 5, "t": 1}),
    ("balanced-biclique", {"n": 6, "t": 2}), ("balanced-biclique", {"n": 7, "t": 2}),
    ("balanced-biclique", {"n": 8, "t": 2}), ("balanced-biclique", {"n": 9, "t": 2}),
    ("sequences", {"n_max": 7}),
    ("fulfillment-agreement", {"n_max": 7, "pairs": [[2, 2], [2, 3], [3, 3]]}),
    ("dp-vs-oracle", {"s": 1, "t": 2, "n_max": 8}),
    ("dp-vs-oracle", {"s": 1, "t": 3, "n_max": 8}),
    ("dp-vs-oracle", {"s": 2, "t": 2, "n_max": 8}),
    ("dp-vs-oracle", {"s": 2, "t": 3, "n_max": 8}),
    ("dp-vs-oracle", {"s": 3, "t": 3, "n_max": 8}),
    ("strict-bound", {"s": 2, "t": 2, "n_max": 30, "alpha": "3/2"}),
    ("strict-bound", {"s": 2, "t": 3, "n_max": 30, "alpha": "2"}),
    ("strict-bound", {"s": 3, "t": 3, "n_max": 30, "alpha": "3"}),
    ("universal-vertex", {"n": 2, "t": 2}), ("universal-vertex", {"n": 2, "t": 3}),
    ("k33-extremal-shape", {"n": 2}),
    ("lifting-decomposition", {"n": 2, "s": 2, "t": 2}),
    ("lifting-decomposition", {"n": 2, "s": 2, "t": 3}),
    ("lifting-decomposition", {"n": 2, "s": 3, "t": 3}),
    ("star-extremal-shape", {"n": 3, "t": 3}), ("universal-vertex", {"n": 3, "t": 2}),
    ("universal-vertex", {"n": 3, "t": 3}), ("k33-extremal-shape", {"n": 3}),
    ("lifting-decomposition", {"n": 3, "s": 2, "t": 2}),
    ("lifting-decomposition", {"n": 3, "s": 2, "t": 3}),
    ("lifting-decomposition", {"n": 3, "s": 3, "t": 3}),
    ("star-extremal-shape", {"n": 4, "t": 3}), ("universal-vertex", {"n": 4, "t": 2}),
    ("universal-vertex", {"n": 4, "t": 3}), ("k33-extremal-shape", {"n": 4}),
    ("lifting-decomposition", {"n": 4, "s": 2, "t": 2}),
    ("lifting-decomposition", {"n": 4, "s": 2, "t": 3}),
    ("lifting-decomposition", {"n": 4, "s": 3, "t": 3}),
    ("star-extremal-shape", {"n": 5, "t": 3}), ("universal-vertex", {"n": 5, "t": 2}),
    ("universal-vertex", {"n": 5, "t": 3}), ("k33-extremal-shape", {"n": 5}),
    ("lifting-decomposition", {"n": 5, "s": 2, "t": 2}),
    ("lifting-decomposition", {"n": 5, "s": 2, "t": 3}),
    ("lifting-decomposition", {"n": 5, "s": 3, "t": 3}),
    ("star-extremal-shape", {"n": 6, "t": 3}), ("universal-vertex", {"n": 6, "t": 2}),
    ("universal-vertex", {"n": 6, "t": 3}), ("k33-extremal-shape", {"n": 6}),
    ("lifting-decomposition", {"n": 6, "s": 2, "t": 2}),
    ("lifting-decomposition", {"n": 6, "s": 2, "t": 3}),
    ("lifting-decomposition", {"n": 6, "s": 3, "t": 3}),
    ("star-extremal-shape", {"n": 7, "t": 3}), ("universal-vertex", {"n": 7, "t": 2}),
    ("universal-vertex", {"n": 7, "t": 3}), ("k33-extremal-shape", {"n": 7}),
    ("lifting-decomposition", {"n": 7, "s": 2, "t": 2}),
    ("lifting-decomposition", {"n": 7, "s": 2, "t": 3}),
    ("lifting-decomposition", {"n": 7, "s": 3, "t": 3}),
    ("star-extremal-shape", {"n": 8, "t": 3}), ("universal-vertex", {"n": 8, "t": 2}),
    ("universal-vertex", {"n": 8, "t": 3}), ("k33-extremal-shape", {"n": 8}),
    ("lifting-decomposition", {"n": 8, "s": 2, "t": 2}),
    ("lifting-decomposition", {"n": 8, "s": 2, "t": 3}),
    ("lifting-decomposition", {"n": 8, "s": 3, "t": 3}),
    ("restriction-transport", {"g1_max": 3, "g2_max": 5}),
    ("regular-constructor", {"n_max": 40, "exhaustive_max": 9}),
    ("pareto-safety", {"n_max": 8, "pairs": [[1, 2], [1, 3], [2, 2], [2, 3], [3, 3]]}),
    ("constructions-optimum", {"n_max": 9}), ("clique-product-formula", {"max_r": 6}),
    ("pump-invariants", {"seed": 20240817, "trials": 120}),
    ("height-bound", {"n_max": 7, "trials": 200}),
    ("complement-involution", {"n_max": 7}),
]


def test_small_bundle():
    report = run_suite("all")
    assert report["passed"], [c["check"] for c in report["checks"] if not c["passed"]]
    assert len(BUNDLE) == 74
    assert [(c["check"], c["params"]) for c in report["checks"]] == BUNDLE


def test_readme_selector_table_is_the_selectors_table():
    # one row per selector, in order, then all: the options it reads and
    # its size
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| selector | reads | size |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        selector, reads, *rest = (c.strip() for c in line.strip("|").split("|"))
        options = set() if reads == "none" else {
            f.strip(" `-").replace("-", "_") for f in reads.split(",")}
        rows.append([selector.strip("`"), options, *rest])
    assert rows[:-1] == [[k, set(reads), str(size)] for k, (_, reads, size) in SELECTORS.items()]
    assert rows[-1][0].startswith("all`") and rows[-1][1] == options_read("all")
    assert rows[-1][2] == str(max(size for k, (_, reads, size) in SELECTORS.items()
                                  if k != "bound-2t" and "catalog_max" in reads))


@pytest.mark.parametrize("selector", list(SELECTORS))
def test_size_is_n_then_n_max_where_read_else_the_default(selector, monkeypatch):
    _, reads, default = SELECTORS[selector]
    sizes = []
    monkeypatch.setitem(SELECTORS, selector, (
        lambda size, **_: sizes.append(size) or [CheckResult("stub", {}, True)],
        reads, default))
    for options in ({}, {"n_max": 5}):
        if set(options) <= set(reads):
            run_suite(selector, **options)
    # --n-max where it reads it; the rest is an unread option
    assert sizes == [default] + [5] * ("n_max" in reads)


UNREAD = [(k, o) for k in ("all", *SELECTORS)
          for o in ("n", "n_max", "s", "t", "seed", "catalog_max") if o not in options_read(k)]


@pytest.mark.parametrize("selector, option", UNREAD, ids=[f"{k}-{o}" for k, o in UNREAD])
def test_run_suite_rejects_an_option_its_selector_does_not_read(selector, option,
                                                                 monkeypatch):
    # before any check runs: the selector would otherwise run its fixed
    # sizes, pairs or seed, and no catalog limit applies where none is built
    def no_check(**_):
        raise AssertionError("a check ran")

    for k, (_, reads, sizes) in SELECTORS.items():
        monkeypatch.setitem(SELECTORS, k, (no_check, reads, sizes))
    if option == "n":  # no selector has an --n: its size is --n-max, where read
        with pytest.raises(TypeError, match="unexpected keyword argument 'n'"):
            run_suite(selector, n=5)
        return
    with pytest.raises(ValueError, match=f"^verify {selector} does not read "
                                         f"--{option.replace('_', '-')}$"):
        run_suite(selector, **{option: 5})


def _no_catalog_or_dp(monkeypatch):
    import cogex.enumerator as enumerator
    import cogex.oracle as oracle

    def fail(*_, **__):
        raise AssertionError("a catalog or DP series was built")

    for module in (oracle, verification):
        monkeypatch.setattr(module, "enumerate_cotrees", fail)
    monkeypatch.setattr(enumerator, "build_registries", fail)


@pytest.mark.parametrize("selector, options, message", [
    ("dp-vs-oracle", {"s": 2}, "verify dp-vs-oracle needs both --s and --t, or neither"),
    ("all", {"s": 3, "t": 2}, "need 1 <= s <= t, got (3, 2)"),
    ("bound-2t", {"t": 1}, "verify bound-2t needs --t >= 2"),
    ("sequences", {"n_max": 0}, "--n-max must be >= 1"),
    ("sequences", {"catalog_max": 0}, "--catalog-max must be >= 1"),
    # the limit comes before the unread-option rule
    ("pump", {"catalog_max": 0}, "--catalog-max must be >= 1"),
], ids=["half-pair", "s-above-t", "bound-2t-t-1", "n-max-0", "catalog-max-0",
        "unread-catalog-max-0"])
def test_run_suite_applies_the_clis_option_rules(selector, options, message, monkeypatch,
                                                 capsys):
    # before any catalog or DP series is built, with the message of the
    # CLI's usage error: dp-vs-oracle would otherwise run its default pairs
    _no_catalog_or_dp(monkeypatch)
    with pytest.raises(ValueError) as exc:
        run_suite(selector, **options)
    assert str(exc.value) == message
    argv = ["verify", selector] + [a for o, v in options.items()
                                   for a in (f"--{o.replace('_', '-')}", str(v))]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_run_suite_holds_catalogs_to_the_default_limit(monkeypatch):
    # as verify does without --catalog-max
    _no_catalog_or_dp(monkeypatch)
    with pytest.raises(CapacityError, match=r"^requested n up to 11 exceeds --catalog-max 10$"):
        run_suite("balanced-biclique", n_max=11)
