"""Cross-checks wiring the DP, the constructions, and the brute-force oracle.

Each check returns a CheckResult; the CLI ``verify`` subcommand and the
acceptance tests both run these.  The structural checks live here too: they
read the exhaustive DP's witness sets, which are given to them as data.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import Callable, Mapping, Sequence

from .constructions import (
    clique_product_family,
    k2t_extremal,
    k33_extremal,
    pump,
    regular_cograph,
    regular_infeasibility_reason,
    star_extremal,
)
from .cotree import (
    CapacityError,
    Cotree,
    biclique_sequence,
    canonical_form,
    check_sequence_invariants,
    clique_number,
    complement,
    degree_counts,
    height,
    is_induced_p4_free,
    make_product,
    summands,
    to_adjacency,
    to_formula,
)
from .enumerator import DEFAULT_WITNESS_LIMIT, ExtremalSeries, extremal_function
from .oracle import (
    DEFAULT_CATALOG_LIMIT,
    CheckResult,
    check_balanced_biclique,
    contains_biclique,
    enumerate_cotrees,
    extremal_bruteforce,
    random_cotree,
)
from .profile import (
    alpha_for,
    forbidden_biclique_profile,
    fulfills,
    restrict,
)

# the pairs with s >= 2 that the checks without a pair option read
S2_PAIRS = ((2, 2), (2, 3), (3, 3))
SMALL_PAIRS = ((1, 2), (1, 3), *S2_PAIRS)
# the pairs whose exhaustive witness sets the structural checks read
STRUCTURE_PAIRS = ((1, 3), *S2_PAIRS)
DEFAULT_SEED = 20240817


def verify_sequences(n_max: int) -> CheckResult:
    """Cotree sequence recursion == brute-force search, all cographs <= n_max.

    The brute-force sequences are read from each catalog's grouping by
    sequence, which the DP-against-oracle checks share.
    """
    bad = []
    total = 0
    for n in range(1, n_max + 1):
        catalog = enumerate_cotrees(n, limit=n_max)
        brute = {g: seq for seq, graphs in catalog.by_sequence for g in graphs}
        total += len(catalog)
        for g in catalog.items:
            rec = biclique_sequence(g, g.n)
            if rec != brute[g]:
                bad.append(canonical_form(g).decode("ascii"))
                continue
            try:
                check_sequence_invariants(rec)
            except ValueError as exc:
                bad.append(f"{canonical_form(g).decode('ascii')}: {exc}")
    return CheckResult("sequences", {"n_max": n_max}, not bad,
                       f"{total} cographs", bad)


def verify_fulfillment_agreement(n_max: int) -> CheckResult:
    """Profile fulfillment == absence of the biclique, by direct search."""
    bad = []
    profiles = [(s, t, forbidden_biclique_profile(s, t)) for s, t in S2_PAIRS]
    for n in range(1, n_max + 1):
        catalog = enumerate_cotrees(n, limit=n_max)
        for g, a in zip(catalog.items, catalog.adjacency):
            seq = biclique_sequence(g, g.n)
            for s, t, p in profiles:
                want = not contains_biclique(a, s, t)
                if want != fulfills(seq, p):
                    bad.append(f"({s},{t}) {canonical_form(g).decode('ascii')}")
                    break
    return CheckResult("fulfillment-agreement",
                       {"n_max": n_max, "pairs": list(map(list, S2_PAIRS))},
                       not bad, "", bad)


def _is_sum_of_cliques(g: Cotree) -> bool:
    for comp in (g.children if g.kind == "sum" else (g,)):
        if comp.kind == "leaf":
            continue
        if comp.kind != "prod" or any(c.kind != "leaf" for c in comp.children):
            return False
    return True


def _has_edge_times_cliques_shape(g: Cotree) -> bool:
    """Product of an edge with a sum of cliques (cliques themselves count)."""
    if g.kind != "prod":
        return False
    leaves = [c for c in g.children if c.kind == "leaf"]
    rest = [c for c in g.children if c.kind != "leaf"]
    if len(leaves) < 2:
        return False
    if not rest:
        return True  # a clique
    return len(rest) == 1 and _is_sum_of_cliques(rest[0])


def verify_star_extremal_regular(witnesses: Sequence[Cotree], n: int, t: int) -> CheckResult:
    """Shape of K_{1,t}-extremal cographs: (t-1)-regular, or regular plus one
    connected remainder of at most 2t-3 vertices."""
    bad = []
    even_all_regular = True
    for g in witnesses:
        # g is (t-1)-regular exactly when each of its components is
        comps = g.children if g.kind == "sum" else (g,)
        irregular = [c for c in comps if degree_counts(c) != {t - 1: c.n}]
        even_all_regular = even_all_regular and not irregular
        if len(irregular) > 1 or any(c.n > 2 * t - 3 for c in irregular):
            bad.append(canonical_form(g).decode("ascii"))
    if n % 2 == 0 and n >= t and not even_all_regular:
        bad.append(f"non-regular witness on even n={n}")
    return CheckResult("star-extremal-shape", {"n": n, "t": t}, not bad,
                       f"{len(witnesses)} extremal witnesses", bad)


def verify_universal_vertex(witnesses: Sequence[Cotree], n: int, t: int) -> CheckResult:
    """Every K_{2,t}-extremal cograph (t in {2,3}) has a universal vertex."""
    bad = [canonical_form(g).decode("ascii") for g in witnesses
           if g.n - 1 not in degree_counts(g)]
    return CheckResult("universal-vertex", {"n": n, "t": t}, not bad,
                       f"{len(witnesses)} extremal witnesses", bad)


def verify_k33_shape(witnesses: Sequence[Cotree], n: int) -> CheckResult:
    """Some K_{3,3}-extremal cograph is an edge joined to a sum of cliques."""
    shaped = [g for g in witnesses if _has_edge_times_cliques_shape(g)]
    two_universal = [g for g in witnesses
                     if degree_counts(g).get(g.n - 1, 0) >= 2]
    ok = bool(shaped) and bool(two_universal)
    return CheckResult("k33-extremal-shape", {"n": n}, ok,
                       f"{len(witnesses)} witnesses, {len(shaped)} edge-x-cliques shaped, "
                       f"{len(two_universal)} with two universal vertices",
                       [] if ok else [canonical_form(g).decode("ascii") for g in witnesses])


def _min_factor_size(comp: Cotree) -> int:
    """Smallest join-factor size of a connected cograph (1 for a vertex)."""
    if comp.kind == "leaf":
        return 1
    return min(c.n for c in comp.children)


def verify_lifting_decomposition(witnesses: Sequence[Cotree], n: int, s: int,
                                t: int) -> CheckResult:
    """Extremal witnesses decompose into products with small minimal factors.

    For each witness: every component's minimal factor size is < t; for each
    j in 1..s-1, at most one component has minimal factor size j; components
    splittable into two factors of >= s vertices each have <= 2(t-1) vertices.
    """
    bad = []
    for g in witnesses:
        comps = g.children if g.kind == "sum" else (g,)
        sigma = [_min_factor_size(c) for c in comps]
        if any(x >= t for x in sigma):
            bad.append("factor>=t: " + canonical_form(g).decode("ascii"))
            continue
        for j in range(1, s):
            if sigma.count(j) > 1:
                bad.append(f"fiber {j} repeated: " + canonical_form(g).decode("ascii"))
                break
        for c in comps:
            if c.kind != "prod":
                continue
            sizes = [ch.n for ch in c.children]
            if _balanced_split_exists(sizes, s) and c.n > 2 * (t - 1):
                bad.append("oversized product component: "
                           + canonical_form(g).decode("ascii"))
                break
    return CheckResult("lifting-decomposition", {"n": n, "s": s, "t": t}, not bad,
                       f"{len(witnesses)} extremal witnesses", bad)


def _balanced_split_exists(sizes: list[int], s: int) -> bool:
    """Can the factor sizes split into two groups of at least s vertices each?"""
    total = sum(sizes)
    if total < 2 * s:
        return False
    reachable = {0}
    for x in sizes:
        reachable |= {r + x for r in reachable}
    return any(s <= r <= total - s for r in reachable)


def verify_structure_theorems(
    n_range: range,
    w: Mapping[tuple[int, int], Mapping[int, Sequence[Cotree]]],
) -> list[CheckResult]:
    """Run the structural checks over a range of vertex counts on ``w``:
    (s, t) -> vertex count -> every K_{s,t}-extremal cograph, for each pair
    of STRUCTURE_PAIRS."""
    results: list[CheckResult] = []
    for n in n_range:
        if n >= 3:
            results.append(verify_star_extremal_regular(w[1, 3][n], n, 3))
        for t in (2, 3):
            results.append(verify_universal_vertex(w[2, t][n], n, t))
        if n >= 2:
            results.append(verify_k33_shape(w[3, 3][n], n))
        for s, t in S2_PAIRS:
            results.append(verify_lifting_decomposition(w[s, t][n], n, s, t))
    return results


def dp_series(s: int, t: int, n_max: int, exhaustive: bool = False) -> ExtremalSeries:
    """The DP's K_{s,t} series, n = 1..n_max; exhaustive witnesses are every
    K_{s,t}-extremal n-vertex cograph, as a part of one has the most edges
    over the keys at most its own, ties keep every source, and the window
    never prunes a part of a graph that fits."""
    return extremal_function(s, t, range(1, n_max + 1), exhaustive=exhaustive,
                             witness_limit=None if exhaustive else DEFAULT_WITNESS_LIMIT)


def verify_dp_vs_oracle(series: ExtremalSeries, exhaustive: ExtremalSeries) -> CheckResult:
    """A DP series' values and its exhaustive twin's witness sets == brute force."""
    s, t, n_max = series.s, series.t, max(series.values)
    p = forbidden_biclique_profile(s, t)
    bad = []
    for n in range(1, n_max + 1):
        brute, brute_witnesses = extremal_bruteforce(n, p, limit=n_max)
        if series.values.get(n) != brute:
            bad.append(f"n={n}: dp={series.values.get(n)} brute={brute}")
        if (dp_witnesses := exhaustive.witnesses.get(n, ())) != brute_witnesses:
            bad.append(f"n={n}: dp witnesses {len(dp_witnesses)} != brute {len(brute_witnesses)}")
    return CheckResult("dp-vs-oracle", {"s": s, "t": t, "n_max": n_max},
                       not bad, "", bad)


def verify_strict_bound(series: ExtremalSeries) -> CheckResult:
    """ex(n) < (s - 1 + (t-1)/2) * n at every n of a K_{s,t} series (s >= 2)."""
    if series.s < 2:
        raise ValueError("the strict bound is claimed for s >= 2 only")
    bad = [f"n={n}: ex={series.values[n]} >= {series.alpha * n}" for n in series.at_bound()]
    return CheckResult("strict-bound", {"s": series.s, "t": series.t, "n_max": max(series.values),
                                        "alpha": str(series.alpha)}, not bad, "", bad)


def verify_bound_2t(series: ExtremalSeries) -> CheckResult:
    """ex(n, K_{2,t}) < (t+1)/2 * n on a K_{2,t} series."""
    res = verify_strict_bound(series)
    res.name = "bound-2t"
    return res


def verify_restriction_transport(g2_max: int) -> CheckResult:
    """G1 x G2 fulfills p  <=>  G2 fulfills restrict(p, S(G1)), exhaustively."""
    g1_max = 3
    bad = []
    count = 0
    g1s = [g for n in range(1, g1_max + 1)
           for g in enumerate_cotrees(n).items]
    g2s = [g for n in range(1, g2_max + 1)
           for g in enumerate_cotrees(n).items]

    def seq(g):
        return biclique_sequence(g, g.n)

    # every sequence once: G1's, G2's and, per G1, each product's
    seqs1 = [seq(g1) for g1 in g1s]
    seqs2 = [seq(g2) for g2 in g2s]
    prod_seqs = [[seq(make_product([g1, g2])) for g2 in g2s] for g1 in g1s]
    for s, t in S2_PAIRS:
        p = forbidden_biclique_profile(s, t)
        for g1, s1, prods in zip(g1s, seqs1, prod_seqs):
            restricted = restrict(p, s1)
            for g2, s2, sp in zip(g2s, seqs2, prods):
                count += 1
                lhs = fulfills(sp, p)
                rhs = fulfills(s2, restricted)
                if lhs != rhs:
                    bad.append(f"({s},{t}) {to_formula(g1)} x {to_formula(g2)}: "
                               f"product={lhs} restricted={rhs}")
    return CheckResult("restriction-transport",
                       {"g1_max": g1_max, "g2_max": g2_max}, not bad,
                       f"{count} combinations", bad)


def verify_regular_constructor(exhaustive_max: int) -> CheckResult:
    """Regularity of every feasible output; feasibility table matches
    exhaustive search for small n.  The table is included in the detail."""
    n_max = 40
    bad = []
    feasibility: dict[int, list[int]] = {}
    for n in range(1, n_max + 1):
        feasible_ds = []
        for d in range(n):
            g = regular_cograph(n, d)
            if g is None:
                if regular_infeasibility_reason(n, d) is None:
                    bad.append(f"({n},{d}): no reason but returned infeasible")
                continue
            feasible_ds.append(d)
            if degree_counts(g) != {d: n}:
                bad.append(f"({n},{d}): output not {d}-regular")
            if n <= 9 and not is_induced_p4_free(to_adjacency(g)):
                bad.append(f"({n},{d}): expansion not a cograph")
        feasibility[n] = feasible_ds
    for n in range(1, exhaustive_max + 1):
        found = set()
        for a in enumerate_cotrees(n, limit=exhaustive_max).adjacency:
            degs = set(a.degree_sequence())
            if len(degs) == 1:
                found.add(next(iter(degs)))
        if sorted(found) != feasibility[n]:
            bad.append(f"n={n}: constructor degrees {feasibility[n]} "
                       f"!= exhaustive {sorted(found)}")
    table = "; ".join(f"{n}:{ds}" for n, ds in feasibility.items() if n <= 12)
    return CheckResult("regular-constructor",
                       {"n_max": n_max, "exhaustive_max": exhaustive_max},
                       not bad, f"feasible degrees {table} ...", bad)


def verify_pareto_safety(series: Sequence[tuple[ExtremalSeries, ExtremalSeries]]) -> CheckResult:
    """Each (Pareto-filtered, exhaustive) DP pair agrees on every extremal value."""
    bad = []
    n_max = max(n for filtered, _ in series for n in filtered.values)
    for filtered, full in series:
        for n in range(1, n_max + 1):
            if filtered.values.get(n) != full.values.get(n):
                bad.append(f"({filtered.s},{filtered.t}) n={n}: filtered="
                           f"{filtered.values.get(n)} exhaustive={full.values.get(n)}")
    return CheckResult("pareto-safety",
                       {"n_max": n_max, "pairs": [[f.s, f.t] for f, _ in series]},
                       not bad, "", bad)


def verify_constructions_meet_optimum(n_max: int) -> CheckResult:
    """star/k2t/k33 families have n vertices, reach the brute-force optimum
    and avoid their K_{s,t} at every n."""
    bad = []
    profiles = {(s, t): forbidden_biclique_profile(s, t) for s, t in SMALL_PAIRS}
    for n in range(1, n_max + 1):
        # (s, t, name, builder, its arguments); k2t and k33 start at n = 2
        cases = [(1, t, f"star({t},{n})", star_extremal, (t, n)) for t in (2, 3)]
        if n >= 2:
            cases += [(2, t, f"k2t({t},{n})", k2t_extremal, (t, n)) for t in (2, 3)]
            cases.append((3, 3, f"k33({n})", k33_extremal, (n,)))
        for s, t, name, build, args in cases:
            profile = profiles[s, t]
            want, _ = extremal_bruteforce(n, profile, limit=n_max)
            g = build(*args)
            if (g.edges != want or g.n != n
                    or not fulfills(biclique_sequence(g, g.n), profile)):
                bad.append(f"{name}: {g.edges} != {want}")
    return CheckResult("constructions-optimum", {"n_max": n_max}, not bad, "", bad)


def verify_clique_product_formula() -> CheckResult:
    """Closed-form edge count of the K_{s-1} x (r K_t) family, exactly."""
    max_r = 6
    bad = []
    for s, t in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 5)):
        profile = forbidden_biclique_profile(s, t)
        for r in range(0, max_r + 1):
            g = clique_product_family(s, t, r)
            nv = s - 1 + r * t
            expected = Fraction((s - 1) * (s - 2), 2) \
                + alpha_for(s, t) * (nv - s + 1)
            if g.n != nv or Fraction(g.edges) != expected:
                bad.append(f"({s},{t},{r}): n={g.n} edges={g.edges} expected {expected}")
            if not fulfills(biclique_sequence(g, g.n), profile):
                bad.append(f"({s},{t},{r}): family not K_{{{s},{t}}}-free")
    return CheckResult("clique-product-formula", {"max_r": max_r}, not bad, "", bad)


def verify_pump_invariants(seed: int, trials: int) -> CheckResult:
    """Pumping arithmetic and profile stability on random small cores.

    Vertex/edge growth follows |g| + k|H| and ||g|| + k(||H|| + |H| w) with
    w the summand's outside neighborhood; pumping a summand whose outside
    neighborhood has fewer than s vertices preserves K_{s,t}-freeness.
    Each trial computes g's sequence once, and the pumped graph's only when
    g fulfills a profile whose s exceeds w.
    """
    rng = random.Random(seed)
    profiles = [(s, t, forbidden_biclique_profile(s, t)) for s, t in S2_PAIRS]
    bad = []
    tried = 0
    while tried < trials:
        g = random_cotree(rng, rng.randint(3, 9))
        paths = list(summands(g))
        if not paths:
            continue
        tried += 1
        path, child, _, w = paths[rng.randrange(len(paths))]
        k = rng.randint(1, 2)
        pumped = pump(g, path, k)
        if pumped.n != g.n + k * child.n:
            bad.append(f"vertex growth {to_formula(g)} at {path}")
            continue
        if pumped.edges != g.edges + k * (child.edges + child.n * w):
            bad.append(f"edge growth {to_formula(g)} at {path}")
            continue
        seq = biclique_sequence(g, g.n)
        kept = [(s, t, p) for s, t, p in profiles if w < s and fulfills(seq, p)]
        if kept:
            seq = biclique_sequence(pumped, pumped.n)
            bad += [f"({s},{t}) fulfillment lost: {to_formula(g)} at {path}"
                    for s, t, p in kept if not fulfills(seq, p)]
    return CheckResult("pump-invariants", {"seed": seed, "trials": trials},
                       not bad, f"{tried} pumps", bad)


def verify_height_bound(n_max: int) -> CheckResult:
    """height(g) <= 2 * clique_number(g) + 1, exhaustive then randomized."""
    trials = 200
    bad = []
    for n in range(1, n_max + 1):
        for g in enumerate_cotrees(n).items:
            if height(g) > 2 * clique_number(g) + 1:
                bad.append(canonical_form(g).decode("ascii"))
    rng = random.Random(7)
    for _ in range(trials):
        g = random_cotree(rng, rng.randint(1, 14))
        if height(g) > 2 * clique_number(g) + 1:
            bad.append(canonical_form(g).decode("ascii"))
    return CheckResult("height-bound", {"n_max": n_max, "trials": trials},
                       not bad, "", bad)


def verify_complement_involution(n_max: int) -> CheckResult:
    """complement is an involution and edge counts are complementary."""
    bad = []
    for n in range(1, n_max + 1):
        for g in enumerate_cotrees(n).items:
            c = complement(g)
            if complement(c) != g or g.edges + c.edges != n * (n - 1) // 2:
                bad.append(canonical_form(g).decode("ascii"))
    return CheckResult("complement-involution", {"n_max": n_max}, not bad, "", bad)


# The verify selectors in the order ``all`` runs them (``all`` leaves out
# bound-2t): selector -> (runner, the options of n_max, s, t, seed and
# catalog_max that it reads, its default size (pump's: its trials)).  Its
# size is --n-max if it reads it, else its default; a selector reads
# catalog_max iff its size is an oracle catalog.  A runner takes
# run_suite's keyword arguments, with ``size`` that size and ``dp`` a memo of
# dp_series, and returns its checks.  run_suite holds the catalog sizes to
# catalog_max before any runner starts, so a runner's own catalog limit is
# its size.
SELECTORS: dict[str, tuple[Callable[..., list[CheckResult]], tuple[str, ...], int]] = {
    "balanced-biclique": (lambda size, **_: [
        check_balanced_biclique(k, limit=size) for k in range(2, size + 1)],
        ("n_max", "catalog_max"), 9),
    "sequences": (lambda size, **_: [verify_sequences(size)], ("n_max", "catalog_max"), 7),
    "profiles": (lambda size, **_: [verify_fulfillment_agreement(size)],
                 ("n_max", "catalog_max"), 7),
    "dp-vs-oracle": (lambda dp, s, t, size, **_: [
        verify_dp_vs_oracle(dp(ss, tt, size), dp(ss, tt, size, True))
        for ss, tt in ([(s, t)] if s is not None else SMALL_PAIRS)],
        ("n_max", "s", "t", "catalog_max"), 8),
    "bound-2t": (lambda dp, t, size, **_: [verify_bound_2t(dp(2, 3 if t is None else t, size))],
                 ("n_max", "t"), 20),
    "bounds": (lambda dp, size, **_: [verify_strict_bound(dp(s, t, size)) for s, t in S2_PAIRS],
               ("n_max",), 30),
    "structure": (lambda dp, size, **_: verify_structure_theorems(
        range(2, size + 1), {st: dp(*st, size, True).witnesses for st in STRUCTURE_PAIRS}),
        ("n_max",), 8),
    "restriction": (lambda size, **_: [verify_restriction_transport(size)],
                    ("catalog_max",), 5),
    "regular": (lambda size, **_: [verify_regular_constructor(size)], ("catalog_max",), 9),
    "pareto": (lambda dp, size, **_: [verify_pareto_safety(
        [(dp(s, t, size), dp(s, t, size, True)) for s, t in SMALL_PAIRS])], ("n_max",), 8),
    "constructions": (lambda size, **_: [
        verify_constructions_meet_optimum(size), verify_clique_product_formula()],
        ("catalog_max",), 9),
    "pump": (lambda seed, size, **_: [verify_pump_invariants(seed, size)],
             ("seed",), 120),
    "invariants": (lambda size, **_: [
        verify_height_bound(size), verify_complement_involution(size)], ("catalog_max",), 7),
}

ALL = tuple(k for k in SELECTORS if k != "bound-2t")


def options_read(which: str) -> set[str]:
    """The options that selector ``which``, or any selector ``all`` runs, reads."""
    return {o for k in (ALL if which == "all" else [which]) for o in SELECTORS[k][1]}


def check_options(which: str, *, n_max: int | None = None, s: int | None = None,
                  t: int | None = None, seed: int | None = None,
                  catalog_max: int | None = None) -> None:
    """Raise ValueError at the first rule that the options of selector
    ``which`` break, in this order: an --n-max or --catalog-max below 1; a
    given option (one that is not None) that it, or every selector
    ``all`` runs, does not read; half a --s/--t pair; a pair outside
    1 <= s <= t; a bound-2t --t below 2."""
    for o, v in (("n_max", n_max), ("catalog_max", catalog_max)):
        if v is not None and v < 1:
            raise ValueError(f"--{o.replace('_', '-')} must be >= 1")
    reads = options_read(which)
    for o, v in (("n_max", n_max), ("s", s), ("t", t), ("seed", seed),
                 ("catalog_max", catalog_max)):
        if v is not None and o not in reads:
            raise ValueError(f"verify {which} does not read --{o.replace('_', '-')}")
    # dp-vs-oracle would otherwise drop the one given for its default pairs
    if "s" in reads and (s is None) != (t is None):
        raise ValueError(f"verify {which} needs both --s and --t, or neither")
    if s is not None:
        forbidden_biclique_profile(s, t)  # raises outside 1 <= s <= t
    if which == "bound-2t" and t is not None and t < 2:
        raise ValueError("verify bound-2t needs --t >= 2")


def run_suite(
    which: str = "all",
    *,
    seed: int | None = None,
    n_max: int | None = None,
    s: int | None = None,
    t: int | None = None,
    catalog_max: int | None = None,
) -> dict:
    """Dispatch for the CLI verify subcommand; returns a JSON-ready report.

    The options break no rule of ``check_options``, which runs before any
    catalog or DP series is built.  The seed defaults to DEFAULT_SEED and
    catalog_max, where a selector reads it, to DEFAULT_CATALOG_LIMIT.  A
    selector that yields no check, as under an --n-max below its range,
    raises ValueError, also inside ``all``."""
    check_options(which, n_max=n_max, s=s, t=t, seed=seed, catalog_max=catalog_max)
    selected = ALL if which == "all" else [which]
    sizes = {k: n_max if n_max is not None and "n_max" in SELECTORS[k][1] else SELECTORS[k][2]
             for k in selected}
    catalog = max((sizes[k] for k in selected if "catalog_max" in SELECTORS[k][1]), default=0)
    limit = DEFAULT_CATALOG_LIMIT if catalog_max is None else catalog_max
    if catalog > limit:
        raise CapacityError(f"requested n up to {catalog} exceeds --catalog-max {limit}")

    dp = cache(dp_series)  # one build per series and call, shared: runners only read it
    results = []
    for k in selected:
        checks = SELECTORS[k][0](
            seed=DEFAULT_SEED if seed is None else seed, s=s, t=t, size=sizes[k], dp=dp)
        if not checks:  # only a given --n-max is below 2
            raise ValueError(f"no {k} checks for --n-max {n_max}: its range starts at n = 2")
        results += checks
    return {
        "selector": which,
        "passed": all(r.passed for r in results),
        "checks": [r.to_json() for r in results],
    }
