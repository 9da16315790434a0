"""Brute-force ground truth at small vertex counts.

Everything the dynamic program or the constructions claim is re-derivable
here by exhaustion: the catalog of all unlabeled cographs up to the size
limit, biclique containment by common-neighborhood search on the dense
expansion, extremal values by scanning the catalog, and the structural
spot checks used by the verification suite, on the witnesses they are given.

The catalog is built directly by root kind: a sum-rooted tree is a sum
over two or more parts that are K_1 or product-rooted, and a
product-rooted tree, a connected cograph, is a product over two or more
parts that are K_1 or sum-rooted.  Each n has one catalog, built on first
use and kept for the process, and it carries the dense expansion of each
of its graphs, built on first read, so every check shares one expansion
per graph.

Biclique sequences count every vertex set at once.  Each vertex's row
becomes a 2^n-bit integer whose bit S is set iff the set S lies inside
that vertex's neighborhood; these add up, bit-sliced, to the size of every
set's common neighborhood, and entry k is the largest count among the
k-sets.  A sequence is the same entries tuple that ``cotree.biclique_sequence``
returns, so the two compare directly.  Extremal values read a per-n table,
built on first use and kept for the process, that groups the catalog by
brute-force sequence, so each distinct sequence is tested against a profile
once rather than each graph.

The biclique computations here deliberately avoid the cotree recursion:
they work on adjacency bitmasks only, so they can serve as an independent
oracle for it.  The structural spot checks read degrees from the cotree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Mapping, Sequence

from .cotree import (
    DEFAULT_ADJACENCY_LIMIT,
    PROD,
    SUM,
    AdjacencyGraph,
    CapacityError,
    Cotree,
    Entries,
    _node,
    canonical_form,
    degree_counts,
    make_leaf,
    make_product,
    make_sum,
    to_adjacency,
)
from .profile import BicliqueProfile, fulfills

DEFAULT_CATALOG_LIMIT = 10


# =============================================================================
# Unlabeled cograph catalog
# =============================================================================

@dataclass(frozen=True)
class CographCatalog:
    """One reduced canonical cotree per isomorphism class of n-vertex
    cographs, in canonical order, with the dense expansion of each."""
    n: int
    items: tuple[Cotree, ...]

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def adjacency(self) -> tuple[AdjacencyGraph, ...]:
        """``to_adjacency`` of each item, in item order; built on first read."""
        return tuple(to_adjacency(g) for g in self.items)


@lru_cache(maxsize=None)
def _rooted_cotrees(n: int, kind: str) -> tuple[Cotree, ...]:
    """All reduced cotrees on n leaves that are K_1 (n = 1) or ``kind``-rooted,
    sorted: a ``kind`` node over each multiset of parts that are K_1 or rooted
    at the other kind.  Connected cographs are the product-rooted trees."""
    if n == 1:
        return (make_leaf(),)
    # parts of at most n - 1 leaves, so every multiset has two or more
    return tuple(sorted(_node(kind, list(parts))
                        for parts in _part_multisets(n, n - 1, None, kind)))


def _part_multisets(n_left: int, size_cap: int, idx_cap: int | None, avoid: str):
    """Multisets of cotrees that are K_1 or not ``avoid``-rooted, with sizes
    summing to n_left.

    Parts are emitted in nonincreasing (size, catalog index) order, so each
    multiset appears exactly once.
    """
    if n_left == 0:
        yield ()
        return
    for size in range(min(size_cap, n_left), 0, -1):
        options = _rooted_cotrees(size, PROD if avoid == SUM else SUM)
        start = idx_cap if (idx_cap is not None and size == size_cap) else len(options) - 1
        for i in range(start, -1, -1):
            for rest in _part_multisets(n_left - size, size, i, avoid):
                yield (options[i],) + rest


def _check_catalog_size(n: int, limit: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > limit:
        raise CapacityError(f"catalog for n={n} exceeds limit {limit}")


@lru_cache(maxsize=None)
def _catalog(n: int) -> CographCatalog:
    items = (make_leaf(),) if n == 1 else tuple(sorted(
        _rooted_cotrees(n, SUM) + _rooted_cotrees(n, PROD)))
    return CographCatalog(n, items)


def enumerate_cotrees(n: int, limit: int = DEFAULT_CATALOG_LIMIT) -> CographCatalog:
    """One reduced canonical cotree per isomorphism class of n-vertex cographs:
    the one catalog of n, built on first use and kept for the process."""
    _check_catalog_size(n, limit)
    return _catalog(n)


def connected_cotrees(n: int, limit: int = DEFAULT_CATALOG_LIMIT) -> tuple[Cotree, ...]:
    """All connected unlabeled cographs on n vertices."""
    _check_catalog_size(n, limit)
    return _rooted_cotrees(n, PROD)


def random_cotree(rng: random.Random, n: int) -> Cotree:
    """A random reduced cotree on n leaves (not uniform over classes)."""
    def build(k: int, forbid: str | None) -> Cotree:
        if k == 1:
            return make_leaf()
        kind = rng.choice([x for x in ("sum", "prod") if x != forbid])
        pieces = []
        left = k
        while left > 0:
            size = rng.randint(1, left) if len(pieces) >= 1 else rng.randint(1, left - 1)
            pieces.append(size)
            left -= size
        # the first piece leaves at least one vertex, so there are two or more
        kids = [build(sz, kind) for sz in pieces]
        return (make_sum if kind == "sum" else make_product)(kids)

    return build(n, None)


# =============================================================================
# Biclique containment and sequences, on adjacency bitmasks
# =============================================================================

def contains_biclique(a: AdjacencyGraph, s: int, t: int) -> bool:
    """True iff some s-set has at least t common neighbors outside itself."""
    if s < 1 or t < 1:
        raise ValueError("parts must be >= 1")
    if a.n < s + t:
        return False
    full = (1 << a.n) - 1
    for subset in combinations(range(a.n), s):
        common = full
        picked = 0
        for v in subset:
            common &= a.rows[v]
            picked |= 1 << v
        if (common & ~picked).bit_count() >= t:
            return True
    return False


@lru_cache(maxsize=None)
def _k_set_masks(n: int) -> tuple[int, ...]:
    """For k = 0..n, the 2^n-bit integer whose bit S is set iff the vertex
    set S has k members.  Built on first use for each n."""
    if n == 0:
        return (1,)
    below = _k_set_masks(n - 1) + (0,)
    shift = 1 << (n - 1)
    return (1, *(below[k] | below[k - 1] << shift for k in range(1, n + 1)))


def biclique_sequence_bruteforce(a: AdjacencyGraph, cap: int) -> Entries:
    """Entries 0..min(n, cap) of the biclique sequence, counted for every
    vertex set at once.

    Bit S of a vertex's inside-mask is set iff the set S lies inside the
    vertex's row.  Adding the masks of all vertices into bit-planes (plane b
    holds bit b of every set's count, kept by a ripple carry) gives the size
    of every set's common neighborhood.  Rows are loop-free, so a nonempty
    set never meets its own common neighborhood.  Entry k is the largest
    count among the k-sets, read from the top plane down.  Graphs above
    ``DEFAULT_ADJACENCY_LIMIT`` vertices are a CapacityError.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if a.n > DEFAULT_ADJACENCY_LIMIT:
        raise CapacityError(f"brute-force sequence of {a.n} vertices exceeds "
                            f"limit {DEFAULT_ADJACENCY_LIMIT}")
    planes = [0] * a.n.bit_length()
    for row in a.rows:
        inside = 1
        while row:
            low = row & -row
            inside |= inside << (1 << (low.bit_length() - 1))
            row ^= low
        for b, plane in enumerate(planes):
            planes[b] = plane ^ inside
            inside &= plane
            if not inside:
                break
    masks = _k_set_masks(a.n)
    best = []
    for k in range(1, min(cap, a.n) + 1):
        sets, count = masks[k], 0
        for b in range(len(planes) - 1, -1, -1):
            if hit := sets & planes[b]:
                sets = hit
                count |= 1 << b
        best.append(count)
    return (a.n, *best)


@lru_cache(maxsize=None)
def _sequence_table(n: int) -> tuple[tuple[Entries, tuple[Cotree, ...]], ...]:
    """The n-vertex catalog grouped by brute-force sequence, one (sequence,
    graphs) pair per distinct sequence.  Built on first use; callers check
    their catalog limit before asking."""
    groups: dict[Entries, list[Cotree]] = {}
    catalog = enumerate_cotrees(n, limit=n)
    for g, a in zip(catalog.items, catalog.adjacency):
        groups.setdefault(biclique_sequence_bruteforce(a, n), []).append(g)
    return tuple((seq, tuple(graphs)) for seq, graphs in groups.items())


def extremal_bruteforce(
    n: int,
    p: BicliqueProfile,
    limit: int = DEFAULT_CATALOG_LIMIT,
) -> tuple[int, tuple[Cotree, ...]]:
    """Max edge count and all witnesses among n-vertex cographs fulfilling p.

    Fulfillment is decided once per distinct brute-force sequence of the
    catalog (``_sequence_table``), not once per graph.
    """
    _check_catalog_size(n, limit)
    best = -1
    witnesses: list[Cotree] = []
    for seq, graphs in _sequence_table(n):
        if not fulfills(seq, p):
            continue
        for g in graphs:
            if g.edges > best:
                best = g.edges
                witnesses = [g]
            elif g.edges == best:
                witnesses.append(g)
    if best < 0:
        return -1, ()
    return best, tuple(sorted(witnesses))


# =============================================================================
# Theorem spot checks
# =============================================================================

@dataclass
class CheckResult:
    name: str
    params: dict
    passed: bool
    detail: str = ""
    counterexamples: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "params": self.params,
            "passed": self.passed,
            "detail": self.detail,
            "counterexamples": self.counterexamples,
        }


def check_balanced_biclique(n: int, limit: int = DEFAULT_CATALOG_LIMIT) -> CheckResult:
    """Every n-vertex cograph or its complement contains K_{t,t}, t = n//6 + 1.

    Degenerate at n = 1: the single vertex has no K_{1,1} on either side.
    """
    t = n // 6 + 1
    bad = []
    catalog = enumerate_cotrees(n, limit=limit)
    for g, a in zip(catalog.items, catalog.adjacency):
        if not (contains_biclique(a, t, t) or contains_biclique(a.complement(), t, t)):
            bad.append(canonical_form(g).decode("ascii"))
    return CheckResult(
        name="balanced-biclique",
        params={"n": n, "t": t},
        passed=not bad,
        detail=f"checked {len(catalog)} cographs",
        counterexamples=bad,
    )


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


def check_star_extremal_regular(witnesses: Sequence[Cotree], n: int, t: int) -> CheckResult:
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
    return CheckResult(
        name="star-extremal-shape",
        params={"n": n, "t": t},
        passed=not bad,
        detail=f"{len(witnesses)} extremal witnesses",
        counterexamples=bad,
    )


def check_universal_vertex(witnesses: Sequence[Cotree], n: int, t: int) -> CheckResult:
    """Every K_{2,t}-extremal cograph (t in {2,3}) has a universal vertex."""
    bad = [canonical_form(g).decode("ascii") for g in witnesses
           if g.n - 1 not in degree_counts(g)]
    return CheckResult(
        name="universal-vertex",
        params={"n": n, "t": t},
        passed=not bad,
        detail=f"{len(witnesses)} extremal witnesses",
        counterexamples=bad,
    )


def check_k33_shape(witnesses: Sequence[Cotree], n: int) -> CheckResult:
    """Some K_{3,3}-extremal cograph is an edge joined to a sum of cliques."""
    shaped = [g for g in witnesses if _has_edge_times_cliques_shape(g)]
    two_universal = [g for g in witnesses
                     if degree_counts(g).get(g.n - 1, 0) >= 2]
    ok = bool(shaped) and bool(two_universal)
    return CheckResult(
        name="k33-extremal-shape",
        params={"n": n},
        passed=ok,
        detail=(f"{len(witnesses)} witnesses, {len(shaped)} edge-x-cliques shaped, "
                f"{len(two_universal)} with two universal vertices"),
        counterexamples=[] if ok else [canonical_form(g).decode("ascii") for g in witnesses],
    )


def _min_factor_size(comp: Cotree) -> int:
    """Smallest join-factor size of a connected cograph (1 for a vertex)."""
    if comp.kind == "leaf":
        return 1
    return min(c.n for c in comp.children)


def check_lifting_decomposition(witnesses: Sequence[Cotree], n: int, s: int,
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
    return CheckResult(
        name="lifting-decomposition",
        params={"n": n, "s": s, "t": t},
        passed=not bad,
        detail=f"{len(witnesses)} extremal witnesses",
        counterexamples=bad,
    )


def _balanced_split_exists(sizes: list[int], s: int) -> bool:
    """Can the factor sizes split into two groups of at least s vertices each?"""
    total = sum(sizes)
    if total < 2 * s:
        return False
    reachable = {0}
    for x in sizes:
        reachable |= {r + x for r in reachable}
    return any(s <= r <= total - s for r in reachable)


def check_structure_theorems(
    n_range: range,
    witnesses: Callable[[int, int], Mapping[int, Sequence[Cotree]]],
) -> list[CheckResult]:
    """Run the structural checks over a range of vertex counts on
    ``witnesses(s, t)``: vertex count -> every K_{s,t}-extremal cograph."""
    w = {st: witnesses(*st) for st in ((1, 3), (2, 2), (2, 3), (3, 3))}
    results: list[CheckResult] = []
    for n in n_range:
        if n >= 3:
            results.append(check_star_extremal_regular(w[1, 3][n], n, 3))
        for t in (2, 3):
            results.append(check_universal_vertex(w[2, t][n], n, t))
        if n >= 2:
            results.append(check_k33_shape(w[3, 3][n], n))
        for s, t in ((2, 2), (2, 3), (3, 3)):
            results.append(check_lifting_decomposition(w[s, t][n], n, s, t))
    return results
