"""Brute-force ground truth at small vertex counts.

Everything the dynamic program or the constructions claim is re-derivable
here by exhaustion: the catalog of all unlabeled cographs up to the size
limit, biclique containment by common-neighborhood search on the dense
expansion, extremal values by scanning the catalog, and the balanced
biclique check, a search over the catalog.  The checks on the DP's witness
sets live in ``cogex.verification``.

The catalog is built directly by root kind: a sum-rooted tree is a sum
over two or more parts that are K_1 or product-rooted, and a
product-rooted tree, a connected cograph, is a product over two or more
parts that are K_1 or sum-rooted.  Each n has one catalog, built on first
use and kept for the process.  It carries two things, each built on first
read: the dense expansion of each of its graphs, which every check shares,
and its graphs grouped by brute-force sequence.

Biclique sequences count every vertex set at once.  Each vertex's row
becomes a 2^n-bit integer whose bit S is set iff the set S lies inside
that vertex's neighborhood; these add up, bit-sliced, to the size of every
set's common neighborhood, and entry k is the largest count among the
k-sets.  A sequence is the same entries tuple that ``cotree.biclique_sequence``
returns, so the two compare directly.  Extremal values read the catalog's
grouping by sequence, so each distinct sequence is tested against a profile
once rather than each graph.

The biclique computations here deliberately avoid the cotree recursion:
they work on adjacency bitmasks only, so they can serve as an independent
oracle for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

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
    cographs, in canonical order, with the dense expansion of each and the
    items grouped by brute-force sequence."""
    n: int
    items: tuple[Cotree, ...]

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def adjacency(self) -> tuple[AdjacencyGraph, ...]:
        """``to_adjacency`` of each item, in item order; built on first read."""
        return tuple(to_adjacency(g) for g in self.items)

    @cached_property
    def by_sequence(self) -> tuple[tuple[Entries, tuple[Cotree, ...]], ...]:
        """The items grouped by brute-force sequence at cap n, one (sequence,
        graphs) pair per distinct sequence; built on first read."""
        groups: dict[Entries, list[Cotree]] = {}
        for g, a in zip(self.items, self.adjacency):
            groups.setdefault(biclique_sequence_bruteforce(a, self.n), []).append(g)
        return tuple((seq, tuple(graphs)) for seq, graphs in groups.items())


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


def extremal_bruteforce(
    n: int,
    p: BicliqueProfile,
    limit: int = DEFAULT_CATALOG_LIMIT,
) -> tuple[int, tuple[Cotree, ...]]:
    """Max edge count and all witnesses among n-vertex cographs fulfilling p.

    Fulfillment is decided once per distinct brute-force sequence of the
    catalog (``CographCatalog.by_sequence``), not once per graph.
    """
    best = -1
    witnesses: list[Cotree] = []
    for seq, graphs in enumerate_cotrees(n, limit).by_sequence:
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
# Check results, and the balanced biclique check on the catalog
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
