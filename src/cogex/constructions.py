"""Explicit cograph families and transformations.

Pumping replicates a summand (every copy automatically inherits the
original's outside neighborhood, since all vertices under a sum node share
it).  The regular constructor realizes every feasible (n, d) pair by a loop
that peels off cliques, complements and the complete multipartite block
H_d.  The K_{2,t}, K_{3,3} and clique-product families have one shape,
built by ``_clique_join``: the paper's core K_{s-1} joined to copies of its
(t-1)-regular pumping component K_t, plus a smaller clique for the
remainder.  The star family searches the oracle's catalog where no
regular cograph exists.  The subsequence utility extracts a
zero-sum-mod-n subsequence by prefix-sum pigeonhole.
"""

from __future__ import annotations

from typing import Sequence

from .cotree import (
    SUM,
    Cotree,
    clique,
    complement,
    edgeless,
    make_product,
    make_sum,
    max_degree,
    summands,
)

ChildPath = Sequence[int]


# =============================================================================
# Pumping
# =============================================================================

def pump(g: Cotree, at: ChildPath, k: int) -> Cotree:
    """Add k extra copies of the summand reached by the child-index path.

    ``at`` walks from the root through canonical child order; its last step
    must land on a child of a sum node.  k = 0 returns the input.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not at:
        raise ValueError("path must select a child, not the root")
    trail: list[Cotree] = []
    node = g
    for idx in at:
        if node.kind == "leaf" or not 0 <= idx < len(node.children):
            raise ValueError(f"path {list(at)} does not resolve in the tree")
        trail.append(node)
        node = node.children[idx]
    parent = trail[-1]
    if parent.kind != SUM:
        raise ValueError("path must end at a child of a sum node")
    if k == 0:
        return g
    current = make_sum(parent.children + (node,) * k)
    for ancestor, idx in zip(reversed(trail[:-1]), reversed(list(at)[:-1])):
        kids = list(ancestor.children)
        kids[idx] = current
        current = make_sum(kids) if ancestor.kind == SUM else make_product(kids)
    return current


def pump_subset(g: Cotree, leaf_ids: Sequence[int], k: int) -> Cotree:
    """Pump an explicit vertex subset, given as leaf ids in DFS order over
    the canonical tree, that is exactly the leaf set of some summand.  The
    leaves of a summand share their outside neighborhood, so any other
    subset is rejected; no dense expansion, so any size works."""
    subset = 0
    for i in leaf_ids:
        if not 0 <= i < g.n:
            raise ValueError(f"leaf id {i} out of range for n={g.n}")
        subset |= 1 << i
    if subset == 0:
        raise ValueError("empty subset")
    for path, c, first, _ in summands(g):
        if ((1 << c.n) - 1) << first == subset:
            return pump(g, path, k)
    raise ValueError("subset is not a summand of the cotree")


# =============================================================================
# Regular cographs
# =============================================================================

def regular_infeasibility_reason(n: int, d: int) -> str | None:
    """Why no d-regular cograph on n vertices exists, or None if one does."""
    if n % 2 == 1 and d % 2 == 1:
        return "odd degree sum: n and d both odd"
    # n = 1 escapes the pattern: the single vertex is 0-regular
    if n % 2 == 1 and n > 1 and 2 * d == n - 1:
        return "2d = n-1 excluded for odd n"
    return None


def regular_cograph(n: int, d: int) -> Cotree | None:
    """A d-regular cograph on n vertices, or None when infeasible.

    Feasible for every even n; for odd n exactly when d is even and
    2d != n-1.
    """
    if n < 1 or d < 0 or d >= n:
        raise ValueError(f"need n >= 1 and 0 <= d < n, got ({n}, {d})")
    if regular_infeasibility_reason(n, d) is not None:
        return None
    return _regular(n, d)


def _regular(n: int, d: int) -> Cotree:
    # peel K_{d+1} parts off until a clique or an edgeless graph is left;
    # when 2d >= n, build the complement (degree n - 1 - d) one layer down
    layers: list[list[Cotree]] = [[]]
    while 0 < d < n - 1:
        if 2 * d >= n:
            layers.append([])
            d = n - 1 - d
        elif d % 2 == 0 and n % 2 == 0 and 3 * d == n - 2:
            # K_{d+1} would leave an excluded odd remainder; use the d-regular
            # complete multipartite block on d + 2 vertices instead
            layers[-1].append(make_product([edgeless(2) for _ in range(d // 2 + 1)]))
            n = 2 * d
        else:
            layers[-1].append(clique(d + 1))
            n -= d + 1
    g = make_sum(layers.pop() + [edgeless(n) if d == 0 else clique(n)])
    for parts in reversed(layers):
        g = make_sum(parts + [complement(g)])
    return g


# =============================================================================
# Extremal families
# =============================================================================

def clique_product_family(s: int, t: int, r: int) -> Cotree:
    """K_{s-1} joined to r disjoint copies of K_t.

    The generic lower-bound family: K_{s,t}-free with edge count
    C(s-1, 2) + (s - 1 + (t-1)/2) * r * t.
    """
    if s < 1 or t < s or r < 0:
        raise ValueError(f"need 1 <= s <= t and r >= 0, got ({s}, {t}, {r})")
    if s == 1 and r == 0:
        raise ValueError("empty graph: s = 1 with r = 0")
    return _clique_join(s - 1, t, r * t)


def _clique_join(c: int, t: int, m: int) -> Cotree:
    """K_c joined to m // t disjoint copies of K_t plus a clique on m % t
    vertices; the sum alone when c = 0, and K_c alone when m = 0."""
    parts = [clique(t)] * (m // t)
    if m % t:
        parts.append(clique(m % t))
    if not parts:
        return clique(c)
    return make_product([clique(c), make_sum(parts)]) if c else make_sum(parts)


def star_extremal(t: int, n: int) -> Cotree:
    """An edge-maximal cograph on n vertices with maximum degree below t.

    A clique when n < t, a (t-1)-regular cograph when one exists, and
    otherwise a (t-1)-regular part plus the best connected remainder of at
    most 2t-3 vertices, found by exhaustive search over the oracle's
    catalog; a remainder past 12 vertices raises CapacityError.
    """
    if t < 2 or n < 1:
        raise ValueError(f"need t >= 2 and n >= 1, got ({t}, {n})")
    if n < t:
        return clique(n)
    g = regular_cograph(n, t - 1)
    if g is not None:
        return g

    from .oracle import connected_cotrees

    best: tuple[int, bytes, Cotree] | None = None
    # largest remainder first, so a catalog past the limit fails before any search
    for r in range(min(n, 2 * t - 3), 0, -1):
        rest = n - r
        regular_part = None
        if rest > 0:
            if t - 1 >= rest:
                continue
            regular_part = regular_cograph(rest, t - 1)
            if regular_part is None:
                continue
        for comp in connected_cotrees(r, limit=12):
            if max_degree(comp) > t - 1:
                continue
            total = comp if regular_part is None else make_sum([regular_part, comp])
            entry = (-total.edges, total._canon, total)
            if best is None or entry < best:
                best = entry
    if best is None:
        raise ValueError(f"no max-degree-{t - 1} cograph shape found for n={n}")
    return best[2]


def k2t_extremal(t: int, n: int) -> Cotree:
    """An edge-maximal K_{2,t}-free cograph for t in {2, 3}: a universal
    vertex joined to disjoint copies of K_t plus a remainder clique.

    The inner graph must keep max degree below t and pairwise common
    neighborhoods below t - 1 (the join contributes one shared neighbor to
    every pair): a matching for t = 2, and for t = 3 a packing of triangles
    rather than anything containing a four-cycle.
    """
    if t not in (2, 3):
        raise ValueError(
            f"unsupported t={t}: only t in {{2, 3}} have the universal-vertex form")
    if n < 2:
        raise ValueError("need n >= 2")
    return _clique_join(1, t, n - 1)


def k33_extremal(n: int) -> Cotree:
    """An edge-maximal K_{3,3}-free cograph: an edge joined to a sum of
    triangles plus one clique on (n-2) mod 3 vertices."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _clique_join(2, 3, n - 2)


# =============================================================================
# Zero-sum subsequences
# =============================================================================

def davenport_subsequence(values: Sequence[int], n: int) -> list[int]:
    """Indices of a nonempty subsequence whose sum is divisible by n.

    Prefix-sum pigeonhole over the first n values: two equal prefix sums
    mod n bracket the subsequence.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(values) < n:
        raise ValueError(f"need at least n={n} values, got {len(values)}")
    seen = {0: 0}
    acc = 0
    for i in range(n):
        acc = (acc + values[i]) % n
        if acc in seen:
            return list(range(seen[acc], i + 1))
        seen[acc] = i + 1
    raise AssertionError("pigeonhole guarantees a repeat within n prefixes")
