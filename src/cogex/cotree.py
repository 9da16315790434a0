"""Reduced cotrees: the cograph data model.

A cograph is built from single vertices by two operations, the sum
(disjoint union) and the product (join).  The construction is recorded as
a rooted tree whose inner nodes are labeled ``sum`` or ``prod`` and whose
leaves are the graph's vertices.  We keep trees *reduced* (no sum node has
a sum child, no product node a product child) and *canonical* (children
sorted by a recursive encoding), so two trees encode isomorphic cographs
exactly when their encodings are equal.

Nodes are built in one pass over their children.  Every leaf is one
shared node (``make_leaf``).  ``_node`` builds an inner node from children
that are already reduced: it sorts them, sums their sizes and edges in one
loop and joins their encodings.  ``make_sum`` and ``make_product`` splice
in the children of same-kind children first; ``clique`` and ``edgeless``
build their node over k leaves directly.  ``complement``, the oracle's
catalog and the cotree JSON loader call ``_node`` themselves, since their
children are never of the node's own kind.

No function that takes a Cotree recurses, so trees of any height work at
the default recursion limit: traversals use ``fold``, a post-order fold
over an explicit stack, or ``summands``, a pre-order walk over the
children of sum nodes; pre-order writers and ``degree_counts`` keep their
own explicit stacks.

A biclique sequence at cap is the tuple of its entries 0..min(n, cap), all
ints (``Entries``); entries past n are -inf by definition and are not
stored.  The DP's keys, the oracle's catalog grouping by sequence and
registry snapshots hold the same tuple.  ``biclique_sequence`` folds it over the cotree: a sum
is the pointwise maximum with a 0 floor, a join the max-plus convolution.
A join's work is the product of its parts' lengths, so by the size-bounded
merge argument for tree DPs (Johnson and Niemi, 1983) a sequence costs
O(n * min(n, cap)).  ``sum_entries`` and ``product_entries`` are the two
kernels on tuples.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from itertools import combinations
from operator import add, attrgetter
from typing import Callable, Iterable, Iterator, Sequence

LEAF = "leaf"
SUM = "sum"
PROD = "prod"

DEFAULT_ADJACENCY_LIMIT = 16


class CapacityError(RuntimeError):
    """A configured size limit would be exceeded."""


# =============================================================================
# Cotree
# =============================================================================

class Cotree:
    """Immutable reduced cotree node. Use make_leaf/make_sum/make_product."""

    __slots__ = ("kind", "children", "n", "edges", "_canon")

    def __init__(self, kind: str, children: tuple["Cotree", ...],
                 n: int, edges: int, canon: bytes):
        self.kind = kind
        self.children = children
        self.n = n
        self.edges = edges
        self._canon = canon

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cotree) and self._canon == other._canon

    def __hash__(self) -> int:
        return hash(self._canon)

    def __lt__(self, other: "Cotree") -> bool:
        return self._canon < other._canon

    def __repr__(self) -> str:
        return f"Cotree({self._canon.decode('ascii')})"


_OP_TAG = {SUM: b"+(", PROD: b"x("}
_canon_of = attrgetter("_canon")

# K_1: cotrees are immutable, so every leaf is this one node
_LEAF = Cotree(LEAF, (), 1, 0, b"*")


def _node(kind: str, kids: list[Cotree]) -> Cotree:
    """Inner node of ``kind`` over at least two children, none of them of
    ``kind`` itself; sorts ``kids`` in place into canonical order."""
    kids.sort(key=_canon_of)
    n = edges = squares = 0
    for c in kids:
        size = c.n
        n += size
        edges += c.edges
        squares += size * size
    if kind == PROD:
        # join adds all cross edges between distinct factors
        edges += (n * n - squares) // 2
    return Cotree(kind, tuple(kids), n, edges,
                  _OP_TAG[kind] + b",".join(map(_canon_of, kids)) + b")")


def make_leaf() -> Cotree:
    """The single-vertex cograph K_1."""
    return _LEAF


def _make_inner(kind: str, children: Iterable[Cotree]) -> Cotree:
    kids = list(children)
    if not kids:
        raise ValueError(f"{kind} node needs at least one child")
    if len(kids) == 1:
        return kids[0]
    # reduction: splice in children of same-kind nodes
    flat: list[Cotree] = []
    for c in kids:
        if c.kind == kind:
            flat.extend(c.children)
        else:
            flat.append(c)
    return _node(kind, flat)


def make_sum(children: Iterable[Cotree]) -> Cotree:
    """Disjoint union of the given cographs."""
    return _make_inner(SUM, children)


def make_product(children: Iterable[Cotree]) -> Cotree:
    """Join of the given cographs (all cross edges present)."""
    return _make_inner(PROD, children)


def _over_leaves(kind: str, k: int) -> Cotree:
    """The node of ``kind`` over k >= 1 leaves, built directly."""
    if k == 1:
        return _LEAF
    return Cotree(kind, (_LEAF,) * k, k, k * (k - 1) // 2 if kind == PROD else 0,
                  _OP_TAG[kind] + b"*," * (k - 1) + b"*)")


def clique(k: int) -> Cotree:
    """K_k."""
    if k < 1:
        raise ValueError("clique size must be >= 1")
    return _over_leaves(PROD, k)


def edgeless(k: int) -> Cotree:
    """E_k, the empty graph on k vertices."""
    if k < 1:
        raise ValueError("vertex count must be >= 1")
    return _over_leaves(SUM, k)


def canonical_form(g: Cotree) -> bytes:
    """Deterministic encoding; equal iff the reduced cotrees are isomorphic."""
    return g._canon


def fold(g: Cotree, leaf, inner: Callable[[Cotree, list], object]):
    """Post-order fold over an explicit stack: a leaf's value is ``leaf``, an
    inner node's is ``inner(node, values of its children in order)``.  Leaf
    children take ``leaf`` in place and never go through the stack."""
    if g.kind == LEAF:
        return leaf
    stack = [(g, iter(g.children), [])]  # node, children left, values so far
    while True:
        node, kids, values = stack[-1]
        for c in kids:
            if c.kind != LEAF:
                stack.append((c, iter(c.children), []))
                break
            values.append(leaf)
        else:
            stack.pop()
            if not stack:
                return inner(node, values)
            stack[-1][2].append(inner(node, values))


def summands(g: Cotree) -> Iterator[tuple[tuple[int, ...], Cotree, int, int]]:
    """Pre-order walk over the children of sum nodes, over an explicit stack.
    Yields (child-index path, summand, index of its first leaf in DFS order,
    number of outside neighbours, those below product siblings on its path)."""
    stack = [((), g, 0, 0, False)]  # path, node, first leaf, outside, under a sum?
    while stack:
        path, node, first, outside, summand = stack.pop()
        if summand:
            yield path, node, first, outside
        below = []
        is_sum = node.kind == SUM
        for i, c in enumerate(node.children):
            if is_sum or c.kind != LEAF:  # a product's leaf child has nothing to yield
                joined = 0 if is_sum else node.n - c.n
                below.append((path + (i,), c, first, outside + joined, is_sum))
            first += c.n
        stack += reversed(below)


def complement(g: Cotree) -> Cotree:
    """Cotree of the complement graph: sum and product labels swapped.  The
    relabelled tree is reduced too, so each node goes to ``_node`` without
    splicing."""
    return fold(g, _LEAF, lambda node, kids: _node(PROD if node.kind == SUM else SUM, kids))


def height(g: Cotree) -> int:
    """Maximum number of edges on a root-to-leaf path of the reduced tree."""
    return fold(g, 0, lambda node, heights: 1 + max(heights))


def clique_number(g: Cotree) -> int:
    """Clique number: max over sum children, additive over product children."""
    return fold(g, 1, lambda node, omegas: max(omegas) if node.kind == SUM else sum(omegas))


def max_degree(g: Cotree) -> int:
    """Maximum vertex degree, computed on the cotree."""
    return max(degree_counts(g))


def degree_counts(g: Cotree) -> dict[int, int]:
    """Degree -> number of vertices of that degree, computed on the cotree in
    one pre-order walk: a vertex's degree is the number of vertices outside
    each product child on its path, summed."""
    if g.kind == LEAF:
        return {0: 1}
    counts: dict[int, int] = {}
    stack = [(g, 0)]  # inner node, degree offset of its vertices
    while stack:
        node, offset = stack.pop()
        joined = node.kind == PROD
        for c in node.children:
            d = offset + node.n - c.n if joined else offset
            if c.kind == LEAF:
                counts[d] = counts.get(d, 0) + 1
            else:
                stack.append((c, d))
    return counts


def to_formula(g: Cotree) -> str:
    """Human-readable construction formula, e.g. ``(v*v*(K3+K3))``."""
    return fold(g, "v", lambda node, parts: (
        f"{'K' if node.kind == PROD else 'E'}{node.n}" if node.n == len(parts)  # all leaves
        else "(" + ("+" if node.kind == SUM else "*").join(parts) + ")"))


# =============================================================================
# AdjacencyGraph: dense expansion for small n
# =============================================================================

class AdjacencyGraph:
    """Symmetric loop-free adjacency matrix, rows stored as bitmasks."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        self.n = n
        self.rows = rows

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "AdjacencyGraph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def complement(self) -> "AdjacencyGraph":
        full = (1 << self.n) - 1
        rows = tuple((full & ~r) & ~(1 << v) for v, r in enumerate(self.rows))
        return AdjacencyGraph(self.n, rows)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(r.bit_count() for r in self.rows))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            r = self.rows[u] >> (u + 1) << (u + 1)
            while r:
                v = (r & -r).bit_length() - 1
                out.append((u, v))
                r &= r - 1
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AdjacencyGraph)
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"AdjacencyGraph(n={self.n}, m={self.edge_count()})"


def to_adjacency(g: Cotree, limit: int = DEFAULT_ADJACENCY_LIMIT) -> AdjacencyGraph:
    """Expand a cotree to its adjacency matrix.

    Leaves are numbered in DFS order over the canonical tree.  Guarded by
    ``limit``: dense form serves graph6 and oracle-scale checks only.
    """
    if g.n > limit:
        raise CapacityError(f"adjacency expansion of {g.n} vertices exceeds limit {limit}")
    rows = [0] * g.n
    # (node, index of its first leaf); a join links each child's leaf range
    # to the rest of its parent's range
    stack = [(g, 0)]
    while stack:
        node, pos = stack.pop()
        whole = ((1 << node.n) - 1) << pos
        for c in node.children:
            if node.kind == PROD:
                other = whole & ~(((1 << c.n) - 1) << pos)
                for v in range(pos, pos + c.n):
                    rows[v] |= other
            if c.kind != LEAF:
                stack.append((c, pos))
            pos += c.n
    return AdjacencyGraph(g.n, tuple(rows))


def is_induced_p4_free(a: AdjacencyGraph) -> bool:
    """True iff no 4 vertices induce a path; validates cograph expansions."""
    n = a.n
    rows = a.rows
    for quad in combinations(range(n), 4):
        deg = []
        m = 0
        for v in quad:
            sub = 0
            for u in quad:
                if u != v and rows[v] >> u & 1:
                    sub += 1
            deg.append(sub)
            m += sub
        # P_4 is the only 4-vertex graph with 3 edges and degrees {1,1,2,2}
        if m == 6 and sorted(deg) == [1, 1, 2, 2]:
            return False
    return True


# =============================================================================
# Biclique sequences
# =============================================================================

# Entries 0..min(n, cap) of a biclique sequence: entry s is the largest t
# such that the complete bipartite graph with part sizes s and t is a
# subgraph.  The empty part convention makes entry 0 the vertex count n and
# gives a floor of 0 whenever s <= n.  Entries past n are -inf and are not
# stored, so a sequence with len(seq) > seq[0] is complete.
Entries = tuple[int, ...]


def _leaf_entries(cap: int) -> Entries:
    return (1, 0)[:cap + 1]


def _sum_prefix(p1: Sequence[int], p2: Sequence[int], cap: int) -> list[int]:
    """Entries 0..min(n, cap) of a disjoint union's sequence from its parts'.

    For s >= 1 a biclique with both parts nonempty is connected, so the
    pointwise maximum applies; the t=0 level (edgeless bicliques) spans
    summands, hence the 0 floor up to the combined vertex count.
    """
    if len(p1) < len(p2):
        p1, p2 = p2, p1
    n = p1[0] + p2[0]
    k = len(p2)
    return [n, *[a if a >= b else b for a, b in zip(p1[1:k], p2[1:])], *p1[k:],
            *[0] * (min(n, cap) + 1 - len(p1))]


def _join_prefix(p1: Sequence[int], p2: Sequence[int], cap: int) -> list[int]:
    """Entries 0..min(n, cap) of a join's sequence: entry s is the max-plus
    convolution max(p1[a] + p2[s - a]) over the a with both entries stored,
    read from the longer sequence against the shorter one reversed."""
    if len(p1) < len(p2):
        p1, p2 = p2, p1
    m = len(p2) - 1
    r2 = p2[::-1]
    return [max(map(add, p1[s - m if s > m else 0:s + 1], r2[m - s if s < m else 0:]))
            for s in range(min(len(p1) + m - 1, cap) + 1)]


def sum_entries(e1: Entries, e2: Entries, cap: int) -> Entries:
    """The sequence at cap of a disjoint union, from its parts' sequences at
    cap (``_sum_prefix``)."""
    return tuple(_sum_prefix(e1, e2, cap))


def product_entries(e1: Entries, e2: Entries, cap: int) -> Entries:
    """The sequence at cap of a join, from its parts' sequences at cap:
    max-plus convolution (``_join_prefix``)."""
    return tuple(_join_prefix(e1, e2, cap))


def biclique_sequence(g: Cotree, cap: int) -> Entries:
    """Entries 0..min(n, cap) of the biclique sequence, all ints.

    Each subtree's sequence is folded over the cotree.  Leaf children sort
    first, so a node's k of them start its fold as the sequence of E_k (n,
    then zeros) or K_k (entry s is k - s).  A join's work is the product of
    its parts' lengths, so a sequence costs O(n * min(n, cap)).
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    leaf = _leaf_entries(cap)

    def inner(node: Cotree, parts: list) -> list[int]:
        k = parts.count(leaf)
        if k < 2:
            acc, k = parts[0], 1
        elif node.kind == SUM:
            acc = [k, *[0] * min(k, cap)]
        else:
            acc = list(range(k, max(k - cap, 0) - 1, -1))
        combine = _sum_prefix if node.kind == SUM else _join_prefix
        for p in parts[k:]:
            acc = combine(acc, p, cap)
        return acc

    return tuple(fold(g, leaf, inner))


def check_sequence_invariants(e: Entries) -> None:
    """Raise ValueError if a computed sequence violates its invariants."""
    n = e[0]
    if len(e) > n + 1:
        raise ValueError(f"entry {n + 1} lies past n={n}: {e}")
    for i in range(len(e) - 1):
        if e[i] < e[i + 1]:
            raise ValueError(f"not decreasing at {i}: {e}")
    for i, v in enumerate(e):
        if v < 0:
            raise ValueError(f"entry {i} should be >= 0 for n={n}: {e}")
    # subdiagonality: e[j] < l forces e[l] < j
    for j, vj in enumerate(e):
        l = vj + 1
        if l < len(e) and e[l] >= j:
            raise ValueError(f"not subdiagonal at ({j}, {l}): {e}")
