"""Census of all small graphs: the catalog completeness cross-check.

Counts labeled and unlabeled induced-P4-free graphs by exhausting edge
masks, independently of the cotree machinery.  Only the tests use it, so
numpy, which the labeled count vectorizes with, is a test dependency.
"""

import math
from itertools import combinations, permutations

import numpy as np

from cogex.cotree import AdjacencyGraph, CapacityError, is_induced_p4_free, to_adjacency
from cogex.oracle import DEFAULT_CATALOG_LIMIT, enumerate_cotrees


def labeled_p4_free_count(n: int) -> int:
    """Number of labeled induced-P4-free graphs on n vertices.

    Filters all 2^C(n,2) edge masks with a vectorized per-quadruple pattern
    table; independent of the cotree machinery.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 7:
        raise CapacityError("census limited to n <= 7")
    if n < 4:
        return 1 << (n * (n - 1) // 2)

    pairs = list(combinations(range(n), 2))
    pos = {pq: i for i, pq in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.uint32)
    has_p4 = np.zeros(masks.shape, dtype=bool)

    # 64-entry table: which 6-bit patterns on a fixed quadruple are a P4
    table = np.zeros(64, dtype=bool)
    quad_pairs = list(combinations(range(4), 2))
    for code in range(64):
        deg = [0, 0, 0, 0]
        m = 0
        for k, (i, j) in enumerate(quad_pairs):
            if code >> k & 1:
                deg[i] += 1
                deg[j] += 1
                m += 1
        table[code] = m == 3 and sorted(deg) == [1, 1, 2, 2]

    for quad in combinations(range(n), 4):
        code = np.zeros(masks.shape, dtype=np.uint8)
        for k, (i, j) in enumerate(quad_pairs):
            bit = pos[(quad[i], quad[j])]
            code |= ((masks >> bit) & 1).astype(np.uint8) << k
        has_p4 |= table[code]
    return int((~has_p4).sum())


def _mask_to_adjacency(n: int, mask: int) -> AdjacencyGraph:
    rows = [0] * n
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        if mask >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return AdjacencyGraph(n, tuple(rows))


def _degree_class_permutations(a: AdjacencyGraph):
    """Permutations preserving the degree partition, as vertex maps."""
    by_degree: dict[int, list[int]] = {}
    for v in range(a.n):
        by_degree.setdefault(a.degree(v), []).append(v)
    blocks = [tuple(vs) for _, vs in sorted(by_degree.items())]

    def rec(i: int, current: dict[int, int]):
        if i == len(blocks):
            yield dict(current)
            return
        block = blocks[i]
        for perm in permutations(block):
            for src, dst in zip(block, perm):
                current[src] = dst
            yield from rec(i + 1, current)
        for src in block:
            current.pop(src, None)

    yield from rec(0, {})


def _apply_permutation(a: AdjacencyGraph, perm: dict[int, int]) -> tuple[int, ...]:
    rows = [0] * a.n
    for v in range(a.n):
        r = a.rows[v]
        nv = perm[v]
        while r:
            u = (r & -r).bit_length() - 1
            r &= r - 1
            rows[nv] |= 1 << perm[u]
    return tuple(rows)


def automorphism_count(a: AdjacencyGraph) -> int:
    """|Aut(G)| by exhausting degree-class-preserving permutations."""
    return sum(1 for perm in _degree_class_permutations(a)
               if _apply_permutation(a, perm) == a.rows)


def _canonical_rows(a: AdjacencyGraph) -> tuple[int, ...]:
    # sort vertices by degree first; isomorphisms then act within blocks
    order = sorted(range(a.n), key=a.degree)
    base = {v: i for i, v in enumerate(order)}
    sorted_graph = AdjacencyGraph(a.n, _apply_permutation(a, base))
    return min(_apply_permutation(sorted_graph, perm)
               for perm in _degree_class_permutations(sorted_graph))


def count_p4_free_classes_bruteforce(n: int) -> int:
    """Unlabeled induced-P4-free graphs on n vertices via isomorphism rejection.

    Every edge mask is filtered for induced P4s, then reduced to a canonical
    labeling (degree-sequence bucketing, exhaustive permutations within
    degree blocks).  Feasible up to n = 6.
    """
    if n > 6:
        raise CapacityError("exhaustive isomorphism rejection limited to n <= 6")
    seen: set[tuple[int, ...]] = set()
    for mask in range(1 << (n * (n - 1) // 2)):
        a = _mask_to_adjacency(n, mask)
        if not is_induced_p4_free(a):
            continue
        seen.add(_canonical_rows(a))
    return len(seen)


def orbit_count_identity(n: int, limit: int = DEFAULT_CATALOG_LIMIT) -> tuple[int, int]:
    """(sum over catalog of n!/|Aut|, labeled P4-free count).

    Equality of the two numbers certifies the catalog is complete and free
    of duplicates: a missing class undercounts the left side, a duplicate
    or spurious entry overcounts it.
    """
    catalog = enumerate_cotrees(n, limit=limit)
    fact = math.factorial(n)
    lhs = 0
    for g in catalog.items:
        lhs += fact // automorphism_count(to_adjacency(g))
    return lhs, labeled_p4_free_count(n)
