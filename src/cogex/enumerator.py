"""Dynamic program over vertex counts for extremal cograph enumeration.

Level n holds a registry mapping biclique sequences at ``cap`` (entries
0..min(n, cap), ``cap`` worked out from the constraint profile as
``binding_cap + 1``) to the best edge count seen with that key, plus
witness cotrees.  Level n is generated from every split n = n1 + n2 by
combining record keys under sum and product, pruning keys that violate
the constraint profile, and reducing to the Pareto frontier over
(smaller key, more edges), which keeps ties in exhaustive mode.  A record
keeps the part records it came from, and its witnesses are built from
theirs when first read: a series reads those of a few records only.

Keys determine how a part behaves inside any larger composition (sums and
joins are monotone in the key), so replacing a part by one with a
pointwise smaller-or-equal key and at least as many edges never hurts:
the frontier keeps at least one extremal cograph per level.  Exhaustive
mode keeps every one.  Its filter, and the sum cutoff below, drop a
(code, edges) pair only when a code within it has strictly more edges, and
no part P of an extremal graph G is such a pair: that code's record would
replace P in G, giving a graph that fits the window with more edges than
G.  Equal edges give no such contradiction, so the default filter, which
drops ties, keeps fewer witnesses.  The smallest-component induction below
needs only that these parts survive.  Candidate generation per level is
associative and order-independent; the implementation runs it sequentially.

Pair combination is the hot loop.  Passes 1 and 2 (combination and
Pareto reduction) key each candidate by one Python int (``_encode``).
Entry 0 is dropped, since every key of a level has the same n; entry
j = 1..cap is stored as v + 1 low set bits of its own field, entry 1 in
the most significant one; an entry past n (-inf, not stored) sets no
bits.  Integer order is then tuple order, ``a | b`` is the pointwise
maximum and ``not a & ~b`` is pointwise a <= b, against a key or a
window: ``over`` is ``~`` the window's code and a code passes iff
``not code & over``, entry 0 being tested once per level.  A sum's key is
``c1 | c2 | floor``, the floor being the code of the edgeless graph on n
vertices (the 0 floor of ``sum_entries``); as both parts passed the
window, the sums of a level pass or fail it together, at the floor.  A join's entry j is at least
k1[j] + n2 and at least k2[j] + n1, so each record stores once its join
slack, the least window[j] - key[j] over its key's entries.
Each level's rows are sorted by slack once, so the rows that can be joined
with a part of n2 vertices are a prefix, found by bisection.  A join's code
comes from one part's key and the other part's code with entry 0, in one
max-plus loop over shifted codes (``_join_code``), and is tested like a
sum's; when n1 and n2 are both at least s, no K_{s,t} join survives and
none is computed.
Survivors are decoded once, so registries and everything after the DP see
int tuple keys.
The loop stays pure Python: importing numpy would raise the CLI's peak
resident set from about 18 MB to 30 MB.

Sums start with a smallest component.  A disconnected cograph is one of
its smallest components plus the rest, whose components are no smaller.
A record is connected-type if it is the leaf or has a join among its tied
best sources, and sum-only otherwise.  Its largest first part is n if it
is connected-type, else the most vertices of a first part over its tied
sum sources, at most n // 2.  Level n sums a connected-type first part of
n1 <= n // 2 vertices with a second part whose largest first part is at
least n1; two connected-type parts of one size are summed in one order
only, as a sum's code, edges and cotree do not depend on the order.
By induction on n and on the first part's size, this keeps every level's
frontier.  Take a sum A + B of kept records.  If A is sum-only, a tied
source (A1, A2) has its code and edges, so A + B has those of
A1 + (A2 + B), and a kept record matches or dominates A2 + B.  If B is
connected-type and no larger than A, B + A is the same sum.  If B's largest
first part is below |A|, its tied sum sources (B1, B2) have |B1| < |A|,
and B1 + (A + B2) matches or dominates A + B likewise.  Each step shrinks
the first part, down to a pair that level n makes.  In exhaustive mode
every extremal witness is made: an extremal sum is a smallest component C,
whose record is connected-type, plus the rest R, whose record's largest
first part is at least |C| (by induction, R's own smallest component
starts one of its tied sources); both survive, as parts of an extremal
graph.  A record under a binding witness limit keeps the first graphs of
its (fewer) sources.

Sums of a first part stop early.  Each level's rows are sorted by edges,
most first.  For a connected-type first part c1 (floor included), let the
first second part whose code lies within c1 (``c1 | c2 == c1``) have e*
edges: that sum has code c1 and e1 + e* edges.  A later second part c2
with fewer edges makes code c1 | c2, which contains c1, with fewer edges:
a candidate that (c1, e1 + e*) strictly dominates, or a pair that is not
a best source of its code.  Either way it changes no frontier code and no
source of one, so the loop stops at the first row below e*; rows with e*
edges are still summed, as they may be tied best sources.  A row whose
largest first part is below n1 is tested against e* before it is skipped,
and may set e*: a pair that is made matches or dominates its (code,
edges), and so strictly dominates every later sum with fewer edges.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter, itemgetter, le, sub
from typing import Iterable, Sequence

from .cotree import (
    CapacityError,
    Cotree,
    Entries,
    _leaf_entries,
    make_leaf,
    make_product,
    make_sum,
)
from .profile import (
    BicliqueProfile,
    binding_cap,
    forbidden_biclique_profile,
    format_profile,
    profile_alpha,
    start_index,
)

DEFAULT_WITNESS_LIMIT = 8

_EDGES = itemgetter(2)  # of a sum row
_NEG_SLACK = itemgetter(0)  # of a join row, negated


class ExtremalRecord:
    """A registry record: a key, its best edge count and its witnesses.

    ``ExtremalRecord(key, edges, witnesses)`` holds its witnesses.  The DP
    makes records that hold their sources instead, ``(make_sum or
    make_product, part record, part record)`` for each pair of parts
    reaching the best edge count, and the witness limit; the first read of
    ``witnesses`` builds them, ``tuple(sorted({maker([a, b]) ...}))[:limit]``
    over the parts' witnesses, together with those of every unbuilt record
    below, parts first, and drops the sources.  Concurrent first reads
    build the same tuple.  Equality, hash and repr are on (key, edges,
    witnesses), so they build the witnesses too.
    """

    __slots__ = ("key", "edges", "_witnesses", "_pending")

    def __init__(self, key: Entries, edges: int, witnesses: tuple[Cotree, ...]):
        self.key = key
        self.edges = edges
        self._witnesses = witnesses
        self._pending: tuple[list[tuple], int | None] | None = None

    @classmethod
    def _lazy(cls, key: Entries, edges: int, sources: list[tuple],
              limit: int | None) -> ExtremalRecord:
        rec = cls(key, edges, ())
        rec._pending = (sources, limit)
        return rec

    @property
    def witnesses(self) -> tuple[Cotree, ...]:
        if self._pending is not None:
            _build_witnesses(self)
        return self._witnesses

    def _fields(self) -> tuple:
        return self.key, self.edges, self.witnesses

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"ExtremalRecord(key={self.key!r}, edges={self.edges!r}, "
                f"witnesses={self.witnesses!r})")


def _build_witnesses(top: ExtremalRecord) -> None:
    """Build the witnesses of ``top`` and of every unbuilt record below it,
    parts first, on an explicit stack (chains of parts are as deep as n).
    A record's witnesses are set before its sources are dropped, so a
    record without sources has its witnesses."""
    stack = [top]
    while stack:
        rec = stack[-1]
        pending = rec._pending
        if pending is None:
            stack.pop()
            continue
        sources, limit = pending
        unbuilt = [r for _, r1, r2 in sources for r in (r1, r2)
                   if r._pending is not None]
        if unbuilt:
            stack += unbuilt
            continue
        rec._witnesses = tuple(sorted({
            maker([a, b]) for maker, r1, r2 in sources
            for a in r1._witnesses for b in r2._witnesses}))[:limit]
        rec._pending = None
        stack.pop()


class Registry:
    """Per-n map from truncated sequence key to its best record."""

    __slots__ = ("n", "cap", "records")

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        self.records: dict[Entries, ExtremalRecord] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"Registry(n={self.n}, records={len(self.records)})"


def pareto_filter(candidates: Iterable[tuple[int, int]],
                  ties: bool = False) -> set[tuple[int, int]]:
    """Non-dominated (code, edges) pairs of one level, codes from ``_encode``:
    no other pair has a pointwise smaller-or-equal key (``not other & ~code``)
    and at least as many edges, or with ``ties`` strictly more.

    Kept codes are kept sorted.  A code that is a bitwise subset of another
    is at most the other, so only kept codes below a candidate can dominate
    it (for non-negative codes), and only those are tested.  The kept code
    that dominated the previous candidate is tested first: runs of
    candidates under one kept code are common, and it ends them without a
    bisection.
    """
    # in code order, each code's last pair has its most edges
    best = dict(sorted(candidates))
    kept: list[int] = []
    # the kept code that dominated the previous candidate; -1 & ~code is
    # ~code, never 0 for a non-negative code, so it dominates none
    last = -1
    # most edges first, so every kept code has at least as many edges;
    # among equal edges the smaller code first.  With ties an equal kept
    # code dominates nothing, and last has more edges than later candidates
    for code, edges in sorted(best.items(), key=itemgetter(1), reverse=True):
        over = ~code
        if not last & over:
            continue
        below = bisect_right(kept, code)
        for i in range(below - 1, -1, -1):
            if not kept[i] & over and (not ties or best[kept[i]] > edges):
                last = kept[i]
                break
        else:
            kept.insert(below, code)
    return {(code, best[code]) for code in kept}


def _encode(entries: Sequence[float], cap: int, width: int) -> int:
    """Code of entries 1..cap of a key or window (entry 0 is dropped).

    Entry v takes v + 1 low set bits of its own field of ``width`` bits,
    entry 1 in the most significant field.  A key shorter than cap + 1
    entries is shifted into place: its entries past n are -inf and set no
    bits, as does -inf (or any negative value) in a window, and +inf (or any
    value of at least ``width``) fills its field.  For keys whose entries
    lie in 0..width - 2, integer order is tuple order, ``a | b`` is the
    pointwise maximum and ``not a & ~b`` is pointwise a <= b, against a key
    or a window.
    """
    code = 0
    for v in entries[1:]:
        bits = 0 if v < 0 else width if v >= width else int(v) + 1
        code = code << width | ((1 << bits) - 1)
    return code << (cap + 1 - len(entries)) * width


def _join_units(cap: int, width: int) -> list[list[int]]:
    """``units[l2][a]``: one low bit in each field of entries a..min(a + l2,
    cap) of a code with entry 0 (``_encode((0, *key), cap + 1, width)``)."""
    field = [1 << (cap - j) * width for j in range(cap + 1)]
    return [[sum(field[a:a + l2 + 1]) for a in range(cap + 1)] for l2 in range(cap + 1)]


def _join_code(k1: Sequence[int], x2: int, units: Sequence[int], width: int) -> int:
    """The join's code with entry 0, ``_encode((0, *product_entries(k1, k2,
    cap)), cap + 1, width)``, from the key ``k1`` and ``x2 = _encode((0,
    *k2), cap + 1, width)``, with ``units = _join_units(cap,
    width)[min(n2, cap)]``.

    Entry j of a join is the max-plus convolution max(k1[a] + k2[j - a]).
    For each a, ``x2`` moved a fields down puts k2[j - a] in field j, and
    shifting by k1[a] with k1[a] low bits set in each field where k2[j - a]
    is stored adds k1[a] to every entry at once; ``|`` takes the maximum.
    Join entries at level n are below n, so no field overflows its width.
    """
    code = 0
    for v, unit in zip(k1, units):
        code |= x2 << v | ((1 << v) - 1) * unit
        x2 >>= width
    return code


def _passes(key: Entries, window: tuple[float, ...]) -> bool:
    return all(map(le, key, window))


def _join_slack(key: Entries, window: tuple[float, ...]) -> float:
    """The most vertices a part with this key can be joined with and still
    pass the window: the join's entry j is at least key[j] + other_n, so
    the least window[j] - key[j] over the key's entries (+inf if the window
    bounds none of them)."""
    return min(map(sub, window, key))


def build_registries(
    n_max: int,
    prune: BicliqueProfile,
    exhaustive: bool = False,
    witness_limit: int | None = DEFAULT_WITNESS_LIMIT,
    max_records: int | None = None,
) -> list[Registry]:
    """Registries for n = 1 .. n_max (list index n-1).

    Keys are truncated at ``cap = binding_cap(prune) + 1``, and ``prune``
    drops every key exceeding the profile on that window, which is sound
    because a part's sequence is a pointwise lower bound for any graph
    containing it; so every kept record fits ``prune``, and
    ``BicliqueProfile((), INF)`` prunes nothing.  ``exhaustive`` keeps every
    witness and Pareto ties, so every extremal cograph is a witness.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cap = binding_cap(prune) + 1
    window = prune.window(cap + 1)
    if exhaustive:
        witness_limit = None
    # entries are at most n_max - 1, so a field has room for every one and +inf
    width = n_max + 2
    # a code passes the window iff it sets none of these bits
    over = ~_encode(window, cap, width)
    mask = (1 << width) - 1  # one field
    low = (1 << cap * width) - 1  # drops entry 0 from a join's code
    units = _join_units(cap, width)

    registries = [Registry(n, cap) for n in range(1, n_max + 1)]
    # each completed level is indexed once.  For sums: rows (code, record,
    # edges, largest first part), most edges first, of its connected-type
    # records (the leaf and the records with a join source) and of all.
    # For joins: rows (-join slack, key, code with entry 0, record, edges)
    # of its records with slack >= 1, most slack first
    firsts: list[list[tuple[int, ExtremalRecord, int, int]]] = []
    every: list[list[tuple[int, ExtremalRecord, int, int]]] = []
    joinable: list[list[tuple[float, tuple[int, ...], int, ExtremalRecord, int]]] = []

    def index(n: int, level: list[tuple[int, ExtremalRecord, int]]) -> None:
        """Index level n from its (code, record, largest first part) in key
        order."""
        top = (2 << n) - 1 << cap * width  # entry 0 of a code with entry 0
        every.append(sorted([(code, rec, rec.edges, largest) for code, rec, largest in level],
                            key=_EDGES, reverse=True))
        firsts.append([row for row in every[-1] if row[3] == n])
        joins = []
        for code, rec, _ in level:
            slack = _join_slack(rec.key, window)
            if slack >= 1:  # else it joins with nothing
                joins.append((-slack, rec.key, top | code, rec, rec.edges))
        joinable.append(sorted(joins, key=_NEG_SLACK))

    key = _leaf_entries(cap)
    leaf = _encode(key, cap, width)
    level = []
    if 1 <= window[0] and not leaf & over:
        rec = registries[0].records[key] = ExtremalRecord(key, 0, (make_leaf(),))
        level.append((leaf, rec, 1))
    index(1, level)

    for n in range(2, n_max + 1):
        # pass 1: combine keys, remembering where each best candidate came
        # from, as (make_sum or make_product, part record, part record)
        candidates: dict[int, tuple[int, list[tuple]]] = {}
        get = candidates.get
        # a sum's key is the pointwise maximum of its parts' keys and the
        # edgeless graph's: the 0 floor of sum_entries up to entry n
        floor = _encode((n, *[0] * min(n, cap)), cap, width)
        # parts passed the window, so only the floor can fail it, and then
        # it fails it for every sum of the level; entry 0 is n for every key
        # of the level
        sums = not floor & over and n <= window[0]
        for n1 in range(1, n // 2 + 1) if sums else ():
            n2 = n - n1
            # the first part is a smallest component: connected-type, and a
            # second part's largest first part is at least n1.  A sum-only
            # row's is at most n2 // 2, so below n1 when 2 * n1 > n2
            right = every[n2 - 1] if 2 * n1 <= n2 else firsts[n2 - 1]
            # two first parts of one size are summed once, in list order
            for i, (c1, r1, e1, _) in enumerate(firsts[n1 - 1]):
                c1 |= floor
                # once a second part inside c1 gave c1 itself with e1 + e*
                # edges, every later one has at most e* edges, and one with
                # fewer makes a sum that c1's strictly dominates.  A row
                # skipped for its first parts still sets the stop: a sum
                # that is made matches or dominates its (code, edges)
                stop = -1
                for c2, r2, e2, largest in right[i:] if n1 == n2 else right:
                    if e2 < stop:
                        break
                    code = c1 | c2
                    if code == c1:
                        stop = e2
                    if largest < n1:
                        continue
                    edges = e1 + e2
                    cur = get(code)
                    if cur is None or edges > cur[0]:
                        candidates[code] = (edges, [(make_sum, r1, r2)])
                    elif edges == cur[0]:
                        cur[1].append((make_sum, r1, r2))
        for n1 in range(1, n // 2 + 1) if n <= window[0] else ():
            n2 = n - n1
            # the rows whose join slack covers the other part's size
            left = joinable[n1 - 1][:bisect_right(joinable[n1 - 1], -n2, key=_NEG_SLACK)]
            right = left if n1 == n2 else \
                joinable[n2 - 1][:bisect_right(joinable[n2 - 1], -n1, key=_NEG_SLACK)]
            units2 = units[min(n2, cap)]
            cross = n1 * n2
            for i, (_, k1, _, r1, e1) in enumerate(left):
                for _, _, x2, r2, e2 in right[i:] if n1 == n2 else right:
                    code = _join_code(k1, x2, units2, width) & low
                    if code & over:
                        continue
                    edges = e1 + e2 + cross
                    cur = get(code)
                    if cur is None or edges > cur[0]:
                        candidates[code] = (edges, [(make_product, r1, r2)])
                    elif edges == cur[0]:
                        cur[1].append((make_product, r1, r2))
        if max_records is not None and len(candidates) > max_records:
            raise CapacityError(
                f"level {n} produced {len(candidates)} profile keys "
                f"(limit {max_records})")

        # pass 2: Pareto reduction at the (key, edges) level, keeping ties in exhaustive mode
        surviving = [c for c, _ in pareto_filter(
            ((c, e) for c, (e, _) in candidates.items()), exhaustive)]

        # survivors keep their sources, in key order; witnesses are built
        # when first read.  A key holds entries 0..m, read from the top m
        # fields of its code
        m = min(n, cap)
        shifts = range((cap - 1) * width, (cap - m - 1) * width, -width)
        records = registries[n - 1].records
        level = []
        for code in sorted(surviving):
            edges, sources = candidates[code]
            key = (n, *[(code >> shift & mask).bit_length() - 1 for shift in shifts])
            rec = records[key] = ExtremalRecord._lazy(key, edges, sources, witness_limit)
            # joins come after sums, so a record with a join source ends
            # with one, and its largest first part is n
            level.append((code, rec, n if sources[-1][0] is make_product
                          else max(r1.key[0] for _, r1, _ in sources)))
        index(n, level)

    return registries


def query(r: Registry) -> ExtremalRecord | None:
    """Best record of the level; the first in key order among equal edge
    counts.  Every record fits the profile the registry was built under."""
    return max((r.records[key] for key in sorted(r.records)),
               key=attrgetter("edges"), default=None)


def query_witnesses(r: Registry) -> tuple[int, tuple[Cotree, ...]]:
    """Best edge count of the level, with witnesses merged across keys."""
    best = max((rec.edges for rec in r.records.values()), default=-1)
    wits = {w for rec in r.records.values() if rec.edges == best for w in rec.witnesses}
    return best, tuple(sorted(wits))


# =============================================================================
# Extremal series
# =============================================================================

@dataclass
class ExtremalSeries:
    """ex values over a contiguous range of vertex counts, with witnesses."""

    constraint: str
    alpha: Fraction
    values: dict[int, int]
    witnesses: dict[int, tuple[Cotree, ...]] = field(default_factory=dict)
    s: int | None = None
    t: int | None = None

    def ns(self) -> list[int]:
        return sorted(self.values)

    @property
    def asserts_strict_bound(self) -> bool:
        """Whether ex(n) < alpha * n is claimed: for s >= 2 or s unknown.
        K_{1,t} meets the bound at regular graphs, and a profile starting
        at index 0 bounds the vertex count."""
        return self.s is None or self.s >= 2

    def at_bound(self, alpha: Fraction | None = None) -> list[int]:
        """The n, in order, where the strict bound fails: ex(n) >= alpha * n,
        with the series' own alpha by default."""
        a = self.alpha if alpha is None else alpha
        return [n for n in self.ns() if self.values[n] >= a * n]


def extremal_series_for_profile(
    p: BicliqueProfile,
    n_range: range,
    exhaustive: bool = False,
    witness_limit: int | None = DEFAULT_WITNESS_LIMIT,
    max_records: int | None = None,
    constraint: str | None = None,
) -> ExtremalSeries:
    """Profile-extremal edge counts for every n in the range."""
    if (not isinstance(n_range, range) or n_range.step != 1 or not n_range
            or n_range.start < 1):
        raise ValueError(f"need a nonempty contiguous range of n >= 1, got {n_range!r}")
    # a profile without a finite start value is rejected before the DP runs
    s = start_index(p)
    start_value = p[s]
    alpha = profile_alpha(p)
    registries = build_registries(
        n_range.stop - 1, p, exhaustive=exhaustive,
        witness_limit=witness_limit, max_records=max_records)
    values: dict[int, int] = {}
    witnesses: dict[int, tuple[Cotree, ...]] = {}
    for n in n_range:
        edges, wits = query_witnesses(registries[n - 1])
        if edges < 0:
            continue  # no cograph on n vertices fulfills the profile
        values[n] = edges
        witnesses[n] = wits[:witness_limit]
    return ExtremalSeries(
        constraint=constraint or format_profile(p),
        alpha=alpha,
        values=values,
        witnesses=witnesses,
        s=s,
        t=int(start_value) + 1,
    )


def extremal_function(
    s: int,
    t: int,
    n_range: range,
    exhaustive: bool = False,
    witness_limit: int | None = DEFAULT_WITNESS_LIMIT,
    max_records: int | None = None,
) -> ExtremalSeries:
    """ex(n, K_{s,t}-free cographs) over the range, with witnesses.

    s = 1 runs through the same registry machinery with the max-degree
    profile; there is no special code path.  The series' alpha, s and t
    come from the profile and equal alpha_for(s, t), s and t.
    """
    return extremal_series_for_profile(
        forbidden_biclique_profile(s, t), n_range, exhaustive=exhaustive,
        witness_limit=witness_limit, max_records=max_records,
        constraint=f"K{{{s},{t}}}")


# =============================================================================
# Periodicity analysis of a computed series
# =============================================================================

@dataclass
class PeriodicityReport:
    alpha: Fraction
    detected_period: int | None
    constants: dict[int, Fraction]
    onset: int | None
    all_negative: bool
    strict_bound: bool
    slope_estimate: Fraction | None
    candidates_examined: list[int]
    status: str

    def to_json(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "detected_period": self.detected_period,
            "constants": {str(q): str(a) for q, a in sorted(self.constants.items())},
            "onset": self.onset,
            "all_negative": self.all_negative,
            "strict_bound": self.strict_bound,
            "slope_estimate": None if self.slope_estimate is None else str(self.slope_estimate),
            "candidates_examined": self.candidates_examined,
            "status": self.status,
        }


def analyze_periodicity(
    series: ExtremalSeries,
    alpha: Fraction | None = None,
    periods: Sequence[int] | None = None,
) -> PeriodicityReport:
    """Detect eventual periodicity of ex(n) - alpha*n over the series.

    R is the smallest candidate period, covered at least three times by the
    range, whose periodic tail (residual[n] = residual[n + R] throughout)
    covers at least max(3R, span // 2) vertex counts; three periods alone
    would accept R = 1 for K_{3,5} on 5..40, whose last three residuals
    coincide.  Reports R, the per-residue constants (the last residual of
    each class), the onset of stability (the latest start of a class's
    final constant run), whether all constants are negative, and whether
    ex(n) < alpha*n holds throughout.  A finite-difference slope over the
    last detected period cross-checks alpha.
    """
    if alpha is None:
        alpha = series.alpha
    ns = series.ns()
    if not ns:
        raise ValueError("empty series")
    span = ns[-1] - ns[0] + 1
    if periods is None:
        periods = list(range(1, max(2, span // 3) + 1))
    candidates = [r for r in sorted(set(periods)) if r >= 1 and 3 * r <= span]

    residual = {n: Fraction(series.values[n]) - alpha * n for n in ns}
    strict = not series.at_bound(alpha)

    n_last = ns[-1]
    for r in candidates:
        # the periodic tail: residual[n] = residual[n + r] from n = tail on
        tail = n_last
        while tail - 1 in residual and (
                tail - 1 + r > n_last or residual[tail - 1] == residual[tail - 1 + r]):
            tail -= 1
        if n_last - tail + 1 < max(3 * r, span // 2):
            continue
        constants: dict[int, Fraction] = {}
        onsets: list[int] = []
        for q in range(r):
            obs = [n for n in ns if n % r == q]
            run_start = len(obs) - 1
            while run_start > 0 and residual[obs[run_start - 1]] == residual[obs[-1]]:
                run_start -= 1
            constants[q] = residual[obs[-1]]
            onsets.append(obs[run_start])
        slope = Fraction(series.values[n_last] - series.values[n_last - r], r) \
            if n_last - r in series.values else None
        return PeriodicityReport(
            alpha=alpha,
            detected_period=r,
            constants=constants,
            onset=max(onsets),
            all_negative=all(a < 0 for a in constants.values()),
            strict_bound=strict,
            slope_estimate=slope,
            candidates_examined=candidates,
            status="periodic",
        )
    return PeriodicityReport(
        alpha=alpha,
        detected_period=None,
        constants={},
        onset=None,
        all_negative=False,
        strict_bound=strict,
        slope_estimate=None,
        candidates_examined=candidates,
        status="inconclusive",
    )
