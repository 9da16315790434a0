"""Dynamic program over vertex counts for extremal cograph enumeration.

Level n holds a registry mapping truncated biclique sequences (the first
``cap + 1`` entries) to the best edge count seen with that key, plus
witness cotrees.  Level n is generated from every split n = n1 + n2 by
combining record keys under sum and product, pruning keys that violate
the constraint profile, and reducing to the Pareto frontier over
(smaller key, more edges) unless exhaustive mode keeps every key.  A
record keeps the part records it came from, and its witnesses are built
from theirs when first read: a series reads those of a few records only.

Keys determine how a part behaves inside any larger composition, so
replacing a part by one with a pointwise smaller-or-equal key and at
least as many edges never hurts: the frontier keeps at least one extremal
cograph per level.  Candidate generation per level is associative and
order-independent; the implementation runs it sequentially.

Pair combination is the hot loop.  Passes 1 and 2 (combination and
Pareto reduction) key each candidate by one Python int (``_encode``).
Entry 0 is dropped, since every key of a level has the same n; entry
j = 1..cap is stored as v + 1 low set bits of its own field, entry 1 in
the most significant one.  Integer order is then tuple order, ``a | b`` is
the pointwise maximum and ``not a & ~b`` is pointwise a <= b, against a
key or a window: ``over`` is ``~`` the window's code (+inf entries when
there is no ``prune``) and a code passes iff ``not code & over``, entry 0
being tested once per level.  A sum's key is ``c1 | c2 | floor``, the
floor being the code of the edgeless graph on n vertices (the 0 floor of
``sum_entries``); as both parts passed the window, the sums of a level
pass or fail it together, at the floor.  A join's entry j is at least
k1[j] + n2 and at least k2[j] + n1, so each record stores once its join
slack, the least window[j] - key[j] over the window's bounded entries, and
only pairs of parts whose slack covers the other part's size reach
``product_entries`` on tuple keys, whose result is coded and tested like a
sum's; when n1 and n2 are both at least s, no K_{s,t} join survives and
none is computed.  The Pareto filter groups kept codes by bit length: a
code that dominates another is a bitwise subset of it, so not longer, and
a candidate is tested against the groups no longer than itself only.
Survivors are decoded once, so registries and everything after the DP see
tuple keys.
The loop stays pure Python: importing numpy would raise the CLI's peak
resident set from about 18 MB to 30 MB.

Sums start with a connected part.  Every disconnected cograph is one
connected component plus the rest (its cotree's root is a sum).  A record
is connected-type if it is the leaf or one of its tied best sources is a
join, and sum-only otherwise; a sum's first part is connected-type, its
second part any record, and two connected-type parts are summed once, the
smaller first (the earlier of one level).  This keeps every (key, edges)
of every level, by induction on n.  A sum-only record A has a sum source
(A1, A2): its code is a1 | a2 | floor and its edges e1 + e2.  So A + B has
the code and edges of A1 + (A2 + B), whose second part is a sum at a lower
level and so matched by a kept record, or, past the Pareto filter,
dominated by one; A1 + that record matches or dominates A + B, with a
first part of fewer vertices, down to a connected-type one.  A mirrored
pair of connected-type parts has the same code and edges.  Every level's
frontier, and in exhaustive mode its every candidate code with its best
edges, is as with all pairs summed, and so is every exhaustive witness set:
each extremal sum is a component plus an extremal rest.  A record under a
binding witness limit keeps the first graphs of its (fewer) sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter, le
from typing import Iterable, Sequence

from .cotree import (
    INF,
    NEG_INF,
    CapacityError,
    Cotree,
    Entries,
    _leaf_entries,
    make_leaf,
    make_product,
    make_sum,
    product_entries,
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


def pareto_filter(candidates: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """Non-dominated (code, edges) pairs of one level, codes from ``_encode``:
    no other pair has a pointwise smaller-or-equal key (``not other & ~code``)
    and at least as many edges with one strict.

    Kept codes are grouped by bit length.  A code that is a bitwise subset
    of another is at most the other, so no group longer than a candidate
    holds a code dominating it (for non-negative codes), and such groups
    are skipped.
    """
    best: dict[int, int] = {}
    for code, edges in candidates:
        if best.get(code, -1) < edges:
            best[code] = edges
    groups: dict[int, list[int]] = {}
    for code, _ in sorted(best.items(), key=lambda kv: (-kv[1], kv[0])):
        # every kept code has at least as many edges, by sort order
        length = code.bit_length()
        over = ~code
        dominated = False
        for size, group in groups.items():
            if size <= length:
                for kcode in group:
                    if not kcode & over:
                        dominated = True
                        break
                if dominated:
                    break
        if not dominated:
            groups.setdefault(length, []).append(code)
    return {(code, best[code]) for group in groups.values() for code in group}


def _encode(entries: Sequence[float], width: int) -> int:
    """Code of entries 1.. of a key or window (entry 0 is dropped).

    Entry v takes v + 1 low set bits of its own field of ``width`` bits,
    entry 1 in the most significant field.  -inf (or any negative value)
    sets no bits and +inf (or any value of at least ``width``) fills its
    field.  For keys whose entries lie in 0..width - 2 or are -inf, integer
    order is tuple order, ``a | b`` is the pointwise maximum and
    ``not a & ~b`` is pointwise a <= b, against a key or a window.
    """
    code = 0
    for v in entries[1:]:
        bits = 0 if v < 0 else width if v >= width else int(v) + 1
        code = code << width | ((1 << bits) - 1)
    return code


def _decode(code: int, n: int, cap: int, width: int) -> Entries:
    """The key (n, entries 1..cap) whose ``_encode`` is ``code``."""
    mask = (1 << width) - 1
    fields = [code >> (cap - j) * width & mask for j in range(1, cap + 1)]
    return (n, *(f.bit_length() - 1 if f else NEG_INF for f in fields))


def _passes(key: Entries, window: tuple[float, ...]) -> bool:
    return all(map(le, key, window))


def _join_slack(key: Entries, window: tuple[float, ...], bounded: list[int]) -> float:
    """The most vertices a part with this key can be joined with and still
    pass the window: the join's entry j is at least key[j] + other_n, so
    the least window[j] - key[j] over the bounded entries.  A -inf key
    entry bounds nothing (and -inf - -inf would be NaN)."""
    return min((window[j] - key[j] for j in bounded if key[j] != NEG_INF), default=INF)


def build_registries(
    n_max: int,
    cap: int,
    prune: BicliqueProfile | None = None,
    exhaustive: bool = False,
    witness_limit: int | None = DEFAULT_WITNESS_LIMIT,
    max_records: int | None = None,
) -> list[Registry]:
    """Registries for n = 1 .. n_max (list index n-1).

    ``prune`` drops every key exceeding the profile anywhere on the window,
    which is sound because a part's sequence is a pointwise lower bound for
    any graph containing it.  ``exhaustive`` skips Pareto filtering and
    keeps every witness, at a significant memory cost.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    window = prune.window(cap + 1) if prune is not None else (INF,) * (cap + 1)
    if exhaustive:
        witness_limit = None
    # window indices a join can exceed; a -inf entry forbids any finite one
    bounded = [j for j, w in enumerate(window) if w < INF]
    # entries are at most n_max - 1, so a field has room for every one and +inf
    width = n_max + 2
    # a code passes the window iff it sets none of these bits
    over = ~_encode(window, width)

    registries = [Registry(n, cap) for n in range(1, n_max + 1)]
    # per level: (code, record, edges, join slack) for each record, in key
    # order, of the connected-type records (the leaf and the records with a
    # join source) and of the sum-only ones; then all rows, connected-type first
    connected: list[list[tuple[int, ExtremalRecord, int, float]]] = [[] for _ in registries]
    sum_only: list[list[tuple[int, ExtremalRecord, int, float]]] = [[] for _ in registries]
    rows: list[list[tuple[int, ExtremalRecord, int, float]]] = []

    def keep(n: int, code: int, rec: ExtremalRecord, joined: bool) -> None:
        """Store the record of a surviving code of level n and append its row."""
        registries[n - 1].records[rec.key] = rec
        (connected if joined else sum_only)[n - 1].append(
            (code, rec, rec.edges, _join_slack(rec.key, window, bounded)))

    leaf = _encode(_leaf_entries(cap), width)
    if 1 <= window[0] and not leaf & over:
        keep(1, leaf, ExtremalRecord(_decode(leaf, 1, cap, width), 0, (make_leaf(),)), True)

    for n in range(2, n_max + 1):
        rows.append(connected[n - 2] + sum_only[n - 2])  # level n - 1 is complete
        # pass 1: combine keys, remembering where each best candidate came
        # from, as (make_sum or make_product, part record, part record)
        candidates: dict[int, tuple[int, list[tuple]]] = {}
        # a sum's key is the pointwise maximum of its parts' keys and the
        # edgeless graph's: the 0 floor of sum_entries up to entry n
        floor = _encode((n,) + (0,) * min(n, cap) + (NEG_INF,) * (cap - n), width)
        # parts passed the window, so only the floor can fail it, and then
        # it fails it for every sum of the level; entry 0 is n for every key
        # of the level
        sums = not floor & over and n <= window[0]
        # the first part of a sum is connected-type; two connected-type
        # parts are summed once, the smaller first, or the earlier of two
        # of one level
        for n1 in range(1, n) if sums else ():
            n2 = n - n1
            right = sum_only[n2 - 1] if n1 > n2 else rows[n2 - 1]
            for i, (c1, r1, e1, _) in enumerate(connected[n1 - 1]):
                c1 |= floor
                for c2, r2, e2, _ in right[i:] if n1 == n2 else right:
                    code = c1 | c2
                    edges = e1 + e2
                    cur = candidates.get(code)
                    if cur is None or edges > cur[0]:
                        candidates[code] = (edges, [(make_sum, r1, r2)])
                    elif edges == cur[0]:
                        cur[1].append((make_sum, r1, r2))
        for n1 in range(1, n // 2 + 1) if n <= window[0] else ():
            n2 = n - n1
            same = n1 == n2
            join_left = [r for r in rows[n1 - 1] if r[3] >= n2]
            join_right = join_left if same else [r for r in rows[n2 - 1] if r[3] >= n1]
            cross = n1 * n2
            for i, (_, r1, e1, _) in enumerate(join_left):
                k1 = r1.key
                for _, r2, e2, _ in join_right[i:] if same else join_right:
                    code = _encode(product_entries(k1, r2.key, cap), width)
                    if code & over:
                        continue
                    edges = e1 + e2 + cross
                    cur = candidates.get(code)
                    if cur is None or edges > cur[0]:
                        candidates[code] = (edges, [(make_product, r1, r2)])
                    elif edges == cur[0]:
                        cur[1].append((make_product, r1, r2))
        if max_records is not None and len(candidates) > max_records:
            raise CapacityError(
                f"level {n} produced {len(candidates)} profile keys "
                f"(limit {max_records})")

        # pass 2: Pareto reduction at the (key, edges) level
        if exhaustive:
            surviving = set(candidates)
        else:
            frontier = pareto_filter((c, e) for c, (e, _) in candidates.items())
            surviving = {c for c, _ in frontier}

        # survivors keep their sources, in key order; witnesses are built
        # when first read
        for code in sorted(surviving):
            edges, sources = candidates[code]
            keep(n, code, ExtremalRecord._lazy(
                _decode(code, n, cap, width), edges, sources, witness_limit),
                any(maker is make_product for maker, _, _ in sources))

    return registries


def _fitting(r: Registry, p: BicliqueProfile) -> list[ExtremalRecord]:
    """Records whose key fits under the profile on the truncated window, in
    key order."""
    window = p.window(r.cap + 1)
    return [r.records[key] for key in sorted(r.records) if _passes(key, window)]


def query(r: Registry, p: BicliqueProfile) -> ExtremalRecord | None:
    """Best fitting record; the first in key order among equal edge counts."""
    return max(_fitting(r, p), key=attrgetter("edges"), default=None)


def query_witnesses(r: Registry, p: BicliqueProfile) -> tuple[int, tuple[Cotree, ...]]:
    """Best edge count under the profile, with witnesses merged across keys."""
    fitting = _fitting(r, p)
    best = max((rec.edges for rec in fitting), default=-1)
    wits = {w for rec in fitting if rec.edges == best for w in rec.witnesses}
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
    cap = binding_cap(p) + 1
    registries = build_registries(
        n_range.stop - 1, cap, prune=p, exhaustive=exhaustive,
        witness_limit=witness_limit, max_records=max_records)
    values: dict[int, int] = {}
    witnesses: dict[int, tuple[Cotree, ...]] = {}
    for n in n_range:
        edges, wits = query_witnesses(registries[n - 1], p)
        if edges < 0:
            continue  # no cograph on n vertices fulfills the profile
        values[n] = edges
        witnesses[n] = wits[:witness_limit]
    s = start_index(p)
    start_value = p[s]
    return ExtremalSeries(
        constraint=constraint or format_profile(p),
        alpha=profile_alpha(p),
        values=values,
        witnesses=witnesses,
        s=s,
        t=int(start_value) + 1 if start_value not in (INF, NEG_INF) else None,
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
