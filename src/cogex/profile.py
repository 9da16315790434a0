"""Biclique profiles: upper-bound constraint sequences and their algebra.

A profile is a decreasing, subdiagonal sequence over {-inf} ∪ N ∪ {+inf}
that a graph may *fulfill* pointwise with its biclique sequence.  All
profiles used anywhere in the pipeline are eventually constant, so the
representation is an explicit prefix plus a repeated tail value.

Subdiagonality mirrors the part-swap symmetry of bicliques: whenever two
finite entries satisfy P_j < l, the entry P_l must be < j.  The check is
applied to pairs of finite entries; see ``BicliqueProfile``.

``fulfills`` and ``restrict`` take a graph's sequence as the int tuple
``cotree.Entries``, its entries 0..min(n, cap), and read its vertex count n
as entry 0.  Infinite values live here only: in profile entries, windows
and profile text.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .cotree import Entries

NEG_INF = float("-inf")
INF = float("inf")

Value = float  # int, or INF / NEG_INF


class ProfileError(ValueError):
    """A candidate sequence is not a valid biclique profile.

    ``reason`` is "not-decreasing" or "not-subdiagonal"; ``indices`` names
    the witnessing index pair.
    """

    def __init__(self, reason: str, indices: tuple[int, int], message: str):
        super().__init__(message)
        self.reason = reason
        self.indices = indices


class BicliqueProfile:
    """Eventually constant profile: explicit ``prefix`` then repeated ``tail``;
    one that breaks a rule raises ProfileError naming the failing index pair."""

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: Iterable[Value], tail: Value):
        norm_prefix, norm_tail = _normalize(tuple(prefix), tail)
        _check(norm_prefix, norm_tail)
        self.prefix = norm_prefix
        self.tail = norm_tail

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    def __getitem__(self, i: int) -> Value:
        if i < 0:
            raise IndexError(i)
        return self.prefix[i] if i < len(self.prefix) else self.tail

    def window(self, length: int) -> tuple[Value, ...]:
        """The first ``length`` entries, materialized."""
        return tuple(self[i] for i in range(length))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BicliqueProfile)
                and self.prefix == other.prefix and self.tail == other.tail)

    def __hash__(self) -> int:
        return hash((self.prefix, self.tail))

    def __repr__(self) -> str:
        return f"BicliqueProfile({format_profile(self)!r})"


def _normalize(prefix: tuple[Value, ...], tail: Value) -> tuple[tuple[Value, ...], Value]:
    values = list(prefix)
    while values and values[-1] == tail:
        values.pop()
    return tuple(values), tail


def _window_for_checks(prefix: tuple[Value, ...], tail: Value) -> list[Value]:
    finite = [v for v in list(prefix) + [tail] if v not in (INF, NEG_INF)]
    top = int(max(finite)) if finite else 0
    k = max(len(prefix) + 1, top + 2, 2)
    return [prefix[i] if i < len(prefix) else tail for i in range(k)]


def _check(prefix: tuple[Value, ...], tail: Value) -> None:
    w = _window_for_checks(prefix, tail)
    for i in range(len(w) - 1):
        if w[i] < w[i + 1]:
            raise ProfileError(
                "not-decreasing", (i, i + 1),
                f"not decreasing at ({i}, {i + 1}): P_{i} = {w[i]} < P_{i + 1} = {w[i + 1]}")
    # part-swap consistency between finite entries at indices j < l:
    # P_j < l forces P_l < j.  By decreasingness it suffices to test the
    # smallest such l for each j.
    for j, vj in enumerate(w):
        if vj in (INF, NEG_INF):
            continue
        l = max(int(vj) + 1, j + 1)
        if l < len(w) and w[l] != NEG_INF and not w[l] < j:
            raise ProfileError(
                "not-subdiagonal", (j, l),
                f"not subdiagonal: P_{j} = {vj} < {l} requires P_{l} < {j}, "
                f"got P_{l} = {w[l]}")


# =============================================================================
# Text form: "inf,inf,inf;2" = prefix (inf, inf, inf), tail 2
# =============================================================================

def _parse_value(token: str) -> Value:
    token = token.strip()
    if token in ("inf", "+inf", "oo"):
        return INF
    if token == "-inf":
        return NEG_INF
    return int(token)


def _format_value(v: Value) -> str:
    if v == INF:
        return "inf"
    if v == NEG_INF:
        return "-inf"
    return str(int(v))


def parse_profile(text: str) -> BicliqueProfile:
    """Parse the CLI/JSON text form, e.g. ``"inf,inf,inf;2"``."""
    if ";" not in text:
        raise ValueError(f"profile text needs ';tail': {text!r}")
    head, _, tail_part = text.rpartition(";")
    prefix = tuple(_parse_value(t) for t in head.split(",")) if head.strip() else ()
    return BicliqueProfile(prefix, _parse_value(tail_part))


def format_profile(p: BicliqueProfile) -> str:
    head = ",".join(_format_value(v) for v in p.prefix)
    return f"{head};{_format_value(p.tail)}"


# =============================================================================
# Lattice order, fulfillment, start index
# =============================================================================

def dominates(p: BicliqueProfile, q: BicliqueProfile) -> bool:
    """True iff p >= q pointwise with at least one strict index."""
    span = max(p.prefix_len, q.prefix_len) + 1
    strict = False
    for i in range(span):
        a, b = p[i], q[i]
        if a < b:
            return False
        if a > b:
            strict = True
    return strict


def fulfills(s: Entries, p: BicliqueProfile) -> bool:
    """Pointwise comparison of an exact sequence against a profile.

    Entries up to the profile's prefix length decide the comparison: both
    sides are decreasing and constant beyond that window, so a sequence
    truncated at a cap that reaches it (or reaches n) serves.
    """
    needed = min(p.prefix_len, s[0])
    if len(s) <= needed:
        raise ValueError(
            f"sequence computed to cap {len(s) - 1} but comparison needs entry {needed}")
    for i in range(needed + 1):
        if s[i] > p[i]:
            return False
    return True


def start_index(p: BicliqueProfile) -> int:
    """Minimal index with a value below +inf."""
    for i in range(p.prefix_len + 1):
        if p[i] != INF:
            return i
    raise ValueError("all-infinite profile has no start index")


def forbidden_biclique_profile(s: int, t: int) -> BicliqueProfile:
    """The profile fulfilled exactly by the K_{s,t}-free graphs.

    Infinite below index s, then t-1 up to index t, then s-1.  For s = 1
    this is also the subdiagonal closure of the max-degree request
    (inf, t-1, t-1, ...): the tail drops to 0.
    """
    if s < 1 or s > t:
        raise ValueError(f"need 1 <= s <= t, got ({s}, {t})")
    prefix = (INF,) * s + (t - 1,) * (t - s)
    return BicliqueProfile(prefix, s - 1)


def alpha_for(s: int, t: int) -> Fraction:
    """Linear growth coefficient of the extremal edge count for K_{s,t}."""
    return Fraction(t - 1, 2) + (s - 1)


def profile_alpha(p: BicliqueProfile) -> Fraction:
    """Growth coefficient bound derived from the start index and start value."""
    s = start_index(p)
    start_val = p[s]
    if start_val in (INF, NEG_INF):
        raise ValueError("start value must be finite")
    return Fraction(int(start_val), 2) + (s - 1)


def binding_cap(p: BicliqueProfile) -> int:
    """Largest index the DP must track to decide fulfillment of ``p``.

    Decreasing graph sequences make an index constraint redundant when a
    smaller tracked index carries the same value, or when the part-swap
    symmetry covers it (P_j < j and the entry at P_j + 1, already inside
    the window, is at most j - 1).  A -inf entry at index j admits no graph
    on j or more vertices, whose entry j is at least 0, so the window
    (entries 0..binding_cap + 1) reaches the first such j, and no later
    index matters.  For the K_{s,t} profile this returns s.
    """
    last = 1
    prev_value: Value | None = None
    for j in range(p.prefix_len + 1):
        v = p[j]
        if v == NEG_INF:
            return max(last, j - 1)
        if v == INF:
            continue
        covered = (
            # monotonicity through an earlier enforced-or-covered index
            (prev_value is not None and v >= prev_value)
            # part-swap through index v + 1, already inside the window
            or (j > v + 1 and v + 1 <= last and p[int(v) + 1] <= j - 1)
        )
        if not covered:
            last = max(last, j)
        prev_value = v
    return last


# =============================================================================
# Restriction: what the other factor of a join must fulfill
# =============================================================================

def restrict(p: BicliqueProfile, p1: Entries) -> BicliqueProfile:
    """Profile a graph G2 must fulfill so that G1 x G2 fulfills ``p``.

    ``p1`` is the exact sequence of the concrete factor G1, entries 0..n;
    the minimum ranges over those entries.  Finite negative results are
    clamped to -inf (no graph sequence entry lies strictly between -inf
    and 0, so fulfillment is unchanged).
    """
    if len(p1) <= p1[0]:  # entries 0..n are needed
        raise ValueError("restriction needs the complete sequence of the factor")
    finite = list(enumerate(p1[:p1[0] + 1]))

    def entry(c: int) -> Value:
        best = INF
        for a, va in finite:
            pv = p[a + c]
            if pv == INF:
                continue
            if pv == NEG_INF:
                return NEG_INF
            d = pv - va
            if d < best:
                best = d
        if best != INF and best < 0:
            return NEG_INF
        return best

    length = p.prefix_len
    prefix = tuple(entry(c) for c in range(length))
    tail = entry(length)
    try:
        return BicliqueProfile(prefix, tail)
    except ProfileError as exc:
        raise ProfileError(
            exc.reason, exc.indices,
            f"restriction produced an invalid profile ({exc}); the constraint "
            f"must be valid and the factor sequence must come from a graph") from exc
