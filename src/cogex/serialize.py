"""File formats: cotree JSON, graph6, DOT, registry and series snapshots.

Cotree JSON is written and read without recursion.  The writers keep
explicit stacks of text pieces; the loader, ``cotree_from_obj``, is one
loop over an explicit stack of open nodes that hands each node to
``cotree._node`` and every leaf to the shared leaf node.  Only
``json.loads`` still limits the depth of a cotree that can be read.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .cotree import (
    LEAF,
    PROD,
    SUM,
    _LEAF,
    AdjacencyGraph,
    Cotree,
    _node,
    biclique_sequence,
    canonical_form,
    fold,
    to_adjacency,
)
from .enumerator import ExtremalRecord, ExtremalSeries, Registry, _passes
from .profile import (INF, NEG_INF, BicliqueProfile, _format_value, binding_cap, format_profile,
                      parse_profile)

COTREE_FORMAT = "cogex.cotree/1"
REGISTRY_FORMAT = "cogex.registry/2"
SERIES_FORMAT = "cogex.series/1"


class CotreeFormatError(ValueError):
    """Malformed cotree JSON; ``path`` locates the offending node."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} at {path or '/'}")
        self.path = path


# =============================================================================
# Cotree JSON: {"op":"leaf"} | {"op":"sum"|"prod","children":[...]}
# =============================================================================

def cotree_to_obj(g: Cotree) -> dict:
    """The cotree JSON object of g; its leaves share one dict."""
    return fold(g, {"op": "leaf"}, lambda node, kids: {"op": node.kind, "children": kids})


_LEAF_OBJ = {"op": LEAF}


def cotree_from_obj(obj, path: str = "") -> Cotree:
    """Parse, enforcing >= 2 children and sum/product alternation.

    One loop over an explicit stack of open inner nodes, so any depth
    parses at the default recursion limit.  Nodes are checked in
    depth-first order, and a malformed node's path is built from the stack
    only when its error is raised.  Children were checked not to be of
    their parent's kind, so each node goes to ``_node`` without splicing.
    """
    stack: list = []  # open inner nodes: (kind, children left, kids parsed so far)

    def malformed(message: str) -> CotreeFormatError:
        # the node in question is child len(kids) of each open node
        return CotreeFormatError(message, path + "".join(
            f"/children/{len(kids)}" for _, _, kids in stack))

    def check(obj) -> Cotree | None:
        """A leaf, or None once a well-formed inner node is on the stack."""
        if not isinstance(obj, dict) or "op" not in obj:
            raise malformed("expected an object with an 'op' field")
        op = obj["op"]
        if op == LEAF:
            if "children" in obj:
                raise malformed("leaf must not have children")
            return _LEAF
        if op not in (SUM, PROD):
            raise malformed(f"unknown op {op!r}")
        children = obj.get("children")
        if not isinstance(children, list) or len(children) < 2:
            raise malformed("inner node needs a list of >= 2 children")
        stack.append((SUM if op == SUM else PROD, iter(children), []))
        return None

    leaf = check(obj)
    if leaf is not None:
        return leaf
    while True:
        kind, left, kids = stack[-1]
        for child in left:
            if child == _LEAF_OBJ:
                kids.append(_LEAF)
            elif isinstance(child, dict) and child.get("op") == kind:
                raise malformed(f"{kind} child under {kind} node violates reduction")
            elif check(child) is None:
                break  # parse the child's children first
            else:
                kids.append(_LEAF)
        else:
            stack.pop()
            node = _node(kind, kids)
            if not stack:
                return node
            stack[-1][2].append(node)


def dumps_cotree(g: Cotree) -> str:
    """Canonical JSON text: stable key order, no whitespace."""
    # the pieces of _indented_node_text in compact JSON, the same at every depth
    pieces = ('{"children":[', {k: '],"op":"' + k + '"}' for k in (SUM, PROD)},
              ',', '{"op":"leaf"}', ',{"op":"leaf"}')
    return "".join(_cotree_json(g, 0, lambda depth: pieces, []))


def _indented_node_text(depth: int) -> tuple:
    """Text pieces of an inner node whose fields sit at nesting depth
    ``depth`` in indent-2 JSON: its opening up to the first child, its
    closing by kind, the separator before each later child, and a leaf
    child (fields at depth + 2) with and without that separator."""
    outer, fields, item = ("  " * k for k in (depth - 1, depth, depth + 1))
    leaf = '{\n' + item + '  "op": "leaf"\n' + item + '}'
    sep = ',\n' + item
    closing = {kind: '\n' + fields + '],\n' + fields + '"op": "' + kind + '"\n' + outer + '}'
               for kind in (SUM, PROD)}
    return '{\n' + fields + '"children": [\n' + item, closing, sep, leaf, sep + leaf


def _cotree_json(g: Cotree, depth: int, node_text, parts: list[str]) -> list[str]:
    """Append to ``parts`` the JSON text of g, whose fields sit at nesting
    depth ``depth``, in one loop over an explicit stack of text fragments
    and pending inner nodes.  Only the fixed pieces ``node_text(depth)`` of
    each depth are reused, not the text of subtrees, which would hold a
    copy of the output in memory."""
    emit = parts.append
    stack: list = [(g, depth)] if g.kind != LEAF else [node_text(depth - 2)[3]]
    push, pop = stack.append, stack.pop
    pieces: dict[int, tuple] = {}
    while stack:
        item = pop()
        if item.__class__ is str:
            emit(item)
            continue
        node, depth = item
        opening, closing, sep, leaf, sep_leaf = (
            pieces.get(depth) or pieces.setdefault(depth, node_text(depth)))
        emit(opening)
        push(closing[node.kind])
        kids, depth = node.children, depth + 2
        for c in reversed(kids[1:]):
            if c.kind == LEAF:
                push(sep_leaf)
            else:
                push((c, depth))
                push(sep)
        push(leaf if kids[0].kind == LEAF else (kids[0], depth))
    return parts


def dumps_cotree_document(g: Cotree, verification: dict) -> str:
    """The ``cogex.cotree/1`` document of g with its verification block.

    The text is byte-identical to ``json.dumps({"cotree": cotree_to_obj(g),
    "format": COTREE_FORMAT, "verification": verification}, indent=2,
    sort_keys=True)``, but the cotree is written by ``_cotree_json``, not
    the ``json`` encoder, whose indenting mode runs in pure Python.
    """
    parts = _cotree_json(g, 2, _indented_node_text, ['{\n  "cotree": '])
    parts += [',\n  "format": "' + COTREE_FORMAT + '",\n  "verification": ',
              json.dumps(verification, indent=2, sort_keys=True).replace("\n", "\n  "), "\n}"]
    return "".join(parts)


def loads_cotree(text: str) -> Cotree:
    """Parse cotree JSON, bare or as the ``cotree`` field of a
    ``cogex.cotree/1`` document such as ``construct`` writes."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CotreeFormatError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from exc
    if isinstance(obj, dict) and obj.get("format") == COTREE_FORMAT:
        return cotree_from_obj(obj.get("cotree"), "/cotree")
    return cotree_from_obj(obj)


# =============================================================================
# graph6
# =============================================================================

def graph6_bytes(a: AdjacencyGraph) -> bytes:
    """Standard graph6 encoding of an adjacency matrix (n <= 62 supported)."""
    n = a.n
    if n > 62:
        raise ValueError("graph6 writer supports n <= 62")
    out = bytearray([63 + n])
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if a.rows[i] >> j & 1 else 0)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val << 1 | b
        out.append(63 + val)
    return bytes(out)


def catalog_to_graph6(catalog) -> str:
    """Whole-catalog export, one graph6 line per isomorphism class."""
    return "".join(
        graph6_bytes(to_adjacency(g, limit=catalog.n)).decode("ascii") + "\n"
        for g in catalog.items)


# =============================================================================
# DOT
# =============================================================================

_DOT_LABEL = {"sum": "+", "prod": "×", "leaf": "•"}


def to_dot(g: Cotree) -> str:
    """DOT digraph cotree: inner nodes labeled +/x, root highlighted, numbered in pre-order."""
    lines = ["digraph cotree {", "  node [shape=circle];",
             f'  n0 [label="{_DOT_LABEL[g.kind]}" style=filled fillcolor="mediumpurple"];']
    stack = [("n0", iter(g.children))]  # node id, children left
    count = 0
    while stack:
        parent, kids = stack[-1]
        for c in kids:
            count += 1
            nid = f"n{count}"
            lines.append(f'  {nid} [label="{_DOT_LABEL[c.kind]}"];')
            lines.append(f"  {parent} -> {nid};")
            if c.kind != LEAF:
                stack.append((nid, iter(c.children)))
                break
        else:
            stack.pop()
    lines.append("}")
    return "\n".join(lines) + "\n"


# =============================================================================
# Registry and series snapshots
# =============================================================================

def _window_to_json(window: tuple) -> list:
    """A prune window's entries: finite ones as JSON ints, infinite ones in
    the profile text form."""
    return [_format_value(v) if v in (INF, NEG_INF) else int(v) for v in window]


def registry_to_obj(r: Registry, prune: BicliqueProfile | None = None) -> dict:
    return {
        "format": REGISTRY_FORMAT,
        "n": r.n,
        "cap": r.cap,
        "prune": None if prune is None else format_profile(prune),
        "records": [
            {
                "key": list(key),
                "edges": rec.edges,
                "witnesses": [cotree_to_obj(w) for w in rec.witnesses],
            }
            for key, rec in sorted(r.records.items())
        ],
    }


def registry_from_obj(obj: dict) -> tuple[Registry, BicliqueProfile | None]:
    """The registry and prune profile of a ``cogex.registry/2`` snapshot,
    whose keys are JSON int lists of entries 0..min(n, cap); ValueError
    names the first missing or mistyped field or key entry, a cap other
    than the prune profile's ``binding_cap + 1``, the first record whose
    key, edges or witnesses do not match the level's n and cap or whose key
    lies outside the prune profile's window, the first record that repeats
    a key, or the first witness whose biclique sequence at the level's cap
    is not its record's key."""
    if not isinstance(obj, dict) or obj.get("format") != REGISTRY_FORMAT:
        raise ValueError(f"not a {REGISTRY_FORMAT} snapshot")
    where = "registry snapshot"
    r = Registry(_field(obj, "n", int, where, least=1),
                 _field(obj, "cap", int, where, least=1))
    prune = None if obj.get("prune") is None else parse_profile(_field(obj, "prune", str, where))
    if prune is not None and r.cap != (want := binding_cap(prune) + 1):
        raise ValueError(f"{where} field 'cap' is {r.cap}, not binding_cap(prune) + 1 = {want}")
    window = None if prune is None else prune.window(r.cap + 1)
    for i, rec in enumerate(_field(obj, "records", list, where)):
        at = f"registry record {i}"
        rec = _object(rec, at)
        key = tuple(_field(rec, "key", list, at))
        for j, v in enumerate(key):
            if v.__class__ is not int:
                raise ValueError(f"{at} key entry {j} is {json.dumps(v)}, not an int")
        if len(key) != (length := min(r.n, r.cap) + 1):
            raise ValueError(f"{at} key has {len(key)} entries, not min(n, cap) + 1 = {length}")
        if key[0] != r.n:
            raise ValueError(f"{at} key entry 0 is {key[0]}, not n = {r.n}")
        if window is not None and not _passes(key, window):
            raise ValueError(f"{at} key {json.dumps(list(key))} lies outside the "
                             f"prune window {json.dumps(_window_to_json(window))}")
        if key in r.records:
            raise ValueError(f"{at} repeats the key of registry record "
                             f"{list(r.records).index(key)}")
        edges = _field(rec, "edges", int, at, least=0)
        witnesses = tuple(map(cotree_from_obj, _field(rec, "witnesses", list, at)))
        for j, w in enumerate(witnesses):
            if (w.n, w.edges) != (r.n, edges):
                raise ValueError(f"{at} witness {j} has {w.n} vertices and {w.edges} "
                                 f"edges, not {r.n} and {edges}")
            if (seq := biclique_sequence(w, r.cap)) != key:
                raise ValueError(f"{at} witness {j} has biclique sequence "
                                 f"{json.dumps(list(seq))}, not its key "
                                 f"{json.dumps(list(key))}")
        r.records[key] = ExtremalRecord(key, edges, witnesses)
    return r, prune


def series_to_obj(series: ExtremalSeries, detected_period: int | None = None) -> dict:
    at_bound = set(series.at_bound())
    rows = [{
        "n": n,
        "ex": series.values[n],
        "alpha_n": str(series.alpha * n),
        "bound_ok": n not in at_bound if series.asserts_strict_bound else None,
        "residue": (n % detected_period) if detected_period else None,
        "witnesses": [canonical_form(w).decode("ascii") for w in series.witnesses.get(n, ())],
    } for n in series.ns()]
    return {
        "format": SERIES_FORMAT,
        "constraint": series.constraint,
        "s": series.s,
        "t": series.t,
        "alpha": str(series.alpha),
        "detected_period": detected_period,
        "rows": rows,
    }


def _field(obj: dict, name: str, kind: type, where: str = "series snapshot",
           least: int | None = None):
    """obj[name], which must be a ``kind`` (not a bool) and, given
    ``least``, at least ``least``; ValueError naming the field otherwise."""
    if name not in obj:
        raise ValueError(f"{where} has no {name!r} field")
    value = obj[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where} field {name!r} must be of type {kind.__name__}, "
                         f"got {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{where} field {name!r} must be >= {least}, got {value}")
    return value


def _object(value, where: str) -> dict:
    """value, which must be a JSON object; ValueError naming ``where`` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {type(value).__name__}")
    return value


def series_from_obj(obj: dict) -> ExtremalSeries:
    """The series of a ``cogex.series/1`` snapshot; ValueError names the
    first missing or mistyped field, or a row with n < 1 or ex < 0."""
    if not isinstance(obj, dict) or obj.get("format") != SERIES_FORMAT:
        raise ValueError(f"not a {SERIES_FORMAT} snapshot")
    values = {}
    for i, row in enumerate(_field(obj, "rows", list)):
        at = f"series row {i}"
        row = _object(row, at)
        n = _field(row, "n", int, at, least=1)
        if n in values:
            raise ValueError(f"{at} repeats n = {n}")
        values[n] = _field(row, "ex", int, at, least=0)
    # a DP series has no gaps: the induced subgraphs of a cograph that
    # fulfills a profile fulfill it too
    for n in range(min(values, default=0), max(values, default=0)):
        if n not in values:
            raise ValueError(f"series snapshot has no row for n = {n}")
    try:
        alpha = Fraction(_field(obj, "alpha", str))
    except ZeroDivisionError:
        raise ValueError("series snapshot field 'alpha' has a zero denominator") from None
    return ExtremalSeries(
        constraint=_field(obj, "constraint", str),
        alpha=alpha,
        values=values,
        witnesses={},
        s=obj.get("s"),
        t=obj.get("t"),
    )


def series_to_csv(series: ExtremalSeries, detected_period: int | None = None) -> str:
    """Columns: n, ex, alpha_n, bound_ok, residue, witness.  The rows of
    ``series_to_obj`` with their first witness; a null field is empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "ex", "alpha_n", "bound_ok", "residue", "witness"])
    writer.writerows([row["n"], row["ex"], row["alpha_n"], row["bound_ok"], row["residue"],
                      (row["witnesses"] or [""])[0]]
                     for row in series_to_obj(series, detected_period)["rows"])
    return buf.getvalue()
