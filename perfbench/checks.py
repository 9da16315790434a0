"""Output checks for every benchmark operation, using the benchmark's own code.

Each check takes the text an operation wrote and the expectation the
workload generator recorded for it, and returns None when the output is
right or a one-line reason when it is not.  Expected values come from
closed forms, from golden tables stored with the benchmark, or from the
benchmark's own cotree arithmetic in ``cotrees``; never from cogex.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

import cotrees as ct

GOLDEN_PATH = Path(__file__).with_name("golden.json")
VERIFY_CHECK_COUNT = 74


# =============================================================================
# Closed forms
# =============================================================================

def ex_k33(n: int) -> int:
    """ex(n, K_{3,3}) over cographs for n >= 2: an edge joined to triangles."""
    m = n - 2
    return 1 + 2 * m + 3 * (m // 3) + (m % 3 == 2)


def ex_k23(n: int) -> int:
    """ex(n, K_{2,3}) over cographs for n >= 1: a vertex joined to triangles."""
    m = n - 1
    return m + 3 * (m // 3) + (m % 3 == 2)


def regular_feasible(n: int, d: int) -> bool:
    """Whether a d-regular cograph on n vertices exists."""
    if n % 2 == 1 and d % 2 == 1:
        return False
    return not (n % 2 == 1 and n > 1 and 2 * d == n - 1)


def construct_expectation(family: str, **p: int) -> dict:
    """Vertex and edge counts of a constructed family member; for regular
    graphs also the one degree every vertex has."""
    if family == "k33":
        return {"vertices": p["n"], "edges": ex_k33(p["n"])}
    if family == "k2t":
        m = p["n"] - 1
        edges = ex_k23(p["n"]) if p["t"] == 3 else m + m // 2
        return {"vertices": p["n"], "edges": edges}
    if family == "star":
        n, t = p["n"], p["t"]
        if n < t:
            edges = comb(n, 2)
        elif regular_feasible(n, t - 1):
            edges = n * (t - 1) // 2
        elif t == 2:
            edges = (n - 1) // 2
        else:
            raise ValueError(f"no closed form for star t={t} n={n}")
        return {"vertices": n, "edges": edges}
    if family == "regular":
        return {"vertices": p["n"], "edges": p["n"] * p["d"] // 2, "degree": p["d"]}
    if family == "clique-product":
        s, t, r = p["s"], p["t"], p["r"]
        return {"vertices": s - 1 + r * t,
                "edges": comb(s - 1, 2) + r * comb(t, 2) + (s - 1) * r * t}
    raise ValueError(f"unknown family {family!r}")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@contextmanager
def _deep_json():
    """json.loads nests one interpreter frame per level; outputs of deep
    trees need more than the default limit.  Only this process is affected."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 20000))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _loads(text: str):
    with _deep_json():
        return json.loads(text)


# =============================================================================
# enumerate / analyze / verify
# =============================================================================

def _check_witnesses(n: int, ex: int, witnesses: list[str]) -> str | None:
    if not witnesses:
        return f"n={n}: no witness"
    for w in witnesses:
        if ct.canon_counts(w) != (n, ex):
            return f"n={n}: witness {w} has (vertices, edges) {ct.canon_counts(w)}, want ({n}, {ex})"
    return None


def _check_ex_table(got: dict[int, int], want: list[int], closed_form) -> str | None:
    if sorted(got) != list(range(1, len(want) + 1)):
        return f"rows cover n={sorted(got)}, want 1..{len(want)}"
    for n, ex in got.items():
        if ex != want[n - 1]:
            return f"n={n}: ex={ex}, golden {want[n - 1]}"
        if closed_form is not None and n >= 2 and ex != closed_form(n):
            return f"n={n}: ex={ex}, closed form {closed_form(n)}"
    return None


def check_enumerate(text: str, expect: dict, golden: dict) -> str | None:
    want = golden["enumerate"][expect["table"]]
    closed = ex_k33 if (expect["s"], expect["t"]) == (3, 3) else None
    if expect["format"] == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        got = {int(r["n"]): int(r["ex"]) for r in rows}
        wits = {int(r["n"]): [r["witness"]] for r in rows}
        bounds = {int(r["n"]): r["bound_ok"] == "True" for r in rows}
    else:
        obj = _loads(text)
        got = {r["n"]: r["ex"] for r in obj["rows"]}
        wits = {r["n"]: r["witnesses"] for r in obj["rows"]}
        bounds = {r["n"]: r["bound_ok"] is True for r in obj["rows"]}
    bad = _check_ex_table(got, want, closed)
    if bad:
        return bad
    for n, ex in got.items():
        if not bounds[n]:
            return f"n={n}: strict bound not reported as holding"
        bad = _check_witnesses(n, ex, wits[n])
        if bad:
            return bad
    return None


def check_analyze(text: str, expect: dict, golden: dict) -> str | None:
    obj = _loads(text)
    if obj != golden["analyze"][expect["table"]]:
        return "periodicity report differs from the golden report"
    # the K_{2,3} closed form has period 3; its residues fix the constants
    alpha = Fraction(obj["alpha"])
    n_max = expect["n_max"]
    want = {str(n % 3): str(ex_k23(n) - alpha * n) for n in range(n_max - 2, n_max + 1)}
    if obj["detected_period"] != 3 or obj["constants"] != want:
        return f"constants {obj['constants']} period {obj['detected_period']}, closed form gives {want}"
    return None


def check_verify(text: str, expect: dict, golden: dict) -> str | None:
    obj = _loads(text)
    checks = obj.get("checks", [])
    failed = [c["check"] for c in checks if not c["passed"]]
    if len(checks) != VERIFY_CHECK_COUNT or failed or obj.get("passed") is not True:
        return f"{len(checks)} checks, failed {failed}, passed={obj.get('passed')}"
    return None


# =============================================================================
# construct / export
# =============================================================================

def check_construct(text: str, expect: dict, golden: dict) -> str | None:
    obj = _loads(text)
    tree = obj["cotree"]
    m = ct.measure(tree)
    ver = obj["verification"]
    got = (m["vertices"], m["edges"])
    if got != (expect["vertices"], expect["edges"]):
        return f"recounted (vertices, edges) {got}, want ({expect['vertices']}, {expect['edges']})"
    if (ver["vertices"], ver["edges"]) != got:
        return f"reported ({ver['vertices']}, {ver['edges']}) != recounted {got}"
    if ver.get("fulfills_constraint") is False:
        return "reported as not fulfilling its constraint"
    if "degree" in expect and set(ct.degrees(tree)) != {expect["degree"]}:
        return f"degrees {sorted(set(ct.degrees(tree)))}, want {{{expect['degree']}}}"
    return None


def check_export_json(text: str, expect: dict, golden: dict) -> str | None:
    if text != expect["text"]:
        return "export differs from the canonical text of its input"
    tree, _ = ct.canonical(_loads(text))
    if ct.dumps(tree) != text:
        return "export is not a canonical fixed point"
    return None


_DOT_LABEL = re.compile(r'label="([^"]*)"')
_DOT_KIND = {"+": ct.SUM, "×": ct.PROD, "•": ct.LEAF}


def check_export_dot(text: str, expect: dict, golden: dict) -> str | None:
    lines = text.splitlines()
    if lines[:2] != ["digraph cotree {", "  node [shape=circle];"] or lines[-1] != "}":
        return "not a cotree digraph"
    kinds: Counter = Counter()
    arrows = 0
    for line in lines[2:-1]:
        if "->" in line:
            arrows += 1
            continue
        label = _DOT_LABEL.search(line)
        if label is None or label.group(1) not in _DOT_KIND:
            return f"unexpected line {line!r}"
        kinds[_DOT_KIND[label.group(1)]] += 1
    got = {k: kinds[k] for k in (ct.LEAF, ct.SUM, ct.PROD)}
    want = {k: expect[k] for k in got}
    if got != want or arrows != sum(got.values()) - 1:
        return f"node kinds {got} with {arrows} arcs, want {want}"
    return None


def graph6_degrees(text: str) -> Counter:
    """Degree multiset of a graph6 string with at most 62 vertices."""
    data = text.strip().encode("ascii")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError("graph6 header out of range")
    bits = []
    for byte in data[1:]:
        v = byte - 63
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    deg = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                deg[i] += 1
                deg[j] += 1
            pos += 1
    if any(bits[pos:]) or len(bits) - pos >= 6:
        raise ValueError("graph6 padding is wrong")
    return Counter(deg)


def check_export_graph6(text: str, expect: dict, golden: dict) -> str | None:
    got = graph6_degrees(text)
    want = Counter({int(k): v for k, v in expect["degrees"].items()})
    if got != want:
        return f"degree multiset {dict(got)}, want {dict(want)}"
    return None


CHECKS = {
    "enumerate": check_enumerate,
    "analyze": check_analyze,
    "verify": check_verify,
    "construct": check_construct,
    "export-json": check_export_json,
    "export-dot": check_export_dot,
    "export-graph6": check_export_graph6,
}


def check_output(kind: str, text: str, expect: dict, golden: dict) -> str | None:
    """None if the output is right, else the reason, exceptions included."""
    try:
        return CHECKS[kind](text, expect, golden)
    except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
        return f"{type(exc).__name__}: {exc}"
