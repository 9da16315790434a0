"""File formats: cotree JSON, graph6 against networkx, DOT, snapshots."""

import json
import re

import networkx as nx
import pytest

from cogex.cotree import clique, to_adjacency
from cogex.enumerator import analyze_periodicity, build_registries, extremal_function
from cogex.oracle import enumerate_cotrees
from cogex.profile import forbidden_biclique_profile
from cogex.serialize import (
    CotreeFormatError,
    cotree_to_obj,
    dumps_cotree,
    graph6_bytes,
    loads_cotree,
    registry_from_obj,
    registry_to_obj,
    series_from_obj,
    series_to_csv,
    series_to_obj,
    to_dot,
)
from test_enumerator import NO_WINDOW


def test_json_round_trip_identity(k2_join_two_triangles):
    text = dumps_cotree(k2_join_two_triangles)
    again = loads_cotree(text)
    assert again == k2_join_two_triangles
    assert dumps_cotree(again) == text


def test_json_round_trip_catalog():
    for n in range(1, 7):
        for g in enumerate_cotrees(n).items:
            assert loads_cotree(dumps_cotree(g)) == g


def test_json_rejects_same_kind_nesting():
    bad = {"op": "sum", "children": [
        {"op": "sum", "children": [{"op": "leaf"}, {"op": "leaf"}]},
        {"op": "leaf"}]}
    with pytest.raises(CotreeFormatError) as exc:
        loads_cotree(json.dumps(bad))
    assert exc.value.path == "/children/0"


def test_json_rejects_single_child_and_bad_ops():
    with pytest.raises(CotreeFormatError):
        loads_cotree('{"op":"sum","children":[{"op":"leaf"}]}')
    with pytest.raises(CotreeFormatError):
        loads_cotree('{"op":"join","children":[{"op":"leaf"},{"op":"leaf"}]}')
    with pytest.raises(CotreeFormatError):
        loads_cotree('{"op":')


def test_graph6_k2():
    assert graph6_bytes(to_adjacency(clique(2))) == b"A_"


def test_graph6_matches_networkx():
    """networkx is the independent reference encoder."""
    for n in range(1, 8):
        for g in enumerate_cotrees(n).items:
            a = to_adjacency(g)
            ref_graph = nx.Graph()
            ref_graph.add_nodes_from(range(a.n))
            ref_graph.add_edges_from(a.edges())
            ref = nx.to_graph6_bytes(ref_graph, header=False).strip()
            assert graph6_bytes(a) == ref


def test_dot_structure(k2_join_two_triangles):
    dot = to_dot(k2_join_two_triangles)
    assert dot.count("•") == 8  # leaves
    assert dot.count('label="+"') == 1
    assert dot.count("×") == 3  # the root and the two triangles
    first_node = dot.splitlines()[2]
    assert "fillcolor" in first_node and "×" in first_node  # marked root


def test_catalog_graph6_lines():
    from cogex.serialize import catalog_to_graph6

    lines = catalog_to_graph6(enumerate_cotrees(4)).strip().splitlines()
    assert len(lines) == 10
    decoded = {nx.to_graph6_bytes(nx.from_graph6_bytes(l.encode()),
                                  header=False).strip() for l in lines}
    assert len(decoded) == 10  # pairwise distinct encodings


def test_registry_snapshot_round_trip():
    p = forbidden_biclique_profile(2, 2)
    regs = build_registries(5, p)
    obj = json.loads(json.dumps(registry_to_obj(regs[4], p)))
    restored, prune = registry_from_obj(obj)
    assert prune == p
    assert restored.n == 5 and restored.cap == 3
    assert restored.records == regs[4].records


@pytest.mark.parametrize("prune", [forbidden_biclique_profile(3, 3), NO_WINDOW],
                         ids=["k33-exhaustive", "no-prune"])
def test_registry_snapshots_of_every_level_round_trip(prune):
    # the record checks hold on every real DP level, keys of levels below
    # the cap (shorter than cap + 1 entries) included
    for reg in build_registries(8, prune, exhaustive=True):
        restored, p = registry_from_obj(json.loads(json.dumps(registry_to_obj(reg, prune))))
        assert (restored.n, restored.cap, p) == (reg.n, reg.cap, prune)
        assert restored.records == reg.records


@pytest.mark.parametrize("prune, named", [
    # loaded as written, the K_6 record would answer a K_{3,3} query with
    # 15 edges at n = 6, where ex = 12
    (forbidden_biclique_profile(3, 3),
     "registry snapshot field 'cap' is 2, not binding_cap(prune) + 1 = 4"),
    # K_{1,3} has the no-window cap, but not its window
    (forbidden_biclique_profile(1, 3),
     'registry record 3 key [6, 3, 2] lies outside the prune window ["inf", 2, 2]'),
], ids=["k33-cap", "k13-window"])
def test_registry_snapshot_window_follows_its_prune(prune, named):
    obj = registry_to_obj(build_registries(6, NO_WINDOW)[5], prune)
    with pytest.raises(ValueError, match=re.escape(named)):
        registry_from_obj(json.loads(json.dumps(obj)))


def test_registry_snapshot_keys_are_ints_and_inf_text():
    # a key is a JSON int list of entries 0..min(n, cap); the -inf text of
    # registry/1 keys, a float and a bool are refused, each by name
    p = forbidden_biclique_profile(2, 2)
    obj = registry_to_obj(build_registries(1, p)[0], p)
    assert obj["cap"] == 3 and obj["records"][0]["key"] == [1, 0]
    for key, named in (([1, 0, "-inf", "-inf"], 'key entry 2 is "-inf", not an int'),
                       ([1, 0.7], "key entry 1 is 0.7, not an int"),
                       ([1, True], "key entry 1 is true, not an int")):
        obj["records"][0]["key"] = key
        with pytest.raises(ValueError, match=re.escape(named)):
            registry_from_obj(obj)


def _registry_snapshot(**fields):
    obj = json.loads(json.dumps(registry_to_obj(build_registries(3, NO_WINDOW)[2], NO_WINDOW)))
    obj.update(fields)
    return obj


def _without(obj, name):
    return {k: v for k, v in obj.items() if k != name}


_RECORD = _registry_snapshot()["records"][0]


@pytest.mark.parametrize("obj, named", [
    ({"format": "cogex.registry/2"}, "registry snapshot has no 'n' field"),
    (_without(_registry_snapshot(), "cap"), "registry snapshot has no 'cap' field"),
    (_without(_registry_snapshot(), "records"), "registry snapshot has no 'records' field"),
    (_registry_snapshot(n="3"), "field 'n' must be of type int, got str"),
    (_registry_snapshot(cap=True), "field 'cap' must be of type int, got bool"),
    (_registry_snapshot(records="x"), "field 'records' must be of type list, got str"),
    (_registry_snapshot(records=[_RECORD, 7]), "registry record 1 must be an object, got int"),
    (_registry_snapshot(records=[_without(_RECORD, "key")]), "record 0 has no 'key' field"),
    (_registry_snapshot(records=[_without(_RECORD, "edges")]), "record 0 has no 'edges' field"),
    (_registry_snapshot(records=[_without(_RECORD, "witnesses")]),
     "record 0 has no 'witnesses' field"),
    (_registry_snapshot(records=[dict(_RECORD, witnesses={})]),
     "field 'witnesses' must be of type list, got dict"),
    (_registry_snapshot(prune=3), "field 'prune' must be of type str, got int"),
    ([1, 2], "not a cogex.registry/2 snapshot"),
    (_registry_snapshot(n=0), "field 'n' must be >= 1, got 0"),
    (_registry_snapshot(cap=0, records=[dict(_RECORD, key=[])]),
     "field 'cap' must be >= 1, got 0"),
    (_registry_snapshot(records=[dict(_RECORD, key=[7])]),
     "record 0 key has 1 entries, not min(n, cap) + 1 = 3"),
    (_registry_snapshot(records=[_RECORD, dict(_RECORD, key=[3, 0, 0, 0])]),
     "record 1 key has 4 entries, not min(n, cap) + 1 = 3"),
    (_registry_snapshot(records=[dict(_RECORD, key=[7, 0, 0])]),
     "record 0 key entry 0 is 7, not n = 3"),
    (_registry_snapshot(records=[dict(_RECORD, key=["-inf", 0, 0])]),
     'record 0 key entry 0 is "-inf", not an int'),
    (_registry_snapshot(records=[dict(_RECORD, edges=-4)]),
     "record 0 field 'edges' must be >= 0, got -4"),
    (_registry_snapshot(records=[dict(_RECORD, witnesses=[{"op": "leaf"}])]),
     "record 0 witness 0 has 1 vertices and 0 edges, not 3 and 0"),
    (_registry_snapshot(records=[dict(_RECORD, edges=2)]),
     "record 0 witness 0 has 3 vertices and 0 edges, not 3 and 2"),
    (_registry_snapshot(records=[dict(_RECORD, key=[7], edges=-4,
                                      witnesses=[{"op": "leaf"}])]),
     "record 0 key has 1 entries, not min(n, cap) + 1 = 3"),
    # a repeated key: level 3 has three records, the fourth repeats one
    (_registry_snapshot(records=_registry_snapshot()["records"] + [_RECORD]),
     "registry record 3 repeats the key of registry record 0"),
    (_registry_snapshot(records=[_RECORD, dict(_RECORD, edges=5)]),
     "registry record 1 repeats the key of registry record 0"),
    # a witness whose sequence is not its key: K_3 under the edgeless key
    (_registry_snapshot(records=[dict(_RECORD, edges=3, witnesses=[cotree_to_obj(clique(3))])]),
     "record 0 witness 0 has biclique sequence [3, 2, 1], not its key [3, 0, 0]"),
    (_registry_snapshot(records=[dict(_RECORD, witnesses=[_RECORD["witnesses"][0]] * 2),
                                 dict(_RECORD, key=[3, 1, 1], edges=0)]),
     "record 1 witness 0 has biclique sequence [3, 0, 0], not its key [3, 1, 1]"),
    # level 1 at cap 2 stores entries 0..1: a witness whose entry 1 is not
    # the key's, then a key with an entry past n
    (_registry_snapshot(n=1, records=[{"key": [1, 1], "edges": 0,
                                       "witnesses": [{"op": "leaf"}]}]),
     "record 0 witness 0 has biclique sequence [1, 0], not its key [1, 1]"),
    (_registry_snapshot(n=1, records=[{"key": [1, 0, 0], "edges": 0,
                                       "witnesses": [{"op": "leaf"}]}]),
     "record 0 key has 3 entries, not min(n, cap) + 1 = 2"),
    # a registry/1 snapshot, whose keys pad -inf up to cap + 1 entries
    (_registry_snapshot(format="cogex.registry/1"), "not a cogex.registry/2 snapshot"),
])
def test_registry_snapshot_malformed_fields_are_named(obj, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        registry_from_obj(obj)


def test_series_snapshot_and_csv():
    series = extremal_function(2, 2, range(1, 11))
    rep = analyze_periodicity(series)
    obj = series_to_obj(series, rep.detected_period)
    assert obj["rows"][4]["n"] == 5 and obj["rows"][4]["ex"] == 6
    restored = series_from_obj(json.loads(json.dumps(obj)))
    assert restored.values == series.values
    assert restored.alpha == series.alpha

    csv_text = series_to_csv(series, rep.detected_period)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,ex,alpha_n,bound_ok,residue,witness"
    assert lines[5].startswith("5,6,15/2,True,1,")


def test_series_csv_leaves_null_fields_empty():
    # s = 1 asserts no strict bound and no period is given: both fields are
    # empty, as the JSON rows hold null there
    series = extremal_function(1, 3, range(1, 4))
    assert [(r["bound_ok"], r["residue"]) for r in series_to_obj(series)["rows"]] == \
        [(None, None)] * 3
    assert series_to_csv(series) == (
        "n,ex,alpha_n,bound_ok,residue,witness\n"
        "1,0,1,,,*\n"
        '2,1,2,,,"x(*,*)"\n'
        '3,3,3,,,"x(*,*,*)"\n')
    # a series read from a snapshot has no witnesses
    restored = series_from_obj(json.loads(json.dumps(series_to_obj(series, 2))))
    assert series_to_csv(restored, 2).splitlines()[1:] == ["1,0,1,,1,", "2,1,2,,0,", "3,3,3,,1,"]
