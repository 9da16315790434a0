"""CLI surface: subcommands, exit codes, artifact determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cogex
from cogex.cli import main
from cogex.constructions import clique_product_family
from cogex.enumerator import analyze_periodicity, extremal_function
from cogex.serialize import dumps_cotree
from cogex.verification import SELECTORS


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_enumerate_csv(capsys):
    code, out, _ = run(["enumerate", "--s", "2", "--t", "2", "--n-max", "12",
                        "--format", "csv"], capsys)
    assert code == 0
    rows = {int(line.split(",")[0]): int(line.split(",")[1])
            for line in out.strip().splitlines()[1:]}
    assert rows[5] == 6


def test_enumerate_profile_equals_st(capsys):
    code, a, _ = run(["enumerate", "--profile", "inf,inf,inf;2", "--n-max", "10"],
                     capsys)
    assert code == 0
    code, b, _ = run(["enumerate", "--s", "3", "--t", "3", "--n-max", "10"], capsys)
    assert code == 0
    ex_a = {r["n"]: r["ex"] for r in json.loads(a)["rows"]}
    ex_b = {r["n"]: r["ex"] for r in json.loads(b)["rows"]}
    assert ex_a == ex_b


def test_enumerate_small_n_complete_graph(capsys):
    code, out, _ = run(["enumerate", "--s", "3", "--t", "3", "--n-max", "4"], capsys)
    assert code == 0
    for row in json.loads(out)["rows"]:
        n = row["n"]
        assert row["ex"] == n * (n - 1) // 2


def test_enumerate_s1_summary_names_the_equalities(capsys):
    # K_{1,t}: ex(n) = (t-1)n/2 wherever a (t-1)-regular graph exists, so
    # the strict bound is not claimed; the summary lists where it is met
    code, out, err = run(["enumerate", "--s", "1", "--t", "1", "--n-max", "4"], capsys)
    assert code == 0
    assert [row["ex"] for row in json.loads(out)["rows"]] == [0, 0, 0, 0]
    assert "holds throughout" not in err
    assert "strict bound not asserted for s = 1; ex >= 0 * n at n=[1, 2, 3, 4]" in err
    code, _, err = run(["enumerate", "--s", "1", "--t", "3", "--n-max", "8"], capsys)
    assert code == 0
    assert "ex >= 1 * n at n=[3, 4, 6, 7, 8]" in err


def test_enumerate_profile_from_index_0_asserts_no_strict_bound(capsys):
    # entry 0 finite bounds the vertex count; alpha is no edge bound then.
    # Entry 3 is -inf, so no graph on 3 or more vertices fulfills it
    code, out, err = run(["enumerate", "--profile", "3,1,0;-inf", "--n-max", "12"],
                         capsys)
    assert code == 0
    assert [row["ex"] for row in json.loads(out)["rows"]] == [0, 1]
    assert "violated" not in err
    assert "strict bound not asserted for s = 0; ex >= 1/2 * n at n=[2]" in err


def test_enumerate_usage_error(capsys):
    code, _, err = run(["enumerate", "--n-max", "5"], capsys)
    assert code == 2
    assert "usage error" in err


def test_construct_regular(capsys):
    code, out, _ = run(["construct", "regular", "--n", "7", "--d", "4"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["verification"]["vertices"] == 7
    assert obj["verification"]["degrees"] == [4]


def test_construct_infeasible_regular(capsys):
    code, out, err = run(["construct", "regular", "--n", "5", "--d", "2"], capsys)
    assert code == 1
    assert "2d = n-1" in err
    assert json.loads(out)["infeasible"] is True


def test_construct_infeasible_regular_to_output(tmp_path, capsys):
    dest = tmp_path / "x.json"
    code, out, _ = run(["construct", "regular", "--n", "5", "--d", "2",
                        "-o", str(dest)], capsys)
    assert code == 1
    assert out == ""
    report = json.loads(dest.read_text())
    assert report["infeasible"] is True
    assert "2d = n-1" in report["reason"]


@pytest.mark.parametrize("argv, vertices, edges", [
    (["regular", "--n", "3000", "--d", "1"], 3000, 1500),
    (["k2t", "--t", "2", "--n", "5000"], 5000, 4999 + 2499),
    (["star", "--t", "2", "--n", "5001"], 5001, 2500),
])
def test_construct_large_flat_families(argv, vertices, edges, capsys):
    # each family peels thousands of parts off; none may recurse per part
    code, out, _ = run(["construct", *argv], capsys)
    assert code == 0
    v = json.loads(out)["verification"]
    assert (v["vertices"], v["edges"]) == (vertices, edges)


def test_construct_star_past_catalog_limit_is_capacity_error(capsys):
    # no 7-regular cograph on 101 vertices; the remainder search would need
    # the connected cographs on 13 vertices, past the catalog limit of 12
    code, out, err = run(["construct", "star", "--t", "8", "--n", "101"], capsys)
    assert code == 3
    assert out == ""
    assert "catalog for n=13 exceeds limit 12" in err


def test_strict_bound_rule_shared_by_writers_and_summary(capsys):
    # a profile from index 0 asserts no strict bound: no bound_ok values
    argv = ["enumerate", "--profile", "3,1,0;-inf", "--n-max", "4"]
    code, out, err = run(argv, capsys)
    assert code == 0 and "strict bound not asserted for s = 0" in err
    assert [row["bound_ok"] for row in json.loads(out)["rows"]] == [None] * 2
    code, out, _ = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    assert [line.split(",")[3] for line in out.splitlines()[1:]] == [""] * 2
    # K_{s,t}: bound_ok exactly when s >= 2
    for s, expected in (("1", [None] * 4), ("2", [True] * 4)):
        code, out, _ = run(["enumerate", "--s", s, "--t", "3", "--n-max", "4"], capsys)
        assert code == 0
        assert [row["bound_ok"] for row in json.loads(out)["rows"]] == expected


def test_construct_clique_product(capsys):
    code, out, _ = run(["construct", "clique-product", "--s", "3", "--t", "3",
                        "--r", "2"], capsys)
    assert code == 0
    v = json.loads(out)["verification"]
    assert v["vertices"] == 8 and v["edges"] == 19
    assert v["fulfills_constraint"] is True


def test_construct_pump(tmp_path, capsys):
    code, out, _ = run(["construct", "k33", "--n", "8"], capsys)
    tree = json.loads(out)["cotree"]
    src = tmp_path / "g.json"
    src.write_text(json.dumps(tree))
    # the sum of triangles sits after the two joined leaves in canonical order
    code, out, _ = run(["construct", "pump", "--input", str(src),
                        "--path", "2/0", "--k", "5"], capsys)
    assert code == 0
    assert json.loads(out)["verification"]["vertices"] == 8 + 5 * 3


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(["verify", "balanced-biclique", "--n-max", "6"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, _, _ = run(["verify", "dp-vs-oracle", "--s", "2", "--t", "3",
                      "--n-max", "8"], capsys)
    assert code == 0
    code, _, _ = run(["verify", "bound-2t", "--t", "4", "--n-max", "20"], capsys)
    assert code == 0


def test_analyze(capsys):
    code, out, _ = run(["analyze", "--s", "2", "--t", "2", "--n-min", "4",
                        "--n-max", "24"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["detected_period"] == 2
    assert rep["constants"] == {"0": "-2", "1": "-3/2"}
    assert rep["all_negative"] is True


def test_analyze_alpha_and_periods_flags(capsys):
    code, out, _ = run(["analyze", "--s", "3", "--t", "3", "--n-min", "5",
                        "--n-max", "26", "--alpha", "3", "--periods", "1,2,3,4"],
                       capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["detected_period"] == 3
    assert sorted(rep["constants"].values()) == ["-5", "-6", "-6"]


def test_analyze_alpha_zero_denominator(capsys):
    code, _, err = run(["analyze", "--s", "2", "--t", "3", "--n-max", "10",
                        "--alpha", "1/0"], capsys)
    assert code == 2
    assert "usage error" in err and "--alpha" in err


@pytest.mark.parametrize("argv, named", [
    (["verify", "sequences", "--n-max", "0"], "--n-max"),
    (["construct", "k2t", "--t", "3", "--n", "0"], "--n"),
    (["enumerate", "--s", "2", "--t", "2", "--n-min", "0", "--n-max", "4"], "--n-min"),
    (["analyze", "--s", "2", "--t", "2", "--n-max", "0"], "--n-max"),
    (["construct", "k33", "--n", "0"], "--n"),
    (["verify", "balanced-biclique", "--n-max", "1"], "--n-max 1"),
    (["verify", "structure", "--n-max", "1"], "--n-max 1"),
    (["analyze", "--s", "2", "--t", "3", "--periods", "0"], "--periods"),
    (["analyze", "--s", "2", "--t", "3", "--periods", "2,-1"], "--periods"),
    (["enumerate", "--s", "2", "--t", "2", "--n-max", "6", "--max-records", "-1"],
     "--max-records must be >= 1"),
    (["enumerate", "--s", "2", "--t", "2", "--n-max", "6", "--max-records", "0"],
     "--max-records must be >= 1"),
    (["analyze", "--s", "2", "--t", "2", "--max-records", "0"], "--max-records must be >= 1"),
    (["verify", "all", "--catalog-max", "-3"], "--catalog-max must be >= 1"),
    (["verify", "pump", "--catalog-max", "0"], "--catalog-max must be >= 1"),
    # all stops at its first selector without a check
    (["verify", "all", "--n-max", "1"], "no balanced-biclique checks for --n-max 1"),
])
def test_bounds_below_range_are_usage_errors(argv, named, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert named in err


@pytest.mark.parametrize("argv", [
    ["verify", "dp-vs-oracle", "--s", "2"],
    ["verify", "dp-vs-oracle", "--t", "3"],
    ["verify", "all", "--s", "2"],
])
def test_verify_pair_needs_both_s_and_t(argv, capsys):
    # one of the two would otherwise be dropped for the default pairs
    code, out, err = run(argv + ["--n-max", "4"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"usage error: verify {argv[1]} needs both --s and --t, or neither\n"


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--s", "3", "--t", "2"],
    ["verify", "dp-vs-oracle", "--s", "0", "--t", "2"],
], ids=["all", "dp-vs-oracle"])
def test_verify_pair_outside_enumerates_range_is_usage_error(argv, monkeypatch, capsys):
    # checked before any selector runs: all would otherwise build the
    # catalogs of the selectors before dp-vs-oracle, then fail in the DP
    import cogex.oracle as oracle
    import cogex.verification as verification

    def no_catalog(*_, **__):
        raise AssertionError("a catalog was built")

    for module in (oracle, verification):
        monkeypatch.setattr(module, "enumerate_cotrees", no_catalog)
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"usage error: need 1 <= s <= t, got ({argv[3]}, {argv[5]})\n"


def test_verify_pareto_reads_n_max(capsys):
    # the Pareto filter against the exhaustive DP, past the oracle's catalogs
    code, out, _ = run(["verify", "pareto", "--n-max", "14"], capsys)
    assert code == 0
    assert [c["params"]["n_max"] for c in json.loads(out)["checks"]] == [14]


@pytest.mark.parametrize("argv, option", [
    (["verify", "bounds", "--s", "4", "--t", "4"], "--s"),
    (["verify", "bound-2t", "--s", "3", "--t", "4", "--n-max", "10"], "--s"),
    (["verify", "sequences", "--s", "2", "--t", "3"], "--s"),
    (["verify", "pump", "--s", "2", "--t", "3"], "--s"),
    (["verify", "regular", "--t", "3"], "--t"),
    # restriction's catalogs do not follow --n-max
    (["verify", "restriction", "--n-max", "20", "--catalog-max", "5"], "--n-max"),
    (["verify", "invariants", "--n-max", "3"], "--n-max"),
    # only pump, and so all, reads --seed
    (["verify", "bounds", "--seed", "3"], "--seed"),
    (["verify", "structure", "--seed", "0"], "--seed"),
], ids=["bounds", "bound-2t", "sequences", "pump", "regular", "restriction",
        "invariants-n-max", "bounds-seed", "structure-seed"])
def test_verify_option_the_selector_does_not_read_is_usage_error(argv, option, capsys):
    # the selector would otherwise run its fixed pairs or sizes and exit 0
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"usage error: verify {argv[1]} does not read {option}\n"


def test_verify_bound_2t_below_t_2_names_t(capsys):
    # K_{2,t} needs t >= 2; the s of the pair is fixed, so only --t can be wrong
    for t in ("1", "0", "-3"):
        code, out, err = run(["verify", "bound-2t", "--t", t], capsys)
        assert (code, out) == (2, "")
        assert err == "usage error: verify bound-2t needs --t >= 2\n"
    code, out, _ = run(["verify", "bound-2t", "--t", "2", "--n-max", "6"], capsys)
    assert code == 0 and json.loads(out)["checks"][0]["params"]["t"] == 2


@pytest.mark.parametrize("argv, message", [
    (["construct", "k33", "--n", "5", "--s", "3"], "construct k33 does not read --s"),
    (["construct", "k33", "--n", "5", "--s", "3", "--d", "2"],
     "construct k33 does not read --d"),
    (["construct", "regular", "--n", "7", "--d", "4", "--t", "3"],
     "construct regular does not read --t"),
    (["construct", "star", "--n", "7", "--t", "3", "--path", "0"],
     "construct star does not read --path"),
    (["construct", "clique-product", "--s", "2", "--t", "3", "--r", "2", "--n", "9"],
     "construct clique-product does not read --n"),
    (["construct", "pump", "--input", "g.json", "--path", "0", "--k", "1", "--r", "2"],
     "construct pump does not read --r"),
    (["enumerate", "--profile", "inf,inf,inf;2", "--s", "3", "--n-max", "5"],
     "enumerate --profile does not read --s"),
    (["analyze", "--profile", "inf,inf,inf;2", "--t", "3"],
     "analyze --profile does not read --t"),
    (["analyze", "--input", "series.json", "--s", "2"], "analyze --input does not read --s"),
    (["analyze", "--input", "series.json", "--profile", "inf;2"],
     "analyze --input does not read --profile"),
    (["analyze", "--input", "series.json", "--max-records", "5"],
     "analyze --input does not read --max-records"),
    # the snapshot's rows are the range, with or without the defaults
    (["analyze", "--input", "series.json", "--n-max", "5", "--n-min", "3"],
     "analyze --input does not read --n-max"),
    (["analyze", "--input", "series.json", "--n-min", "1"],
     "analyze --input does not read --n-min"),
], ids=["k33-s", "k33-d", "regular", "star", "clique-product", "pump", "enumerate-profile",
        "analyze-profile", "analyze-input-s", "analyze-input-profile",
        "analyze-input-max-records", "analyze-input-n-max", "analyze-input-n-min"])
def test_option_the_command_does_not_read_is_usage_error(argv, message, capsys):
    # rejected before any file is read or any family is built
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("given, default", [
    (["verify", "pump", "--seed", "20240817"], ["verify", "pump"]),
    (["analyze", "--s", "2", "--t", "3", "--n-min", "1", "--n-max", "20"],
     ["analyze", "--s", "2", "--t", "3"]),
], ids=["verify-seed", "analyze-range"])
def test_defaults_filled_in_after_validation_are_the_old_defaults(given, default, capsys):
    # an option left out reads the default it had in the parser
    code, out, _ = run(given, capsys)
    assert code == 0
    assert run(default, capsys)[:2] == (0, out)


def test_profile_text_is_read_even_when_empty(capsys):
    # an empty --profile is the profile given, not a fall-back to --s and --t
    code, out, err = run(["enumerate", "--profile", "", "--n-max", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: profile text needs ';tail': ''\n"


@pytest.mark.parametrize("argv", [
    ["verify", "bound-2t", "--t", "4", "--n-max", "10"],
    ["verify", "dp-vs-oracle", "--s", "2", "--t", "3", "--n-max", "6"],
    ["verify", "all", "--s", "2", "--t", "3"],
], ids=["bound-2t", "dp-vs-oracle", "all"])
def test_verify_reads_the_pair_options_it_names(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    pairs = [(c["params"].get("s"), c["params"].get("t")) for c in checks
             if c["check"] in ("bound-2t", "dp-vs-oracle")]
    assert pairs == ([(2, 4)] if argv[1] == "bound-2t" else [(2, 3)])


@pytest.mark.parametrize("argv, named", [
    (["construct", "regular", "--n", "7"], "regular needs --n and --d"),
    (["construct", "star", "--t", "3"], "star needs --n and --t"),
    (["construct", "k2t", "--n", "5"], "k2t needs --n and --t"),
    (["construct", "k33"], "k33 needs --n"),
    (["construct", "clique-product", "--s", "2", "--t", "3"],
     "clique-product needs --s, --t and --r"),
    (["construct", "pump", "--input", "g.json", "--k", "1"],
     "pump needs --input, --path and --k"),
], ids=["regular", "star", "k2t", "k33", "clique-product", "pump"])
def test_construct_missing_option_is_usage_error(argv, named, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {named}\n"


def test_analyze_snapshot_input(tmp_path, capsys):
    code, out, _ = run(["enumerate", "--s", "2", "--t", "2", "--n-max", "20"], capsys)
    snap = tmp_path / "series.json"
    snap.write_text(out)
    code, out, _ = run(["analyze", "--input", str(snap)], capsys)
    assert code == 0
    assert json.loads(out)["detected_period"] == 2


@pytest.mark.parametrize("snapshot, named", [
    ({"format": "cogex.series/1"}, "'rows'"),
    ({"format": "cogex.series/1", "rows": "abc"}, "'rows' must be of type list"),
    ({"format": "cogex.series/1", "rows": [{"n": 4}]}, "row 0 has no 'ex'"),
    ({"format": "cogex.series/1", "rows": [{"n": 4, "ex": 4}, 7]}, "row 1 must be an object"),
    ({"format": "cogex.series/1", "rows": [{"n": "4", "ex": 4}]}, "'n' must be of type int"),
    ({"format": "cogex.series/1", "rows": [{"n": 4, "ex": 4}], "alpha": "1"}, "'constraint'"),
    ({"format": "cogex.series/1", "rows": [{"n": 4, "ex": 4}], "constraint": "K{2,2}",
      "alpha": "3/0"}, "'alpha' has a zero denominator"),
    ([1, 2], "not a cogex.series/1 snapshot"),
    ({"format": "cogex.series/1", "rows": [{"n": n, "ex": n} for n in (1, 5, 9, 10, 10)],
      "constraint": "K{2,2}", "alpha": "1"}, "row 4 repeats n = 10"),
    ({"format": "cogex.series/1", "rows": [{"n": n, "ex": n} for n in (1, 5, 9, 10)],
      "constraint": "K{2,2}", "alpha": "1"}, "no row for n = 2"),
    ({"format": "cogex.series/1", "rows": [{"n": n, "ex": n} for n in (5, 3, 2)],
      "constraint": "K{2,2}", "alpha": "1"}, "no row for n = 4"),
    ({"format": "cogex.series/1", "rows": [{"n": n, "ex": ex} for n, ex in
                                           ((-1, -5), (0, 7), (1, 0))],
      "constraint": "K{2,2}", "alpha": "1"}, "row 0 field 'n' must be >= 1, got -1"),
    ({"format": "cogex.series/1", "rows": [{"n": 0, "ex": 7}, {"n": 1, "ex": 0}],
      "constraint": "K{2,2}", "alpha": "1"}, "row 0 field 'n' must be >= 1, got 0"),
    ({"format": "cogex.series/1", "rows": [{"n": 1, "ex": 0}, {"n": 2, "ex": -5}],
      "constraint": "K{2,2}", "alpha": "1"}, "row 1 field 'ex' must be >= 0, got -5"),
])
def test_analyze_malformed_snapshot_is_usage_error(snapshot, named, tmp_path, capsys):
    snap = tmp_path / "series.json"
    snap.write_text(json.dumps(snapshot))
    code, out, err = run(["analyze", "--input", str(snap)], capsys)
    assert code == 2
    assert out == ""
    assert named in err


def test_analyze_bounded_profile_snapshot(tmp_path, capsys):
    # entry 3 is -inf, so no graph on 3 or more vertices fulfills the
    # profile: the snapshot's rows stop at n = 2, with no gap
    snap = tmp_path / "s.json"
    code, _, _ = run(["enumerate", "--profile", "3,1,0;-inf", "--n-max", "12",
                      "-o", str(snap)], capsys)
    assert code == 0
    assert [row["n"] for row in json.loads(snap.read_text())["rows"]] == [1, 2]
    code, out, _ = run(["analyze", "--input", str(snap)], capsys)
    assert code == 0 and json.loads(out)["constraint"] == "3,1,0;-inf"


def test_export_round_trip(tmp_path, capsys):
    code, out, _ = run(["construct", "k33", "--n", "8"], capsys)
    src = tmp_path / "tree.json"
    src.write_text(json.dumps(json.loads(out)["cotree"]))
    code, a, _ = run(["export", "--input", str(src), "--format", "json"], capsys)
    assert code == 0
    again = tmp_path / "tree2.json"
    again.write_text(a.strip())
    code, b, _ = run(["export", "--input", str(again), "--format", "json"], capsys)
    assert a == b  # canonical JSON is a fixed point


def test_export_graph6_and_dot(tmp_path, capsys):
    src = tmp_path / "k2.json"
    src.write_text('{"op":"prod","children":[{"op":"leaf"},{"op":"leaf"}]}')
    code, out, _ = run(["export", "--input", str(src), "--format", "graph6"], capsys)
    assert code == 0
    assert out.strip() == "A_"
    code, out, _ = run(["export", "--input", str(src), "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph")


def test_export_malformed_input(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text('{"op":"sum","children":[{"op":"sum","children":['
                   '{"op":"leaf"},{"op":"leaf"}]},{"op":"leaf"}]}')
    code, _, err = run(["export", "--input", str(src)], capsys)
    assert code == 2
    assert "/children/0" in err


def test_output_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COGEX_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(["enumerate", "--s", "2", "--t", "2", "--n-max", "6",
                        "--format", "csv", "-o", "series.csv"], capsys)
    assert code == 0
    assert (tmp_path / "series.csv").exists()
    assert out == ""


def test_determinism(capsys):
    args = ["enumerate", "--s", "3", "--t", "3", "--n-max", "12"]
    _, a, _ = run(args, capsys)
    _, b, _ = run(args, capsys)
    assert a == b


def test_capacity_exit_code(capsys):
    code, _, err = run(["enumerate", "--s", "3", "--t", "3", "--n-max", "20",
                        "--max-records", "3"], capsys)
    assert code == 3
    assert "capacity" in err.lower()


@pytest.mark.parametrize("argv", [
    ["verify", "balanced-biclique", "--n-max", "11"],
])
def test_catalog_max_raises_the_catalog_limit(argv, capsys):
    code, out, err = run(argv + ["--catalog-max", "10"], capsys)
    assert code == 3 and out == ""
    assert "exceeds --catalog-max 10" in err
    code, out, _ = run(argv + ["--catalog-max", "11"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert max(c["params"]["n"] for c in report["checks"]) == 11


@pytest.mark.parametrize("selector, catalog_max, code", [
    ("sequences", 7, 0),
])
def test_catalog_max_is_held_to_the_selected_catalogs(selector, catalog_max, code,
                                                       capsys):
    # sequences builds catalogs up to 7 by default, not the whole suite's 9
    got, out, err = run(["verify", selector, "--catalog-max", str(catalog_max)], capsys)
    assert got == code
    if code == 0:
        assert json.loads(out)["passed"] is True
    else:
        assert "requested n up to 8 exceeds --catalog-max 7" in err


@pytest.mark.parametrize("selector", ["bounds", "bound-2t", "structure", "pareto", "pump"])
def test_catalog_max_on_a_selector_that_builds_no_catalog_is_usage_error(selector, capsys):
    # it would otherwise be accepted and change nothing
    code, out, err = run(["verify", selector, "--catalog-max", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == f"usage error: verify {selector} does not read --catalog-max\n"


@pytest.mark.parametrize("argv", [
    ["verify", "balanced-biclique", "--n-max", "4", "--catalog-max", "5"],
    ["verify", "profiles", "--n-max", "4", "--catalog-max", "4"],
    ["verify", "sequences", "--n-max", "4", "--catalog-max", "4"],
    ["verify", "dp-vs-oracle", "--n-max", "5", "--catalog-max", "5"],
])
def test_catalog_max_is_held_to_the_requested_catalogs(argv, capsys):
    # --n-max replaces a selector's default catalog size, so a smaller
    # catalog than the default fits a smaller --catalog-max
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_invariants_is_held_to_catalog_max(capsys):
    # its checks build every catalog up to 7
    code, out, err = run(["verify", "invariants", "--catalog-max", "6"], capsys)
    assert (code, out) == (3, "")
    assert "requested n up to 7 exceeds --catalog-max 6" in err
    code, out, _ = run(["verify", "invariants", "--catalog-max", "7"], capsys)
    assert code == 0
    assert [c["params"]["n_max"] for c in json.loads(out)["checks"]] == [7, 7]


def test_all_suite_fits_a_catalog_of_9(monkeypatch, capsys):
    import cogex.oracle as oracle

    sizes = []
    check = oracle._check_catalog_size

    def record(n, limit):
        sizes.append(n)
        check(n, limit)

    monkeypatch.setattr(oracle, "_check_catalog_size", record)
    code, _, _ = run(["verify", "all", "--catalog-max", "9"], capsys)
    assert code == 0
    assert max(sizes) == 9
    code, _, err = run(["verify", "all", "--catalog-max", "8"], capsys)
    assert code == 3
    assert "requested n up to 9 exceeds --catalog-max 8" in err


@pytest.mark.parametrize("selector", ["all", *SELECTORS])
def test_verify_has_no_small_option(selector, capsys):
    # each selector has one default size
    with pytest.raises(SystemExit) as exc:
        main(["verify", selector, "--small"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments: --small" in err


@pytest.mark.parametrize("selector", ["all", *SELECTORS])
def test_verify_has_no_n_option(selector, capsys):
    # a selector's size is --n-max where it reads it; without prefix
    # matching, --n is not read as --n-max either
    with pytest.raises(SystemExit) as exc:
        main(["verify", selector, "--n", "5"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments: --n 5" in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--s", "2", "--t", "2", "--n-ma", "5"],
    ["enumerate", "--s", "2", "--t", "2", "--n-max", "5", "--exh"],
    ["construct", "regular", "--n", "7", "--d", "4", "--form", "dot"],
    ["verify", "sequences", "--n-m", "4"],
    ["analyze", "--s", "2", "--t", "3", "--per", "2"],
], ids=["enumerate-n-max", "enumerate-flag", "construct", "verify", "analyze"])
def test_an_abbreviated_option_is_a_usage_error(argv, capsys):
    # each is a unique prefix of one option, which argparse would otherwise
    # read as that option
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments" in err or "required" in err


def test_analyze_has_no_witness_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--s", "2", "--t", "3", "--n-max", "40", "--witness-max", "4"])
    assert exc.value.code == 2
    assert "--witness-max" in capsys.readouterr().err


def test_analyze_output_matches_the_full_witness_series(capsys):
    # analyze keeps one witness per record; its report is that of the
    # series built with the default witness limit
    code, out, _ = run(["analyze", "--s", "2", "--t", "3", "--n-max", "40"], capsys)
    assert code == 0
    series = extremal_function(2, 3, range(1, 41))
    want = analyze_periodicity(series).to_json()
    want["constraint"] = series.constraint
    assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"


# Runs each argv list of argv[1] (JSON) through one main() in this process;
# prints [exit code, stdout] per call.
_SEQUENCE = """
import contextlib, io, json, sys
from cogex.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def _run_sequence(ops, cwd):
    env = {k: v for k, v in os.environ.items() if k != "COGEX_OUTPUT_DIR"}
    # cwd moves, so a relative PYTHONPATH would no longer find the package
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cogex.__file__).parents[1]), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", _SEQUENCE, json.dumps(ops)], cwd=cwd,
                         env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_parser_reuse_matches_fresh_processes(tmp_path):
    src = tmp_path / "in.json"
    src.write_text(dumps_cotree(clique_product_family(3, 3, 2)))
    ops = [
        ["construct", "k33", "--n", "0"],  # usage error
        ["construct", "bogus"],  # argparse rejection
        ["construct", "pump", "--input", str(src), "--path", "2/0", "--k", "5",
         "-o", "pump.json"],
        ["construct", "pump", "--input", str(src), "--k", "1"],  # --path not carried over
        ["construct", "k33"],
        ["construct", "k33", "--n", "40"],
        ["export", "--input", str(src), "--format", "graph6", "-o", "g.g6"],
        ["enumerate", "--s", "2", "--t", "3", "--n-max", "10"],
    ]
    (tmp_path / "together").mkdir()
    together = _run_sequence(ops, tmp_path / "together")
    assert [code for code, _ in together] == [2, 2, 0, 2, 2, 0, 0, 0]
    for i, op in enumerate(ops):
        alone_dir = tmp_path / f"alone{i}"
        alone_dir.mkdir()
        assert _run_sequence([op], alone_dir) == [together[i]]
        if "-o" in op:
            name = op[op.index("-o") + 1]
            assert (alone_dir / name).read_bytes() == (tmp_path / "together" / name).read_bytes()


def test_import_builds_no_parser_and_no_numpy():
    code = """
import argparse, contextlib, io, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import cogex.cli
counts = [len(built), "numpy" in sys.modules]
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cogex.cli.main(["construct", "k33", "--n", "5"])
    counts.append(len(built))
print(counts)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    none_built, numpy_imported, *after = eval(out)
    assert none_built == 0 and not numpy_imported
    assert after[0] > 0 and after == [after[0]] * 3  # built on the first call only
