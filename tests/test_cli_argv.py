"""Generated command lines: argv drawn from the CLI's own parser.

Each draw picks a subcommand, and a construct family or verify selector,
from ``build_parser()``; each of its options is absent, at a boundary, out
of range or mistyped.  Whatever the draw, ``main`` ends in an exit code, not
a traceback.  Sizes stay small (n <= 8, catalogs <= 8, DP n-max <= 14), so
every case runs in well under a second.  ``--output`` is left out: every
report goes to stdout, where the checks below read it.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogex.cli import FAMILIES, build_parser, main
from cogex.constructions import clique_product_family
from cogex.serialize import dumps_cotree
from cogex.verification import options_read

MISTYPED = ["x", "1.5", ""]

# per integer option: (values in its range, at its boundaries included;
# values just outside it)
INTS = {
    "n": (["1", "2", "3", "5", "8"], ["-1", "0"]),
    "n_min": (["1", "2", "5"], ["0", "15"]),
    "n_max": (["1", "2", "4", "8", "14"], ["-1", "0"]),
    "witness_max": (["1", "8"], ["-1", "0"]),
    "max_records": (["1", "2", "50"], ["-1", "0"]),
    # the capacity guard: always given to a verify selector that builds
    # catalogs, so no catalog passes 8
    "catalog_max": (["2", "5", "8"], ["-1", "0"]),
    "seed": (["-5", "0", "1"], ["-5"]),
}
SMALL_INTS = (["0", "1", "2", "3", "5"], ["-1"])  # --d, --s, --t, --r and --k

TEXTS = {
    "profile": ["inf,inf,inf;2", "3,1,0;-inf", "inf;1", "2;", "inf,1;2", "x", ""],
    "alpha": ["3/2", "0", "-1", "1/0", "x"],
    "periods": ["1,2,3", "2", "0", "2,-1", "x"],
    "path": ["0", "1/0", "2/0", "9", "a/b", "-1"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Files for --input: a cotree, a series snapshot, malformed JSON, a
    cotree that breaks sum/product alternation, and a missing path."""
    d = tmp_path_factory.mktemp("argv")
    files = {
        "cotree.json": dumps_cotree(clique_product_family(3, 3, 2)),
        "series.json": json.dumps({"format": "cogex.series/1", "constraint": "K{2,2}",
                                   "alpha": "1", "rows": [{"n": n, "ex": n - 1}
                                                          for n in range(1, 9)]}),
        "broken.json": "{",
        "nested.json": '{"op":"sum","children":[{"op":"sum","children":'
                       '[{"op":"leaf"},{"op":"leaf"}]},{"op":"leaf"}]}',
    }
    for name, text in files.items():
        (d / name).write_text(text)
    return [str(d / name) for name in (*files, "missing.json")]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@st.composite
def argvs(draw, inputs):
    name = draw(st.sampled_from(sorted(_subcommands())))
    argv = [name]
    # how enumerate and analyze get their series
    series = draw(st.sampled_from([("s", "t"), ("profile",), ("input",)]))
    for action in _subcommands()[name]._actions:
        if isinstance(action, argparse._HelpAction) or action.dest == "output":
            continue
        if not action.option_strings:  # the construct family or verify selector
            argv.append(draw(st.sampled_from(sorted(action.choices))))
            continue
        # most draws should reach the command itself, so an option that it
        # needs or reads is given eight times in ten, any other twice
        likely = action.required or action.dest in _reads(argv, series)
        if name == "verify" and action.dest == "catalog_max" and likely:
            pass
        elif draw(st.integers(0, 9)) < (2 if likely else 8):
            continue
        argv.append(action.option_strings[0])
        if action.nargs == 0:  # a flag
            continue
        # in range, else one time in ten out of range and one in ten mistyped
        fault = draw(st.integers(0, 9))
        if action.choices:
            values = ["bogus"] if fault > 7 else [*action.choices]
        elif action.type is int:
            inside, outside = INTS.get(action.dest, SMALL_INTS)
            values = MISTYPED if fault == 9 else outside if fault == 8 else inside
        else:
            values = inputs if action.dest == "input" else TEXTS[action.dest]
        argv.append(draw(st.sampled_from(values)))
    return argv


def _reads(argv: list[str], series: tuple[str, ...]) -> set[str]:
    """The options that argv's family or selector reads, by the CLI's tables,
    or those that give enumerate and analyze their series."""
    if argv[0] == "construct":
        return set(FAMILIES[argv[1]][0])
    return options_read(argv[1]) if argv[0] == "verify" else set(series)


def _reports_a_failure(out: str) -> bool:
    """A failed verify check, an infeasible regular graph or a row past the
    strict bound."""
    if out.startswith("n,ex,"):  # enumerate CSV: the bound_ok column
        return any(line.split(",")[3] == "False" for line in out.splitlines()[1:])
    report = json.loads(out)
    return (report.get("passed") is False or report.get("infeasible") is True
            or any(row["bound_ok"] is False for row in report.get("rows", ())))


@settings(max_examples=1500, deadline=None)
@given(data=st.data())
def test_generated_argv_ends_in_an_exit_code(inputs, data):
    argv = data.draw(argvs(inputs), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)  # an exception here is the traceback a user would see
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2, 3), err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
    if code == 1:
        assert _reports_a_failure(out.getvalue()), err.getvalue()
