"""Command-line interface.

Subcommands: enumerate, construct, verify, analyze, export.  Machine
output (JSON, CSV, graph6, DOT) goes to --output or stdout; the human
summary always goes to stderr.  Exit codes: 0 ok, 1 check failed,
2 usage error, 3 capacity exceeded.

The argument parser is built once per process, on the first ``main``
call, and reused: each call still parses into a fresh namespace.
``FAMILIES`` is the one table of ``construct`` families: the options each
needs and reads, its builder and the K_{s,t} it avoids.  ``construct``
writes its cotree document with ``serialize.dumps_cotree_document``,
without the ``json`` encoder but byte-identical to ``json.dumps(...,
indent=2, sort_keys=True)``; it and ``export`` write graph6, DOT and JSON
through ``_emit_cotree``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable

from .constructions import (
    clique_product_family,
    k2t_extremal,
    k33_extremal,
    pump,
    regular_cograph,
    regular_infeasibility_reason,
    star_extremal,
)
from .cotree import (CapacityError, Cotree, biclique_sequence, degree_counts, to_adjacency,
                     to_formula)
from .enumerator import (
    DEFAULT_WITNESS_LIMIT,
    ExtremalSeries,
    analyze_periodicity,
    extremal_function,
    extremal_series_for_profile,
)
from .oracle import DEFAULT_CATALOG_LIMIT
from .profile import forbidden_biclique_profile, fulfills, parse_profile
from .serialize import (
    dumps_cotree,
    dumps_cotree_document,
    graph6_bytes,
    loads_cotree,
    series_from_obj,
    series_to_csv,
    series_to_obj,
    to_dot,
)
from .verification import SELECTORS, check_options, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

OUTPUT_DIR_ENV = "COGEX_OUTPUT_DIR"


def _human(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve_output(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _emit(text: str, path: Path | None) -> None:
    """Write the full artifact at once; no partial files on errors."""
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text)
        tmp.replace(path)
        _human(f"wrote {path}")


def _emit_json(obj, path: Path | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True), path)


# =============================================================================
# enumerate
# =============================================================================

def _series(args: argparse.Namespace, exhaustive: bool = False) -> ExtremalSeries:
    """The DP series on --n-min .. --n-max under --profile, or --s and --t.

    analyze writes no witnesses, so its DP keeps one per record.
    """
    ns = range(args.n_min, args.n_max + 1)
    opts = dict(exhaustive=exhaustive, witness_limit=vars(args).get("witness_max", 1),
                max_records=args.max_records)
    if args.profile is not None:
        return extremal_series_for_profile(parse_profile(args.profile), ns, **opts)
    return extremal_function(args.s, args.t, ns, **opts)


def cmd_enumerate(args: argparse.Namespace) -> int:
    series = _series(args, args.exhaustive)
    report = analyze_periodicity(series) if series.values else None
    period = report.detected_period if report else None
    out = _resolve_output(args.output)
    if args.format == "csv":
        _emit(series_to_csv(series, period), out)
    else:
        obj = series_to_obj(series, period)
        obj["periodicity"] = report.to_json() if report else None
        _emit_json(obj, out)
    at_bound = series.at_bound()
    for n in sorted(series.values):
        marker = ">=" if n in at_bound else "<"
        _human(f"  n={n:3d}  ex={series.values[n]:5d}  {marker} {series.alpha * n}")
    if not at_bound:
        summary = "strict bound holds throughout"
    elif series.asserts_strict_bound:
        _human(f"strict bound violated at n={at_bound}")
        return EXIT_CHECK_FAILED
    else:
        summary = (f"strict bound not asserted for s = {series.s}; "
                   f"ex >= {series.alpha} * n at n={at_bound}")
    _human(f"enumerated {series.constraint} for {len(series.values)} values of n; "
           f"{summary}")
    return EXIT_OK


# =============================================================================
# construct
# =============================================================================

# family: (the options it needs and reads, builder, the (s, t) whose K_{s,t}
# it avoids or None).  Builders look constructors up by name when called,
# so a rebound module name is the one that runs.
FAMILIES = {
    "regular": (("n", "d"), lambda a: regular_cograph(a.n, a.d), None),
    "star": (("n", "t"), lambda a: star_extremal(a.t, a.n), lambda a: (1, a.t)),
    "k2t": (("n", "t"), lambda a: k2t_extremal(a.t, a.n), lambda a: (2, a.t)),
    "k33": (("n",), lambda a: k33_extremal(a.n), lambda a: (3, 3)),
    "clique-product": (("s", "t", "r"), lambda a: clique_product_family(a.s, a.t, a.r),
                       lambda a: (a.s, a.t)),
    "pump": (("input", "path", "k"),
             lambda a: pump(loads_cotree(Path(a.input).read_text()), a.path, a.k), None),
}


def cmd_construct(args: argparse.Namespace) -> int:
    out = _resolve_output(args.output)
    options, build, avoids = FAMILIES[args.family]
    if any(vars(args)[o] in (None, ()) for o in options):  # no --path parses to ()
        flags = [f"--{o}" for o in options]
        needs = flags[0] if len(flags) == 1 else ", ".join(flags[:-1]) + " and " + flags[-1]
        raise ValueError(f"{args.family} needs {needs}")
    g = build(args)
    if g is None:
        reason = regular_infeasibility_reason(args.n, args.d)
        _human(f"infeasible: {reason}")
        _emit_json({"infeasible": True, "reason": reason}, out)
        return EXIT_CHECK_FAILED

    st = avoids(args) if avoids else None
    formula = to_formula(g)
    verification = {"vertices": g.n, "edges": g.edges, "formula": formula}
    if st:
        verification["constraint"] = f"K{{{st[0]},{st[1]}}}"
    elif args.family == "regular":
        verification["regular_degree"] = args.d
    else:
        verification.update(pumped_path=list(args.path), k=args.k)
    # degrees up to 16 vertices only, so that construct documents keep their bytes
    if g.n <= 16:
        verification["degrees"] = sorted(degree_counts(g))
        if st:
            verification["fulfills_constraint"] = fulfills(
                biclique_sequence(g, g.n), forbidden_biclique_profile(*st))

    _emit_cotree(g, args.format, lambda: dumps_cotree_document(g, verification), out)
    _human(f"constructed {formula}: {g.n} vertices, {g.edges} edges")
    return EXIT_OK


def _emit_cotree(g: Cotree, fmt: str, json_text: Callable[[], str],
                 out: Path | None) -> None:
    """Write g as graph6 or DOT, or as ``json_text()``, which only the JSON
    format builds."""
    if fmt == "graph6":
        _emit(graph6_bytes(to_adjacency(g, limit=62)).decode("ascii"), out)
    elif fmt == "dot":
        _emit(to_dot(g), out)
    else:
        _emit(json_text(), out)


# =============================================================================
# verify / analyze / export
# =============================================================================

def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.check, seed=args.seed, n_max=args.n_max, s=args.s, t=args.t,
                       catalog_max=args.catalog_max)
    _emit_json(report, _resolve_output(args.output))
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        _human(f"  {status} {c['check']} {c['params']}")
    if report["passed"]:
        _human("all checks passed")
        return EXIT_OK
    _human("some checks FAILED")
    return EXIT_CHECK_FAILED


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.input:
        series = series_from_obj(json.loads(Path(args.input).read_text()))
    else:
        series = _series(args)
    report = analyze_periodicity(series, alpha=args.alpha, periods=args.periods)
    obj = report.to_json()
    obj["constraint"] = series.constraint
    _emit_json(obj, _resolve_output(args.output))
    if report.status == "periodic":
        consts = ", ".join(f"a_{q}={a}" for q, a in sorted(report.constants.items()))
        _human(f"period R={report.detected_period} from n={report.onset}: {consts}")
        _human(f"all constants negative: {report.all_negative}; "
               f"strict bound: {report.strict_bound}")
    else:
        _human("no candidate period stabilized (inconclusive)")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    g = loads_cotree(Path(args.input).read_text())
    _emit_cotree(g, args.format, lambda: dumps_cotree(g), _resolve_output(args.output))
    _human(f"exported {to_formula(g)} as {args.format}")
    return EXIT_OK


# =============================================================================
# argument parsing
# =============================================================================

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", "-o", help="output file (default: stdout); relative "
                   f"paths resolve under ${OUTPUT_DIR_ENV} when set")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cogex`` parser, built on the first call and shared after it; no
    parser reads an abbreviated option (``verify --n`` is not ``--n-max``)."""
    parser = argparse.ArgumentParser(
        prog="cogex", allow_abbrev=False,
        description="Edge-maximal biclique-free cographs: enumerate, construct, verify.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", allow_abbrev=False,
                       help="extremal edge counts by dynamic programming")
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--profile", help='constraint profile text, e.g. "inf,inf,inf;2"')
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--exhaustive", action="store_true",
                   help="find every extremal cograph (the Pareto filter keeps ties); "
                        "the output still lists at most --witness-max witnesses per n")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--witness-max", type=int, default=DEFAULT_WITNESS_LIMIT)
    p.add_argument("--max-records", type=int, default=None,
                   help="most candidate keys one DP level may make before the "
                        "Pareto filter (capacity guard); sums whose first part is "
                        "not a smallest component, and sums that a sum with the "
                        "same first part strictly dominates, are not made, so not "
                        "counted; two parts of one size are summed in one order "
                        "only, as both orders make one key")
    _add_common(p)

    p = sub.add_parser("construct", allow_abbrev=False,
                       help="explicit families and transformations")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--input", help="cotree JSON file (pump)")
    p.add_argument("--path", help="child indices from the root, e.g. 1/0 (pump)")
    p.add_argument("--format", choices=("json", "graph6", "dot"), default="json")
    _add_common(p)

    p = sub.add_parser("verify", allow_abbrev=False, help="oracle and property suites")
    p.add_argument("check", choices=("all", *SELECTORS))
    p.add_argument("--n-max", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--catalog-max", type=int,
                   help="hard ceiling on oracle catalog size (capacity guard), "
                        f"default {DEFAULT_CATALOG_LIMIT}")
    _add_common(p)

    p = sub.add_parser("analyze", allow_abbrev=False, help="periodicity of ex(n) - alpha*n")
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--profile")
    p.add_argument("--n-max", type=int)
    p.add_argument("--n-min", type=int)
    p.add_argument("--input", help="series snapshot JSON from enumerate")
    p.add_argument("--alpha", help="exact rational, e.g. 3/2 (default: from s,t)")
    p.add_argument("--periods", help="comma-separated candidate periods")
    p.add_argument("--max-records", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("export", allow_abbrev=False, help="convert a cotree JSON artifact")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "graph6", "dot"), default="json")
    _add_common(p)

    return parser


def _validate(args: argparse.Namespace) -> None:
    """Parse the text-valued options in place, then check every option."""
    opts = vars(args)
    try:
        args.alpha = Fraction(args.alpha) if opts.get("alpha") else None
    except ZeroDivisionError:
        raise ValueError(f"--alpha {args.alpha} has a zero denominator") from None
    args.periods = [int(x) for x in args.periods.split(",")] if opts.get("periods") else None
    args.path = tuple(int(x) for x in args.path.split("/")) if opts.get("path") else ()
    if args.subcommand == "verify":
        check_options(args.check, n_max=args.n_max, s=args.s, t=args.t, seed=args.seed,
                      catalog_max=args.catalog_max)
        return
    for name in ("n", "n_min", "n_max", "witness_max", "max_records"):
        if opts.get(name) is not None and opts[name] < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1")
    # An option that defaults to None, given to a command or a mode of one
    # that does not read it, is a usage error
    if args.subcommand == "construct":
        command, reads = f"construct {args.family}", FAMILIES[args.family][0]
        unset = dict.fromkeys(o for options, *_ in FAMILIES.values() for o in options)
    elif args.subcommand == "analyze" and args.input:
        command, reads = "analyze --input", ()
        unset = ("s", "t", "profile", "max_records", "n_max", "n_min")
    else:  # enumerate and analyze read --s and --t without --profile only
        command, reads = f"{args.subcommand} --profile", ()
        unset = ("s", "t") if opts.get("profile") is not None else ()
    for o in unset:
        if opts[o] not in (None, ()) and o not in reads:  # no --path parses to ()
            raise ValueError(f"{command} does not read --{o.replace('_', '-')}")
    # analyze's range defaults, once the check has seen whether it was given
    if args.subcommand == "analyze":
        for o, default in (("n_max", 20), ("n_min", 1)):
            opts[o] = default if opts[o] is None else opts[o]
    runs_dp = args.subcommand in ("enumerate", "analyze") and not opts.get("input")
    if runs_dp and args.profile is None:
        if args.s is None or args.t is None:
            raise ValueError("need --s and --t, or --profile")
        forbidden_biclique_profile(args.s, args.t)  # raises outside 1 <= s <= t
    if runs_dp and args.n_min > args.n_max:
        raise ValueError("--n-min exceeds --n-max")
    if opts.get("periods") and min(args.periods) < 1:
        raise ValueError("--periods entries must be >= 1")


_DISPATCH = {
    "enumerate": cmd_enumerate,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "analyze": cmd_analyze,
    "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
    except ValueError as exc:
        _human(f"usage error: {exc}")
        return EXIT_USAGE
    try:
        return _DISPATCH[args.subcommand](args)
    except CapacityError as exc:
        _human(f"capacity exceeded: {exc}")
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:
        _human(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
