"""cogex benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload enumerate|verify|construct \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/cogex``.  Each pass of
the workload runs in a fresh single-threaded interpreter (``child.py``)
that calls ``cogex.cli.main`` once per operation; passes repeat until
``--seconds`` of operation time have been measured.  Every output is then
checked by the benchmark's own code.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
Operations, inputs and outputs live in ``.perfbench_work/`` under the
checkout root and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

SETUP_PROBES = 21
MIN_PASSES = 3           # untraced passes per run, at least
MIN_TRACED_PASSES = 2    # traced passes per run, so counts can be compared
RUN_BUDGET_S = 150.0     # no pass starts that would end past this
PROBE_TIMEOUT_S = 60.0

# Names, units and better directions of every metric, and the bounds.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The check functions of the verify suite, traced as verification.<name>.
VERIFY_CHECKS = [
    "balanced_biclique", "star_extremal_regular", "universal_vertex", "k33_shape",
    "lifting_decomposition", "structure_theorems", "sequences",
    "fulfillment_agreement", "dp_vs_oracle", "strict_bound", "bound_2t",
    "restriction_transport", "regular_constructor", "pareto_safety",
    "constructions_meet_optimum", "clique_product_formula", "pump_invariants",
    "height_bound", "complement_involution",
]

# Each per-layer metric: the end-to-end metric it should move, on which workload.
LAYER_MOVES = {
    "cli.self_s": ("op_p50_ms", "construct"),
    "enumerator.combine_s": ("wall_s", "enumerate"),
    "enumerator.pairs": ("wall_s", "enumerate"),
    "enumerator.pairs_per_s": ("wall_s", "enumerate"),
    "enumerator.pareto_s": ("wall_s", "enumerate"),
    "enumerator.candidates": ("wall_s", "enumerate"),
    "enumerator.survivors": ("wall_s", "enumerate"),
    "enumerator.pareto_keep_ratio": ("wall_s", "enumerate"),
    "enumerator.witness_s": ("wall_s", "enumerate"),
    "enumerator.witnesses_built": ("peak_rss_mb", "enumerate"),
    "enumerator.witness_keep_ratio": ("peak_rss_mb", "enumerate"),
    "enumerator.query_s": ("wall_s", "enumerate"),
    "enumerator.analyze_s": ("wall_s", "enumerate"),
    "oracle.catalog_s": ("wall_s", "verify"),
    "oracle.catalog_graphs": ("wall_s", "verify"),
    "oracle.bruteforce_seq_s": ("wall_s", "verify"),
    "oracle.bruteforce_seq_calls": ("wall_s", "verify"),
    "oracle.bruteforce_seq_unique": ("wall_s", "verify"),
    "oracle.bruteforce_reuse_ratio": ("wall_s", "verify"),
    "oracle.extremal_scan_s": ("wall_s", "verify"),
    "oracle.contains_biclique_s": ("wall_s", "verify"),
    **{f"verification.{name}_s": ("wall_s", "verify") for name in VERIFY_CHECKS},
    "cotree.to_adjacency_s": ("wall_s", "verify"),
    "cotree.to_adjacency_calls": ("wall_s", "verify"),
    "cotree.biclique_sequence_s": ("wall_s", "verify"),
    "cotree.biclique_sequence_calls": ("wall_s", "verify"),
    "profile.fulfills_s": ("wall_s", "verify"),
    "profile.fulfills_calls": ("wall_s", "verify"),
    "constructions.build_s": ("op_p99_ms", "construct"),
    "constructions.build_calls": ("op_p99_ms", "construct"),
    "serialize.encode_s": ("op_p50_ms", "construct"),
    "serialize.decode_s": ("op_p50_ms", "construct"),
    "serialize.bytes_out": ("op_p50_ms", "construct"),
    "harness.self_s": ("wall_s", "all"),
    "trace.self_sum_s": ("wall_s", "all"),
    "trace.wall_s": ("wall_s", "all"),
    "trace.untraced_wall_s": ("wall_s", "all"),
    "trace.overhead_s": ("wall_s", "all"),
}

# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]


class BenchError(RuntimeError):
    """The benchmark could not run the program."""


# =============================================================================
# Statistics
# =============================================================================

def tail_percentile(samples: list[float], q: float = 99.0,
                    min_beyond: int = 10) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than min_beyond
    samples rank above it (the percentile is then not resolved)."""
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(xs)))
    if len(xs) - rank < min_beyond:
        return None
    return xs[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# =============================================================================
# Child processes
# =============================================================================

def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _run(argv: list[str], log: Path, timeout: float) -> float:
    """Run a child to its end; seconds until it printed ``ready``.  The child
    is killed if it outlives ``timeout`` or this process fails meanwhile."""
    t0 = perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child exceeded {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise BenchError(f"child exited with {proc.returncode}: {log.read_text()[-2000:]}")
    return ready


def setup_times(work: Path) -> list[tuple[float, float]]:
    """(measured, reference) seconds from starting a fresh interpreter to the
    end of ``import cogex.cli``, once unmeasured (to write bytecode caches),
    then measured."""
    argv = [sys.executable, "-c", "import cogex.cli; print('ready', flush=True)"]
    times = []
    for i in range(SETUP_PROBES + 1):
        probe_s = statistics.fmean(speed.time_probe() for _ in range(5))
        ready = _run(argv, work / "setup.log", PROBE_TIMEOUT_S)
        if i:
            times.append((ready, ready * speed.REF_PROBE_S / probe_s))
    return times


def run_child(work: Path, ops: list[dict], trace: bool, probe: bool,
              timeout: float) -> dict:
    spec = work / "spec.json"
    result = work / "result.json"
    result.unlink(missing_ok=True)
    spec.write_text(json.dumps({"ops": [op["argv"] for op in ops],
                                "trace": trace, "probe": probe,
                                "result": str(result)}))
    _run([sys.executable, str(CHILD), str(spec)], work / "child.log", timeout)
    return json.loads(result.read_text())


# =============================================================================
# Passes and checks
# =============================================================================

def check_pass(ops: list[dict], outcome: dict, golden: dict) -> tuple[int, list[str]]:
    """(failed operations, reasons that make the run incorrect); adds the
    bytes written to ``outcome``.

    An operation fails on an exception, on a nonzero exit or on a failed
    output check.  A failure is expected only where the input is deep and
    the program raised RecursionError: the known recursion defect.  Any
    other failure makes the run incorrect.
    """
    failed = 0
    wrong = []
    outcome["bytes_out"] = 0
    for op, (code, error, *_) in zip(ops, outcome["ops"]):
        if error is not None or code != 0:
            failed += 1
            known = op["deep"] and (error or "").startswith("RecursionError")
            if not known:
                wrong.append(f"{op['argv'][:3]}: exit {code}, {error}")
            continue
        path = Path(op["output"])
        if path.is_file():
            text = path.read_text()
            outcome["bytes_out"] += len(text.encode())
            reason = checks.check_output(op["check"], text, op["expect"], golden)
        else:
            reason = "no output written"
        if reason is not None:
            failed += 1
            wrong.append(f"{op['argv'][:3]}: {reason}")
        path.unlink(missing_ok=True)
    return failed, wrong


def run_passes(work: Path, ops: list[dict], seconds: float, trace: bool,
               started: float, golden: dict) -> tuple[list[dict], int, list[str]]:
    """Passes until ``seconds`` of operation time are measured and enough
    passes ran, without starting one that could end past the budget.

    With ``trace``, passes alternate untraced and traced, starting untraced,
    so that both sides of the overhead see the same machine conditions.
    """
    passes, failed, wrong = [], 0, []
    measured = 0.0
    last = 0.0
    minimum = 2 * MIN_TRACED_PASSES if trace else MIN_PASSES
    while len(passes) < minimum or measured < seconds:
        elapsed = perf_counter() - started
        if len(passes) >= 2 and elapsed + last > RUN_BUDGET_S:
            break
        t0 = perf_counter()
        traced = trace and len(passes) % 2 == 1
        outcome = run_child(work, ops, traced, probe=not trace,
                            timeout=max(10.0, 170.0 - elapsed))
        last = perf_counter() - t0
        n_failed, reasons = check_pass(ops, outcome, golden)
        failed += n_failed
        wrong += reasons
        passes.append(outcome)
        measured += outcome["wall_s"]
    return passes, failed, wrong


def op_latencies(passes: list[dict], index: int = 3) -> list[float]:
    """Each operation's median latency across passes, in reference seconds
    (index 3) or measured seconds (index 2)."""
    return [statistics.median(lat) for lat in zip(*([op[index] for op in p["ops"]]
                                                     for p in passes))]


# =============================================================================
# Metrics
# =============================================================================

def end_to_end(passes: list[dict], setup: list[tuple[float, float]], failed: int,
               attempted: int) -> tuple[dict, list[str]]:
    lat = op_latencies(passes)
    measured = op_latencies(passes, 2)
    p99 = tail_percentile(lat)
    notes = [f"op latency samples: {len(lat)}, each the median of {len(passes)} passes"]
    if p99 is None:
        p99 = max(lat)
        notes.append("op_p99_ms: fewer than 10 samples above p99, reporting the maximum")
    values = {
        "wall_s": sum(lat),
        "setup_s": statistics.median(ref for _, ref in setup),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        "ok_ratio": 1 - failed / attempted,
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p99_ms": p99 * 1000,
    }
    notes.append(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6f}")
    notes.append(f"passes: {len(passes)}, measured pass walls (s): "
                 + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    notes.append("measured seconds: " + json.dumps({
        "wall_s": sum(measured),
        "setup_s": statistics.median(m for m, _ in setup),
        "op_p50_ms": statistics.median(measured) * 1000,
        "op_p99_ms": (tail_percentile(measured) or max(measured)) * 1000}))
    return values, notes


def layer_values(p: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    t = p["trace"]
    s, c = t["self_s"], t["calls"]
    pairs = sum(r["pairs"] for r in t["registries"])
    kept = sum(r["witnesses_kept"] for r in t["registries"])
    candidates = sum(a for a, _ in t["pareto"])
    survivors = sum(b for _, b in t["pareto"])
    built = c.get("enumerator.witness", 0)
    v = {
        "cli.self_s": s.get("cli", 0.0),
        "enumerator.combine_s": s.get("enumerator.combine", 0.0),
        "enumerator.pairs": pairs,
        "enumerator.pairs_per_s": _ratio(pairs, s.get("enumerator.combine", 0.0)),
        "enumerator.pareto_s": s.get("enumerator.pareto", 0.0),
        "enumerator.candidates": candidates,
        "enumerator.survivors": survivors,
        "enumerator.pareto_keep_ratio": _ratio(survivors, candidates),
        "enumerator.witness_s": s.get("enumerator.witness", 0.0),
        "enumerator.witnesses_built": built,
        "enumerator.witness_keep_ratio": _ratio(kept, built),
        "enumerator.query_s": s.get("enumerator.query", 0.0),
        "enumerator.analyze_s": s.get("enumerator.analyze", 0.0),
        "oracle.catalog_s": s.get("oracle.catalog", 0.0),
        "oracle.catalog_graphs": t["catalog_graphs"],
        "oracle.bruteforce_seq_s": s.get("oracle.bruteforce_seq", 0.0),
        "oracle.bruteforce_seq_calls": t["bruteforce_calls"],
        "oracle.bruteforce_seq_unique": t["bruteforce_unique"],
        "oracle.bruteforce_reuse_ratio": _ratio(t["bruteforce_unique"], t["bruteforce_calls"]),
        "oracle.extremal_scan_s": s.get("oracle.extremal_scan", 0.0),
        "oracle.contains_biclique_s": s.get("oracle.contains_biclique", 0.0),
        "cotree.to_adjacency_s": s.get("cotree.to_adjacency", 0.0),
        "cotree.to_adjacency_calls": c.get("cotree.to_adjacency", 0),
        "cotree.biclique_sequence_s": s.get("cotree.biclique_sequence", 0.0),
        "cotree.biclique_sequence_calls": c.get("cotree.biclique_sequence", 0),
        "profile.fulfills_s": s.get("profile.fulfills", 0.0),
        "profile.fulfills_calls": c.get("profile.fulfills", 0),
        "constructions.build_s": s.get("constructions.build", 0.0),
        "constructions.build_calls": c.get("constructions.build", 0),
        "serialize.encode_s": s.get("serialize.encode", 0.0),
        "serialize.decode_s": s.get("serialize.decode", 0.0),
        "serialize.bytes_out": p["bytes_out"],
        "harness.self_s": s.get("harness", 0.0),
        "trace.self_sum_s": sum(s.values()),
    }
    for name in VERIFY_CHECKS:
        v[f"verification.{name}_s"] = s.get(f"verification.{name}", 0.0)
    return v


def per_layer(passes: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Median of each per-layer metric over the traced passes, notes, and
    the counts that did not repeat exactly."""
    traced = [p for p in passes if "trace" in p]
    untraced = [p for p in passes if "trace" not in p]
    rows = [layer_values(p) for p in traced]
    values = {name: statistics.median(r[name] for r in rows)
              for name in rows[0]}
    values["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    values["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    unsteady = [name for name in EXACT_COUNTS if len({r[name] for r in rows}) > 1]
    t = traced[0]["trace"]
    notes = [f"passes: {len(untraced)} untraced, {len(traced)} traced"]
    if t["registries"]:
        notes.append("pairs per build_registries call: "
                     + " ".join(str(r["pairs"]) for r in t["registries"][:8])
                     + (" ..." if len(t["registries"]) > 8 else ""))
    notes += ["traced pass walls: " + " ".join(f"{p['wall_s']:.4f}" for p in traced),
              "self-time sums:    " + " ".join(f"{r['trace.self_sum_s']:.4f}" for r in rows),
              f"tracing overhead: {values['trace.overhead_s']:.4f} s over "
              f"{values['trace.untraced_wall_s']:.4f} s untraced"]
    return values, notes, unsteady


# =============================================================================
# Command line
# =============================================================================

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def bench(args: argparse.Namespace, work: Path) -> dict:
    started = perf_counter()
    golden = checks.load_golden()
    ops = workloads.make_ops(args.workload, args.seed, work)
    setup = [] if args.trace else setup_times(work)
    passes, failed, wrong = run_passes(work, ops, args.seconds, bool(args.trace),
                                       started, golden)
    attempted = len(ops) * len(passes)
    if args.trace:
        values, notes, unsteady = per_layer(passes)
        wrong += [f"count {name} differs between traced passes" for name in unsteady]
    else:
        values, notes = end_to_end(passes, setup, failed, attempted)
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    values = {name: values[name] for name in units}
    for name, value in values.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    for note in notes + [f"INCORRECT: {w}" for w in wrong[:20]]:
        print(f"  {note}")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cogex" / "cli.py").is_file():
        print(f"no cogex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print(f"cogex benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        result = bench(args, work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
