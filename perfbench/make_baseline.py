"""Record baseline.json: what BENCHMARK.json cannot hold.  That is the
mapping from each per-layer metric to the end-to-end metric it should move,
machine information, the construct deep-input share, and the runs: several
timed runs of every workload (one seed each) with their medians and spreads,
and one traced run.  Units, better directions and bounds are in
BENCHMARK.json alone.

Run from the repository root; with ten seeds it takes about twenty minutes:

    python3 perfbench/make_baseline.py [--seeds 1-10] [--out FILE] [--against FILE]

``--against`` compares the medians recorded here with those of an earlier
file, as a share of the earlier one, next to each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

MEASURED = "measured seconds: "


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of the command: its result, plain values, and its notes."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent)
    lines = [line.strip() for line in out.stdout.strip().splitlines()]
    result = json.loads(lines[-1])
    row = {"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")},
           "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    for line in lines[1:-1]:
        if line.startswith(MEASURED):
            row["measured"] = json.loads(line[len(MEASURED):])
    if trace:
        row["notes"] = [line for line in lines[1:-1]
                        if line.split(" ")[0] not in result["metrics"]]
    return row


def spread(values: list[float]) -> float:
    """Distance between the first and third quartiles over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def summarize(rows: list[dict], key: str) -> dict:
    names = rows[0][key]
    return {name: {"median": statistics.median(r[key][name] for r in rows),
                   "spread": spread([r[key][name] for r in rows])}
            for name in names}


def compare(now: dict, before: dict, bounds: dict) -> None:
    for workload, timed in now["timed"].items():
        for name, s in timed["summary"].items():
            old = before["timed"][workload]["summary"][name]["median"]
            change = s["median"] / old - 1 if old else 0.0
            print(f"{workload:10s} {name:12s} {old:10.5g} -> {s['median']:10.5g} "
                  f"{change:+.3f} (bound {bounds[name]})")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="a seed or a range, as 1-10")
    p.add_argument("--seconds", type=int)
    p.add_argument("--out", type=Path, default=HERE / "baseline.json")
    p.add_argument("--against", type=Path)
    args = p.parse_args()
    seconds = args.seconds or run.SPEC["run_seconds"]
    seeds = _seeds(args.seeds)
    baseline = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": _numpy_version(),
        },
        "seconds": seconds,
        "construct_deep_input_share": workloads.DEEP_SHARE,
        "per_layer_moves": {name: {"moves": moves, "on_workload": on}
                            for name, (moves, on) in run.LAYER_MOVES.items()},
        "timed": {},
        "traced": {},
    }
    for name in workloads.WORKLOADS:
        rows = []
        for seed in seeds:
            rows.append(_run(name, seed, seconds, 0))
            print(f"{name} seed {seed}: {rows[-1]['metrics']}", flush=True)
        baseline["timed"][name] = {
            "summary": summarize(rows, "metrics"),
            "measured_summary": summarize(rows, "measured"),
            "runs": rows,
        }
        baseline["traced"][name] = _run(name, seeds[0], seconds, 1)
    args.out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if args.against:
        bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
        compare(baseline, json.loads(args.against.read_text()), bounds)


if __name__ == "__main__":
    main()
