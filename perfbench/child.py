"""One pass of a workload in a fresh interpreter: ``python3 child.py SPEC``.

SPEC is a JSON file naming the operations' argv lists, whether to trace,
whether to run the speed probe, and where to write the result.  The child imports ``cogex.cli``, prints
``ready`` on stdout, then calls ``cogex.cli.main(argv)`` once per
operation in a closed loop: one caller, each operation starting when the
previous one has returned.  The program's own stdout and stderr go to
os.devnull.  Output checks are the parent's job and are not timed here.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
from time import perf_counter

import spans
import speed


def peak_rss_kb() -> int:
    """Peak resident set of this process since exec (VmHWM).  ru_maxrss
    would also count the parent's resident set at fork time."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(main, ops: list[list[str]], tracer=None, probe: bool = True) -> dict:
    """Run every operation once: outcome, measured seconds and, with the
    speed probe running, reference seconds of each (see speed.py)."""
    outcomes, intervals = [], []
    saved = sys.stdout, sys.stderr
    sampler = speed.SpeedProbe() if probe else contextlib.nullcontext()
    with open(os.devnull, "w") as sink, sampler:
        sys.stdout = sys.stderr = sink
        try:
            if tracer is not None:
                tracer.begin(spans.ROOT)
            for argv in ops:
                t0 = perf_counter()
                try:
                    code, error = main(argv), None
                except SystemExit as exc:  # argparse rejects the argv
                    code, error = exc.code, "SystemExit"
                except Exception as exc:  # the program failed on this input
                    code, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
                intervals.append((t0, perf_counter()))
                outcomes.append((code, error))
            if tracer is not None:
                tracer.end()
        finally:
            sys.stdout, sys.stderr = saved
    measured = [b - a for a, b in intervals]
    ref = speed.reference_latencies(intervals, sampler.samples) if probe else measured
    return {"wall_s": intervals[-1][1] - intervals[0][0],
            "ops": [(code, error, dt, r) for (code, error), dt, r in zip(outcomes, measured, ref)]}


def main() -> None:
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    import cogex.cli

    print("ready", flush=True)
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    result = run_pass(cogex.cli.main, spec["ops"], tracer, spec["probe"])
    result["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        result["trace"] = spans.summarize(tracer)
    with open(spec["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
