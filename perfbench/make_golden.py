"""Regenerate golden.json: the ex tables and the periodicity report that the
enumerate workload's outputs are checked against.

The stored file was generated once at the commit that added the benchmark.
Regenerate it only when a change to the program is meant to alter these
results, and review the diff.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from cogex.cli import main as cogex_main  # noqa: E402


def main() -> None:
    golden: dict = {"enumerate": {}, "analyze": {}}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for op in workloads.enumerate_ops():
            out = Path(tmp) / op["output"]
            argv = op["argv"][:-1] + [str(out)]
            with contextlib.redirect_stderr(io.StringIO()):
                if cogex_main(argv) != 0:
                    raise SystemExit(f"{argv} failed")
            text = out.read_text()
            table = op["expect"]["table"]
            if op["check"] == "analyze":
                golden["analyze"][table] = json.loads(text)
            elif op["expect"]["format"] == "csv":
                golden["enumerate"][table] = [int(r["ex"]) for r in csv.DictReader(io.StringIO(text))]
            else:
                golden["enumerate"][table] = [r["ex"] for r in json.loads(text)["rows"]]
    checks.GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True) + "\n")
    print(f"wrote {checks.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
