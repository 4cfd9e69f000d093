#!/usr/bin/env python3
"""Quick self-test of the benchmark: every workload, untraced and traced,
for a few ops on a seed that the reference figures do not use. This
includes `trap_sweep`, which runs and checks its answers but is left out
of `BENCHMARK.json` (see README.md).

    python3 perfbench/selftest.py

Run from the root of a source checkout. Each run must exit 0, pass every
answer check with no failed op, and print exactly the metric names that
`BENCHMARK.json` lists: the end-to-end ones untraced, the per-layer ones
traced. Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 9001
SECONDS = "0.2"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in sorted(workloads.WORKLOADS):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = set(result["metrics"])
            if got != want[trace]:
                failures.append(f"{label}: metrics missing {sorted(want[trace] - got)}, "
                                f"unexpected {sorted(got - want[trace])}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            print(f"{label}: {result['attempted']} ops, {len(got)} metrics", flush=True)
    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
