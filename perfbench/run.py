#!/usr/bin/env python3
"""berrypick benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The caller issues the next op only when the previous one returns,
and runs whole rounds of the workload's ops until S seconds have passed.
Every op's output is checked, outside the timed region, against answers
computed apart from the program. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`). A result file and, when traced, a span file go to
`perfbench/out/`.
"""

from __future__ import annotations

import os

# one thread per process: no BLAS or OpenMP pools behind numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is timed in this process and in this many fresh ones
SETUP_PROBES = 6


def time_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


class Loop:
    """Closed-loop measurement over whole rounds of a workload's ops."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def run_round(self, latencies: list[float], tracer=None) -> None:
        w = self.w
        for op in w.ops:
            self.attempted += 1
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                result = w.run(op)
            except Exception as e:  # an op that raises counts as failed; the run goes on
                self.failed += 1
                self.errors.append(f"{op.key}: {type(e).__name__}: {e}")
                w.discard(op)
                continue
            latencies.append(time.perf_counter() - t0)
            try:
                problem = w.check(op, result)
            except (OSError, KeyError, ValueError) as e:  # output missing or malformed
                problem = f"{op.key}: output could not be checked: {type(e).__name__}: {e}"
            if problem is not None:
                self.failed += 1
                self.wrong.append(problem)
            if tracer is not None:
                for key, n in w.layer_counts(op).items():
                    tracer.add(key, n)
                tracer.end_op()
            w.discard(op)

    def run_for(self, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Latencies (s) of whole rounds run until `seconds` have passed, as
        (untraced, traced). With a tracer, untraced and traced rounds
        alternate, so that both see the same state of a shared machine."""
        plain: list[float] = []
        traced: list[float] = []
        gc.collect()
        start = time.perf_counter()
        rounds = 0
        while True:
            if tracer is not None and rounds % 2:
                tracer.install()
                try:
                    self.run_round(traced, tracer)
                finally:
                    tracer.uninstall()
            else:
                self.run_round(plain)
            rounds += 1
            if time.perf_counter() - start >= seconds and (tracer is None or rounds % 2 == 0):
                return plain, traced


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "berrypick" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = OUT / "work" / args.workload
    w = workloads.WORKLOADS[args.workload](args.seed, work_dir)

    if args.probe_setup:
        print(repr(time_setup(w)))
        return 0

    setup_samples = [time_setup(w)]
    import berrypick

    if Path(berrypick.__file__).resolve().parent != (SRC / "berrypick").resolve():
        print(f"perfbench: berrypick imported from {berrypick.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if not args.trace:
        setup_samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    w.prepare()

    loop = Loop(w)
    loop.run_round([])  # warm-up: caches, lazy imports, first manifests
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    plain, traced = loop.run_for(args.seconds, tracer)
    lat = traced if tracer is not None else plain
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(work_dir, ignore_errors=True)
    if not lat or not plain:
        print(f"perfbench: every op failed, first: {loop.errors[:1]}", file=sys.stderr)
        return 1

    if tracer is not None:
        overhead_ms = (statistics.median(lat) - statistics.median(plain)) * 1e3
        metrics = tracing.layer_metrics(tracer, overhead_ms)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "latency_p95_ms": {"value": percentile(lat, 95) * 1e3, "unit": "ms"},
            "throughput_ops_s": {"value": len(lat) / sum(lat), "unit": "ops/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    report = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        timed_ops=len(lat),
        setup_samples_s=setup_samples,
        wrong=loop.wrong[:20],
        errors=loop.errors[:20],
    )
    if hasattr(w, "recall"):
        report["blob_recall"] = {f"cloud{s}": r for s, r in w.recall.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        report["trace_missing"] = tracer.missing
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"missing": tracer.missing, "spans": tracer.spans()}) + "\n"
        )
        for target in tracer.missing:
            print(f"perfbench: trace target missing: {target}")
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    for msg in (loop.wrong + loop.errors)[:5]:
        print(f"perfbench: failed op: {msg}")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(lat)} timed ops, "
          f"{loop.attempted} attempted, {loop.failed} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
