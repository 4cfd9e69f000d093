"""The benchmark's workloads: set-up, one round of ops, and each op's check.

A workload is built from the workload seed alone. `setup` imports the
program and builds what every op reuses; it is what `setup_s` times.
`prepare` then makes the inputs and the independent answers, untimed.
`ops` is one round: the benchmark runs whole rounds only. `run` is the
timed op; `check` inspects its output afterwards and returns a message
when the output is wrong, else None; `discard` then drops what the op
left behind, also untimed.

The `run_one` workloads draw their run seeds from a fixed pool,
RUN_SEED_POOL seeds wide. Every op on every seed of the pool was run
once when the benchmark was written and passed its check, so any
workload seed gives inputs on which the program is expected to pass.

Nothing here imports numpy or the program at module level, so `setup`
pays the whole import cost.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# run seeds 0..RUN_SEED_POOL-1 (harvest_paper9) and 1..RUN_SEED_POOL
# (trap_sweep)
RUN_SEED_POOL = 1024


@dataclass
class Op:
    key: str
    seed: int
    cfg: dict | None = None
    run_dir: Path | None = None
    offset_mm: int = 0
    clouds: tuple = ()


class RunOneWorkload:
    """Ops are `cli.run_one` calls. Like each point of `berrypick sweep`,
    each op writes its artifacts into a directory that does not exist yet;
    the directory is removed after the check. A rerun of a (config, seed)
    pair must give a byte-identical manifest."""

    config_name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.manifests: dict[str, bytes] = {}
        self.ops: list[Op] = []

    def setup(self) -> None:
        from berrypick import cli

        self.cli = cli
        self.cfg = cli.resolve_config_arg(self.config_name)

    def run(self, op: Op):
        return self.cli.run_one(op.cfg, op.seed, op.run_dir)

    def expected_ripe(self) -> int:
        scene = self.cfg["scene"]
        return int(round(scene["n_straw"] * scene["ripe_fraction"]))

    def check_manifest(self, op: Op) -> str | None:
        data = (op.run_dir / "manifest.json").read_bytes()
        first = self.manifests.setdefault(op.key, data)
        if data != first:
            return f"{op.key}: manifest.json differs from the first run of the same (config, seed)"
        return None

    @staticmethod
    def discard(op: Op) -> None:
        shutil.rmtree(op.run_dir, ignore_errors=True)

    @staticmethod
    def layer_counts(op: Op) -> dict:
        # the wall-clock sidecar is left out: its size varies from run to run
        size = sum(e.stat().st_size for e in os.scandir(op.run_dir) if e.name != "wallclock.json")
        return {"cli.artifact_bytes": size}


class HarvestPaper9(RunOneWorkload):
    """`berrypick run --config paper9`: cameras, localization and nine cuts."""

    name = "harvest_paper9"
    config_name = "paper9"
    RUN_SEEDS_PER_ROUND = 8

    def prepare(self) -> None:
        import oracle

        self.cut_s = oracle.closed_form_cut_time(self.cfg)
        self.dt = self.cfg["cut"]["dt"]
        self.paper_cycle_s = oracle.PAPER_CYCLE_S
        n = self.RUN_SEEDS_PER_ROUND
        self.ops = [
            Op(f"seed{s}", s, self.cfg, self.work_dir / f"seed{s}")
            for s in sorted((n * self.seed + k) % RUN_SEED_POOL for k in range(n))
        ]

    def check(self, op: Op, result) -> str | None:
        metrics, _ = result
        ripe = self.expected_ripe()
        with open(op.run_dir / "cycles.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        harvested = [r for r in rows if r["outcome"] == "harvested"]
        if metrics["n_harvested"] != ripe or len(harvested) != ripe:
            return f"{op.key}: harvested {metrics['n_harvested']} of {ripe}"
        for r in harvested:
            if abs(float(r["cut_time"]) - self.cut_s) > self.dt * (1 + 1e-9):
                return f"{op.key}: cut time {r['cut_time']} s, closed form {self.cut_s} s"
        mean_cycle = sum(float(r["cycle_time"]) for r in harvested) / len(harvested)
        if abs(mean_cycle / self.paper_cycle_s - 1.0) > 0.25:
            return f"{op.key}: mean cycle {mean_cycle:.3f} s is not within 25 % of {self.paper_cycle_s} s"
        return self.check_manifest(op)


class TrapSweep(RunOneWorkload):
    """`berrypick sweep --config robustness --axis offset`: ground-truth boxes
    shifted by a lateral offset; the trap holds up to 15 mm."""

    name = "trap_sweep"
    config_name = "robustness"
    RUN_SEEDS_PER_ROUND = 4
    TOLERANCE_MM = 15

    def setup(self) -> None:
        super().setup()
        self.points = {
            off: self.cli.apply_sweep_value(self.cfg, "offset", off)
            for off in self.cfg["sweep"]["offsets_mm"]
        }

    def prepare(self) -> None:
        n = self.RUN_SEEDS_PER_ROUND
        self.ops = [
            Op(f"offset_{off}_seed{s}", s, cfg, self.work_dir / f"offset_{off}_seed{s}", offset_mm=off)
            for s in sorted(1 + (n * self.seed + k) % RUN_SEED_POOL for k in range(n))
            for off, cfg in self.points.items()
        ]

    def check(self, op: Op, result) -> str | None:
        metrics, _ = result
        expected = self.expected_ripe() if abs(op.offset_mm) <= self.TOLERANCE_MM else 0
        if metrics["n_harvested"] != expected:
            return f"{op.key}: harvested {metrics['n_harvested']}, expected {expected}"
        return self.check_manifest(op)


class Localize100k:
    """`localization.localize` on camera cloud pairs of 100,000 points."""

    name = "localize_100k"
    SIZE = 100_000
    CLOUDS_PER_ROUND = 16
    BOUND_TOL_M = 1e-12

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.ops: list[Op] = []
        self.recall: dict[int, int] = {}

    def setup(self) -> None:
        from berrypick import cli, config, localization

        self.localization = localization
        cfg = cli.resolve_config_arg("bench")
        self.rig = config.build_rig(cfg)
        self.params = config.build_localization(cfg)

    def prepare(self) -> None:
        import clouds
        from berrypick.geometry import ColoredPointCloud

        cams = (self.rig.cam1, self.rig.cam2)
        poses = [(c.pose.rotation.tolist(), c.pose.translation.to_array().tolist()) for c in cams]
        n = self.CLOUDS_PER_ROUND
        seeds = list(range(n * self.seed, n * self.seed + n))
        for s in seeds:
            xyz1, rgb1, xyz2, rgb2 = clouds.make_cloud_pair(self.SIZE, s, poses)
            pair = (ColoredPointCloud("cam1", xyz1, rgb1), ColoredPointCloud("cam2", xyz2, rgb2))
            self.ops.append(Op(f"cloud{s}", s, clouds=pair))
        # exact answers from a child process, so scipy stays out of this one
        spec = json.dumps({"size": self.SIZE, "seeds": seeds, "poses": poses})
        proc = subprocess.run(
            [sys.executable, str(HERE / "oracle.py")],
            input=spec, capture_output=True, text=True, timeout=150, check=True,
        )
        answers = json.loads(proc.stdout)
        self.expected = {s: answers[str(s)]["boxes"] for s in seeds}
        self.recall = {s: answers[str(s)]["recall"] for s in seeds}

    @staticmethod
    def layer_counts(op: Op) -> dict:
        return {}

    @staticmethod
    def discard(op: Op) -> None:
        pass

    def run(self, op: Op):
        c1, c2 = op.clouds
        return self.localization.localize(c1, c2, self.rig.cam1.pose, self.rig.cam2.pose, self.params)

    def check(self, op: Op, boxes) -> str | None:
        want = self.expected[op.seed]
        if len(boxes) != len(want):
            return f"{op.key}: {len(boxes)} boxes, exact clustering gives {len(want)}"
        for got, exp in zip(boxes, want):
            if got.point_count != exp["count"]:
                return f"{op.key}: box {got.index} holds {got.point_count} points, expected {exp['count']}"
            lo = (got.box.min.x, got.box.min.y, got.box.min.z)
            hi = (got.box.max.x, got.box.max.y, got.box.max.z)
            err = max(abs(a - b) for a, b in zip(lo + hi, exp["min"] + exp["max"]))
            if err > self.BOUND_TOL_M:
                return f"{op.key}: box {got.index} bounds differ by {err:.3e} m"
        return None


WORKLOADS = {w.name: w for w in (HarvestPaper9, Localize100k, TrapSweep)}
