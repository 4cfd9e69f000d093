"""Command-line front end: run scenarios, sweep parameters, benchmark.

Exit codes: 0 on success, 2 for configuration errors, 3 for IO errors.
Every artifact embeds the config hash and seed; all wall-clock-derived
values (localization latency, run duration) are kept in sidecar files so
reruns with identical inputs are byte-identical everywhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from .bench import MAX_SIZE, run_bench
from .camera import capture_rig
from .config import (
    SWEEP_AXES,
    apply_sweep_value,
    build_localization,
    build_rig,
    build_scenario,
    config_hash,
    load_config,
    resolve_config,
)
from .controller import BuiltScenario, HarvestEventLog, cycle_metrics, run_harvest
from .errors import BerrypickError, CloudFormatError, ConfigError
from .geometry import ColoredPointCloud, RigidTransform, dump_cloud, load_cloud, merge_clouds, transform_cloud
from .localization import localize

CYCLES_HEADER = ["fruit_id", "cycle_time", "cut_time", "outcome"]


def _write_text(path: Path, text: str) -> bytes:
    """Write `text` as UTF-8 through a tmp file and `os.replace`, so a
    reader never sees half a file; returns the bytes written. The tmp
    file is `path` plus `.tmp`, opened as `open(tmp, "wb")` would open it;
    `os.write` may write less than it is given, so it is called until every
    byte is out. When a write or the replace fails, the tmp file is
    removed if this call created it: a path that `os.open` refused, or a
    file left from an earlier write, is left as it is."""
    data = text.encode()
    target = os.fspath(path)
    tmp = target + ".tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
    except FileExistsError:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        created = False
    try:
        try:
            rest = memoryview(data)
            while rest:
                rest = rest[os.write(fd, rest):]
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except OSError:
        if created:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise
    return data


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def cycles_to_csv(log: HarvestEventLog) -> str:
    """One row per `cycle` record of the log."""
    cycles = log.events("cycle")
    return _csv_text(CYCLES_HEADER, ([c["fruit"], c["cycle_time"], c["cut_time"], c["outcome"]] for c in cycles))


def metrics_to_json(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True, indent=2) + "\n"


def resolve_config_arg(arg: str) -> dict:
    """Accept a config file's path or the name of a packaged scenario. Only
    a file counts as a path, so a directory named like a scenario does not
    shadow it."""
    path = Path(arg)
    if path.is_file():
        return load_config(path)
    name = arg if arg.endswith(".json") else arg + ".json"
    pkg_file = resources.files("berrypick.scenarios").joinpath(name)
    if pkg_file.is_file():
        return resolve_config(json.loads(pkg_file.read_text()))
    raise ConfigError(f"config not found: {arg!r} (no such file or packaged scenario)")


# ((config hash, scene seed), scenario) of the last build; see _kept_build
_last_built: tuple | None = None


def _kept_build(cfg: dict, chash: str, seed: int) -> BuiltScenario:
    """The `BuiltScenario` of resolved config `cfg`, whose hash is `chash`,
    for run seed `seed`.

    The last build is kept, one entry only, and reused when the next has
    the same config hash and scene seed (`scene.seed`, or the run seed
    where that is null); nothing else in it depends on the run seed. So
    the runs of a fixed scene over several run seeds build it once, as do
    a sweep's points of one seed, and with it the views it keeps. The key
    is the hash, not the dict: JSON tells -0.0 from 0.0 and 1 from 1.0,
    where `==` does not. Sharing is safe, as every component is frozen,
    the kept views are read-only and `run_harvest` only reads the build:
    it keeps the fruit still hanging in a list of its own."""
    global _last_built
    scene_seed = cfg["scene"]["seed"]
    key = (chash, seed if scene_seed is None else scene_seed)
    if _last_built is None or _last_built[0] != key:
        _last_built = (key, build_scenario(cfg, seed))
    return _last_built[1]


def run_one(cfg: dict, seed: int, run_dir: Path, dump_clouds: Path | None = None) -> tuple[dict, dict]:
    """Execute one harvest run and write its artifacts; returns (metrics,
    wallclock). The scenario is built once for the runs that share it
    (`_kept_build`)."""
    chash = config_hash(cfg)
    return _run_built(_kept_build(cfg, chash, seed), chash, seed, run_dir, dump_clouds)


def _run_built(
    built: BuiltScenario, chash: str, seed: int, run_dir: Path, dump_clouds: Path | None = None
) -> tuple[dict, dict]:
    """`run_one` for a built scenario whose config hash is `chash`."""
    wall_start = time.perf_counter()
    log, localization_ms = run_harvest(built, seed, config_hash=chash)
    wall_s = time.perf_counter() - wall_start

    metrics = cycle_metrics(log)
    metrics["config_hash"] = chash
    metrics["seed"] = seed
    deterministic = {
        "events.jsonl": log.to_jsonl(),
        "cycles.csv": cycles_to_csv(log),
        "metrics.json": metrics_to_json(metrics),
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    # manifest ties config hash + seed to the checksum of every
    # deterministic artifact; the wall-clock sidecar stays outside it
    manifest = {
        "config_hash": chash,
        "seed": seed,
        "files": {
            name: hashlib.sha256(_write_text(run_dir / name, text)).hexdigest()
            for name, text in deterministic.items()
        },
    }
    _write_text(run_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    wallclock = {
        "localization_ms": localization_ms,
        "wall_s": wall_s,
    }
    _write_text(run_dir / "wallclock.json", json.dumps(wallclock, sort_keys=True, indent=2) + "\n")

    if dump_clouds is not None and built.box_source == "cameras":
        # capture_rig is pure in (scene, rig, seed): these are the whole clouds whose red rows the run localized
        c1, c2 = capture_rig(built.scene, built.rig, seed, views=built.views)
        dump_clouds.mkdir(parents=True, exist_ok=True)
        dump_cloud(c1, dump_clouds / "cam1.txt")
        dump_cloud(c2, dump_clouds / "cam2.txt")
        merged = merge_clouds(
            transform_cloud(built.rig.cam1.pose, c1, "base"),
            transform_cloud(built.rig.cam2.pose, c2, "base"),
        )
        dump_cloud(merged, dump_clouds / "merged_base.txt")
    return metrics, wallclock


def cmd_run(args) -> int:
    cfg = resolve_config_arg(args.config)
    seeds = [args.seed] if args.seed is not None else cfg["seeds"]
    out_root = Path(args.out or cfg["out"] or f"out/{cfg['name']}")
    for seed in seeds:
        run_dir = out_root / f"seed{seed}"
        dump_dir = Path(args.dump_clouds) / f"seed{seed}" if args.dump_clouds else None
        metrics, _ = run_one(cfg, seed, run_dir, dump_dir)
        print(f"seed {seed}: {metrics['n_harvested']}/{metrics['n_ripe']} harvested -> {run_dir}")
    return 0


def _mean(values: list):
    known = [v for v in values if v is not None]
    return sum(known) / len(known) if known else None


# sweep.csv: each run's metrics, and how a value's aggregate row (seed
# blank, aggregate 1) combines them over the seeds
SWEEP_ROW_KEYS = ("axis", "value", "seed")
SWEEP_COLUMNS = {
    "n_ripe": sum,
    "n_harvested": sum,
    "n_missed_trap": sum,
    "n_not_detected": sum,
    "success_rate": _mean,
    "mean_cycle_time": _mean,
    "mean_cut_time": _mean,
    "config_hash": lambda hashes: hashes[0],
}
# sweep_wallclock.csv: each run's wall-clock sidecar
WALL_COLUMNS = ("localization_ms", "wall_s")


def _sweep_seed(job) -> list:
    """Every point of a sweep for one run seed; returns each point's
    (metrics, wallclock). The sweep config is built once for the seed
    (`_kept_build`), and each point runs on that build with the one
    component its axis sets replaced by the point's (`BuiltScenario.derive`):
    no axis changes the scene or a camera's geometry, so the seed's points
    share the views of its scene."""
    (cfg, chash, field, out_root, points), seed = job
    built = _kept_build(cfg, chash, seed)
    return [
        _run_built(built.derive(**{field: component}), point_hash, seed, out_root / f"{name}_seed{seed}")
        for component, point_hash, name in points
    ]


def _env_threads() -> int:
    """Worker count from BERRYPICK_THREADS; unset or empty reads as 1."""
    raw = os.environ.get("BERRYPICK_THREADS", "")
    try:
        return int(raw or "1")
    except ValueError:
        raise ConfigError(f"BERRYPICK_THREADS must be an integer, got {raw!r}") from None


def cmd_sweep(args) -> int:
    threads = _env_threads()
    cfg = resolve_config_arg(args.config)
    axis = args.axis
    key, field, build = SWEEP_AXES[axis]
    values = cfg["sweep"][key]
    if not values:
        raise ConfigError(f"sweep.{key} is empty; nothing to sweep")
    seeds = cfg["seeds"]
    out_root = Path(args.out or cfg["out"] or f"out/{cfg['name']}_sweep_{axis}")
    out_root.mkdir(parents=True, exist_ok=True)

    # Each point's component is built once, by the builder `resolve_config`
    # checked the point with, and keeps the point's own config hash. A job
    # is one run seed: it builds the sweep config once and runs every point
    # on that build, so a worker's points share the seed's views.
    points = []
    for value in values:
        point = apply_sweep_value(cfg, axis, value)
        points.append((build(point), config_hash(point), f"{axis}_{value}"))
    jobs = [((cfg, config_hash(cfg), field, out_root, points), seed) for seed in seeds]
    workers = min(threads, len(seeds))
    if workers < 2:
        per_seed = [_sweep_seed(job) for job in jobs]
    else:
        # imported here, so that no other command loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_sweep_seed, jobs))
    # sweep.csv's rows are value-major
    results = [(value, seed, *per_seed[s][v]) for v, value in enumerate(values) for s, seed in enumerate(seeds)]

    rows = [[axis, v, seed, 0, *(metrics[c] for c in SWEEP_COLUMNS)] for v, seed, metrics, _ in results]
    for value in values:
        sub = [metrics for v, _, metrics, _ in results if v == value]
        rows.append([axis, value, "", 1, *(combine([m[c] for m in sub]) for c, combine in SWEEP_COLUMNS.items())])
    _write_text(out_root / "sweep.csv", _csv_text([*SWEEP_ROW_KEYS, "aggregate", *SWEEP_COLUMNS], rows))

    wall_rows = [[axis, v, seed, *(wallclock[c] for c in WALL_COLUMNS)] for v, seed, _, wallclock in results]
    _write_text(out_root / "sweep_wallclock.csv", _csv_text([*SWEEP_ROW_KEYS, *WALL_COLUMNS], wall_rows))

    print(f"swept {axis} over {len(values)} values x {len(seeds)} seeds -> {out_root}")
    return 0


def cmd_bench(args) -> int:
    params = None
    rig = None
    if args.config:
        cfg = resolve_config_arg(args.config)
        params = build_localization(cfg)
        rig = build_rig(cfg)
    report = run_bench(args.size, args.reps, seed=args.seed, params=params, rig=rig)
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_text(out, text + "\n")
    return 0


def _load_camera_cloud(path: str, pose: RigidTransform) -> ColoredPointCloud:
    """`load_cloud`, plus the rule that every point stays finite once
    `localize` moves it to the base frame; a point that overflows there is
    named by its line, as a malformed one is."""
    cloud = load_cloud(path)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(pose.apply_to(cloud.xyz)).all(axis=1)
    if not finite.all():
        line = int(np.argmin(finite)) + 2
        raise CloudFormatError(f"{path}:{line}: coordinates overflow the float range in the base frame")
    return cloud


def cmd_localize(args) -> int:
    cfg = resolve_config_arg(args.params)
    params = build_localization(cfg)
    rig = build_rig(cfg)
    c1 = _load_camera_cloud(args.cloud1, rig.cam1.pose)
    c2 = _load_camera_cloud(args.cloud2, rig.cam2.pose)
    boxes = localize(c1, c2, rig.cam1.pose, rig.cam2.pose, params)
    payload = {
        "units": "m",
        "boxes": [
            {
                "index": b.index,
                "min": [b.box.min.x, b.box.min.y, b.box.min.z],
                "max": [b.box.max.x, b.box.max.y, b.box.max.z],
                "point_count": b.point_count,
            }
            for b in boxes
        ],
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        _write_text(Path(args.out), text + "\n")
    else:
        print(text)
    return 0


def _int_at_least(lo: int, hi: int | None = None):
    """argparse type: an integer >= lo (1 for counts, 0 for seeds), and <= hi if given."""
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi:,}]"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"must be an integer {bound}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berrypick",
        description="Deterministic strawberry-harvesting simulator and perception harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its artifacts")
    p_run.add_argument("--config", required=True, help="config path or packaged scenario name")
    p_run.add_argument("--seed", type=_int_at_least(0), default=None, help="override the config seed list")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--dump-clouds", default=None, help="also dump cam1/cam2/base clouds here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the cross product of a sweep axis and the seed list")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bench = sub.add_parser("bench", help="time the localization pipeline on synthetic clouds")
    p_bench.add_argument("--size", type=_int_at_least(1, MAX_SIZE), required=True, help="total merged cloud size")
    p_bench.add_argument("--reps", type=_int_at_least(1), default=20)
    p_bench.add_argument("--seed", type=_int_at_least(0), default=0)
    p_bench.add_argument("--config", default=None)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_loc = sub.add_parser("localize", help="run localization on dumped cloud files")
    p_loc.add_argument("--cloud1", required=True)
    p_loc.add_argument("--cloud2", required=True)
    p_loc.add_argument("--params", required=True, help="config supplying localization params and rig")
    p_loc.add_argument("--out", default=None)
    p_loc.set_defaults(func=cmd_localize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3
    except BerrypickError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
