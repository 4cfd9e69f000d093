"""Acceptance suite: one test per shipped criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure); thresholds are fixed here, not tunable from outside.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from berrypick.bench import run_bench
from berrypick.camera import capture_rig, default_rig
from berrypick.cli import apply_sweep_value, resolve_config_arg, run_one
from berrypick.config import build_scenario
from berrypick.controller import cycle_metrics, run_harvest
from berrypick.geometry import ColoredPointCloud
from berrypick.localization import LocalizationParams, cluster_indices, localize

from oracles import brute_force_clusters

CYCLE_TIME_TARGET = 8.02
DESCENT_LEG_TARGET = 1.77
CUT_TIME_TARGET = 2.3
CUT_TIME_100W_TARGET = 1.15
TIMING_BAND = 0.25
LATENCY_BUDGET_MS = 100.0
BENCH_SIZE = 100_000
TRAP_LIMIT_MM = 15
CENTER_ERROR_LIMIT = 0.005
NOISY_SEEDS = 50
ORACLE_CLOUDS = 100


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def robustness_sweep():
    """All offset-sweep runs: {offset_mm: [log, ...]}. Shared by C1 and C8."""
    cfg = resolve_config_arg("robustness")
    start = time.perf_counter()
    results = {}
    for offset_mm in range(-20, 21):
        point = apply_sweep_value(cfg, "offset", offset_mm)
        runs = []
        for seed in cfg["seeds"]:
            built = build_scenario(point, seed)
            log, _ = run_harvest(built, seed)
            runs.append(log)
        results[offset_mm] = runs
    elapsed = time.perf_counter() - start
    return results, elapsed, cfg


@pytest.fixture(scope="module")
def paper9_run():
    """Nominal paper9 run (default noise), shared by C6/C7/C8."""
    cfg = resolve_config_arg("paper9")
    seed = cfg["seeds"][0]
    built = build_scenario(cfg, seed)
    log, _ = run_harvest(built, seed)
    return cfg, seed, log


def test_c1_trap_tolerance_step_function(robustness_sweep):
    results, elapsed, cfg = robustness_sweep
    n_seeds = len(cfg["seeds"])
    failures = []
    for offset_mm, runs in results.items():
        cycles = [c for log in runs for c in log.events("cycle")]
        harvested = sum(c["outcome"] == "harvested" for c in cycles)
        total = len(cycles)
        rate = harvested / total
        expected = 1.0 if abs(offset_mm) <= TRAP_LIMIT_MM else 0.0
        if rate != expected:
            failures.append((offset_mm, rate, expected))
    ok = not failures and elapsed < 60.0
    report(
        "C1 (trap-tolerance step function)",
        ok,
        f"41 offsets x {n_seeds} seeds, success exactly 1.0 for |offset|<={TRAP_LIMIT_MM}mm "
        f"and 0.0 beyond; runtime {elapsed:.1f}s (<60s); failures={failures}",
    )


def test_c2_localization_correctness():
    cfg = resolve_config_arg("paper9")

    # zero-noise: exactly 9 boxes, each containing its true fruit center
    quiet = json.loads(json.dumps(cfg))
    for cam in ("cam1", "cam2"):
        quiet["rig"][cam]["depth_noise_sigma"] = 0.0
        quiet["rig"][cam]["dropout_rate"] = 0.0
    built = build_scenario(quiet, quiet["seeds"][0])
    c1, c2 = capture_rig(built.scene, built.rig, quiet["seeds"][0])
    boxes = localize(c1, c2, built.rig.cam1.pose, built.rig.cam2.pose, built.params)
    fruits = sorted(built.scene.strawberries, key=lambda s: s.center.y)
    zero_noise_ok = len(boxes) == 9 and all(
        b.box.contains(f.center) for b, f in zip(boxes, fruits)
    )

    # default noise: >=95% of fruits boxed within 5 mm over 50 seeds
    total = 0
    good = 0
    for seed in range(NOISY_SEEDS):
        noisy = json.loads(json.dumps(cfg))
        noisy["scene"]["seed"] = 1000 + seed
        built = build_scenario(noisy, seed)
        c1, c2 = capture_rig(built.scene, built.rig, seed)
        boxes = localize(c1, c2, built.rig.cam1.pose, built.rig.cam2.pose, built.params)
        for fruit in built.scene.strawberries:
            total += 1
            errs = [
                np.linalg.norm(
                    [b.box.center.x - fruit.center.x,
                     b.box.center.y - fruit.center.y,
                     b.box.center.z - fruit.center.z]
                )
                for b in boxes
            ]
            if errs and min(errs) <= CENTER_ERROR_LIMIT:
                good += 1
    frac = good / total
    ok = zero_noise_ok and frac >= 0.95
    report(
        "C2 (localization correctness)",
        ok,
        f"zero-noise: 9 boxes containing centers = {zero_noise_ok}; "
        f"default noise: {good}/{total} fruits within 5mm ({frac:.3f} >= 0.95)",
    )


def test_c3_clustering_oracle_equivalence():
    rng = np.random.default_rng(2024)
    seeds = rng.integers(0, 2**31, size=ORACLE_CLOUDS)
    mismatches = []
    for i, seed in enumerate(seeds.tolist()):
        r = np.random.default_rng(seed)
        kind = i % 4
        if kind == 0:
            n = int(r.integers(0, 2000))
            span = float(r.uniform(0.1, 0.6))
            xyz = r.uniform(0, span, size=(n, 3))
        elif kind == 1:
            blobs = [
                r.uniform(0, 0.3, size=3) + r.normal(scale=0.005, size=(int(r.integers(5, 120)), 3))
                for _ in range(int(r.integers(1, 10)))
            ]
            xyz = np.concatenate(blobs)[:2000]
        elif kind == 2:
            n = int(r.integers(1, 400))
            xyz = np.zeros((n, 3))
            xyz[:, 0] = np.arange(n) * 0.25  # exact-tolerance chain when tol = 0.25
        else:
            n = int(r.integers(100, 2000))
            xyz = r.uniform(0, 0.15, size=(n, 3))
        tol = 0.25 if kind == 2 else 0.02
        s_min, s_max = (1, 10**9) if i % 2 == 0 else (20, 1000)
        mine = cluster_indices(xyz, tol, s_min, s_max)
        oracle = brute_force_clusters(xyz, tol, s_min, s_max)
        same = len(mine) == len(oracle) and all(
            np.array_equal(a, np.asarray(b)) for a, b in zip(mine, oracle)
        )
        if not same:
            mismatches.append(int(seed))
    ok = not mismatches
    report(
        "C3 (clustering oracle equivalence)",
        ok,
        f"{ORACLE_CLOUDS} random clouds <=2000 pts, master seed 2024, "
        f"mismatch seeds={mismatches} (zero allowed)",
    )


def test_c4_latency_budget():
    start = time.perf_counter()
    result = run_bench(BENCH_SIZE, reps=20, seed=0)
    elapsed = time.perf_counter() - start
    # the timed run must also give seed 0's answer: 7 boxes, each holding a
    # blob centre (red noise bridges the other two into one cluster above
    # s_max, which is dropped)
    answer = (result["n_boxes"], result["blob_recall"])
    # and put seed 0's load on the clustering, so that C4 cannot get
    # lighter unless this test changes
    load = tuple(result[k] for k in ("n_red", "n_cells", "n_cell_pairs"))
    ok = result["max_ms"] <= LATENCY_BUDGET_MS and elapsed < 120.0 and answer == (7, 7) and load == (8992, 1273, 7932)
    report(
        "C4 (latency budget)",
        ok,
        f"{BENCH_SIZE} merged points x 20 reps: p50={result['p50_ms']:.1f}ms "
        f"p95={result['p95_ms']:.1f}ms max={result['max_ms']:.1f}ms "
        f"(budget {LATENCY_BUDGET_MS}ms); bench runtime {elapsed:.1f}s (<120s); "
        f"n_boxes={answer[0]} blob_recall={answer[1]} (want 7 and 7); "
        f"n_red, n_cells, n_cell_pairs={load} (want (8992, 1273, 7932))",
    )


def test_c4_latency_budget_red_filled_window():
    # C4's worst case: all 100k points red and spread over the crop window,
    # as a red tray filling both views would give. They form one cluster,
    # too large for a fruit, so no box comes back
    rig = default_rig()
    p = LocalizationParams()
    rng = np.random.default_rng(4)
    xyz = rng.uniform([p.x_minus, p.y_minus, p.z_minus], [p.x_plus, p.y_plus, p.z_plus], size=(BENCH_SIZE, 3))
    red = np.tile(np.array([[200, 30, 30]], dtype=np.uint8), (BENCH_SIZE, 1))
    half = BENCH_SIZE // 2
    c1 = ColoredPointCloud("cam1", rig.cam1.pose.inverse().apply_to(xyz[:half]), red[:half])
    c2 = ColoredPointCloud("cam2", rig.cam2.pose.inverse().apply_to(xyz[half:]), red[half:])
    counts = {}
    boxes = localize(c1, c2, rig.cam1.pose, rig.cam2.pose, p, counts)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        localize(c1, c2, rig.cam1.pose, rig.cam2.pose, p)
        times.append((time.perf_counter() - start) * 1e3)
    answer = (len(boxes), counts["n_clusters_raw"], counts["discarded_large"])
    ok = max(times) <= LATENCY_BUDGET_MS and answer == (0, 1, 1)
    report(
        "C4 (latency budget, red-filled window)",
        ok,
        f"{BENCH_SIZE} red points, {counts['n_red']} in the window, x 3 reps: max={max(times):.1f}ms "
        f"(budget {LATENCY_BUDGET_MS}ms); n_boxes, n_clusters_raw, discarded_large={answer} (want (0, 1, 1))",
    )


def test_c5_cut_time_anchor_and_scaling():
    cfg = resolve_config_arg("robustness")
    dt = cfg["cut"]["dt"]

    built = build_scenario(cfg, 1)
    log, _ = run_harvest(built, 1)
    t50 = log.events("cycle")[0]["cut_time"]

    boosted = json.loads(json.dumps(cfg))
    boosted["cut"]["laser_power"] = 100.0
    built100 = build_scenario(boosted, 1)
    log100, _ = run_harvest(built100, 1)
    t100 = log100.events("cycle")[0]["cut_time"]

    ok = abs(t50 - CUT_TIME_TARGET) <= dt and abs(t100 - CUT_TIME_100W_TARGET) <= dt
    report(
        "C5 (cut-time anchor and scaling)",
        ok,
        f"50W cut {t50:.3f}s (target {CUT_TIME_TARGET}±{dt}); "
        f"100W cut {t100:.3f}s (target {CUT_TIME_100W_TARGET}±{dt})",
    )


def test_c6_cycle_time_reproduction(paper9_run):
    cfg, seed, log = paper9_run
    metrics = cycle_metrics(log)
    mean_cycle = metrics["mean_cycle_time"]
    lo, hi = CYCLE_TIME_TARGET * (1 - TIMING_BAND), CYCLE_TIME_TARGET * (1 + TIMING_BAND)

    descend = next(r for r in log.events("move") if r["leg"] == "descend")
    leg = descend["dur"]
    leg_lo, leg_hi = DESCENT_LEG_TARGET * (1 - TIMING_BAND), DESCENT_LEG_TARGET * (1 + TIMING_BAND)

    # model-independent property: doubling velocity_scale exactly halves moves
    fast_cfg = json.loads(json.dumps(cfg))
    fast_cfg["robot"]["velocity_scale"] = 1.0
    fast_built = build_scenario(fast_cfg, seed)
    fast_log, _ = run_harvest(fast_built, seed)
    slow_moves = [r["dur"] for r in log.events("move", "home")]
    fast_moves = [r["dur"] for r in fast_log.events("move", "home")]
    halved = len(slow_moves) == len(fast_moves) and all(
        s == 2.0 * f for s, f in zip(slow_moves, fast_moves)
    )

    ok = (lo <= mean_cycle <= hi) and (leg_lo <= leg <= leg_hi) and halved
    report(
        "C6 (cycle-time reproduction)",
        ok,
        f"mean cycle {mean_cycle:.2f}s in [{lo:.2f}, {hi:.2f}]; "
        f"HOME->z_min leg {leg:.2f}s in [{leg_lo:.2f}, {leg_hi:.2f}]; "
        f"exact halving of {len(slow_moves)} move durations = {halved}",
    )


def test_c7_determinism(tmp_path):
    cfg = resolve_config_arg("paper9")
    seed = cfg["seeds"][0]
    dirs = []
    for name in ("first", "second"):
        run_dir = tmp_path / name
        run_one(cfg, seed, run_dir)
        dirs.append(run_dir)

    mismatched = []
    for artifact in ("events.jsonl", "cycles.csv", "metrics.json"):
        if (dirs[0] / artifact).read_bytes() != (dirs[1] / artifact).read_bytes():
            mismatched.append(artifact)

    point = apply_sweep_value(resolve_config_arg("robustness"), "offset", 7)
    sweep_dirs = []
    for name in ("sa", "sb"):
        run_dir = tmp_path / name
        run_one(point, 3, run_dir)
        sweep_dirs.append(run_dir)
    for artifact in ("events.jsonl", "cycles.csv", "metrics.json"):
        if (sweep_dirs[0] / artifact).read_bytes() != (sweep_dirs[1] / artifact).read_bytes():
            mismatched.append(f"sweep:{artifact}")

    ok = not mismatched
    report(
        "C7 (determinism)",
        ok,
        f"paper9 and a sweep point rerun byte-identical excluding wall-clock sidecar; "
        f"mismatches={mismatched}",
    )


def _scan_safety(log) -> list[str]:
    violations = []
    trapped = set()
    detach_energy = {}
    for rec in log.records:
        ev = rec["event"]
        if ev == "trap" and rec["outcome"] == "trapped":
            trapped.add(rec["fruit"])
        elif ev == "laser_on" and rec["fruit"] not in trapped:
            violations.append(f"laser_on without trap (fruit {rec['fruit']})")
        elif ev == "detach_detect":
            detach_energy[rec["fruit"]] = rec["energy"]
        elif "energy" in rec and rec["fruit"] in detach_energy:
            if rec["energy"] != detach_energy[rec["fruit"]]:
                violations.append(f"energy accrued after detach (fruit {rec['fruit']})")
    return violations


def test_c8_state_machine_safety(robustness_sweep, paper9_run):
    results, _, _ = robustness_sweep
    violations = []
    n_logs = 0
    for runs in results.values():
        for log in runs:
            violations.extend(_scan_safety(log))
            n_logs += 1
    _, _, paper_log = paper9_run
    violations.extend(_scan_safety(paper_log))
    n_logs += 1

    # config-abuse path: cut that cannot finish within the laser cap
    cfg = resolve_config_arg("robustness")
    built = build_scenario(cfg, 1)
    weak = replace(built.cut, laser_power=0.001, laser_timeout=2.0)
    timeout_log, _ = run_harvest(replace(built, cut=weak), 1)
    violations.extend(_scan_safety(timeout_log))
    n_logs += 1
    if not all(c["outcome"] == "not_detected" for c in timeout_log.events("cycle")):
        violations.append("timeout run did not report not_detected")

    ok = not violations
    report(
        "C8 (state-machine safety)",
        ok,
        f"{n_logs} logs scanned (offset sweep, paper9, laser-timeout run); "
        f"violations={violations} (zero allowed)",
    )
