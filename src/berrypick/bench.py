"""Latency benchmark for the localization pipeline.

Builds synthetic camera cloud pairs that mimic a worst-case harvest scene
(a full trough of fruit clusters plus background clutter at a realistic
in-window fraction) and times `localize` end to end, including the
transform and merge stages.
"""

from __future__ import annotations

import time

import numpy as np

from .camera import CameraRig, default_rig
from .geometry import ColoredPointCloud, Vec3
from .localization import LocalizationParams, localize
from .scene import RIPE, draw_rgb

N_BLOBS = 9
RED_FRACTION = 0.08
RED_NOISE_FRACTION = 0.01
IN_WINDOW_FRACTION = 0.25
# untimed `localize` calls before the timed reps
WARMUP = 2
# the largest merged cloud `berrypick bench --size` builds, ~0.9 GB at its peak
MAX_SIZE = 10**7


def blob_centers(params: LocalizationParams) -> list[Vec3]:
    """Centers of the N_BLOBS red fruit blobs, spaced evenly along y through
    the middle of the crop window."""
    cx = (params.x_minus + params.x_plus) / 2.0
    cz = (params.z_minus + params.z_plus) / 2.0
    span_y = params.y_plus - params.y_minus
    return [Vec3(cx, params.y_minus + span_y * (k + 1) / (N_BLOBS + 1), cz) for k in range(N_BLOBS)]


def make_bench_clouds(
    size: int,
    seed: int,
    params: LocalizationParams,
    rig: CameraRig,
) -> tuple[ColoredPointCloud, ColoredPointCloud]:
    """Two camera-frame clouds totalling `size` points.

    Composition: dense red fruit blobs inside the crop window, sparse red
    noise, non-red in-window clutter, and a broad non-red background. The
    clustering stage therefore sees the worst realistic load while the
    colour threshold scans both whole camera clouds.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))

    n_blob_pts = max(0, int(size * RED_FRACTION / N_BLOBS))
    n_red_noise = int(size * RED_NOISE_FRACTION)
    n_window = int(size * IN_WINDOW_FRACTION)
    n_background = size - N_BLOBS * n_blob_pts - n_red_noise - n_window

    chunks_xyz = []
    chunks_rgb = []
    for center in blob_centers(params):
        if n_blob_pts == 0:
            break
        dirs = rng.normal(size=(n_blob_pts, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        chunks_xyz.append(center.to_array() + 0.0165 * dirs)
        chunks_rgb.append(draw_rgb(rng, n_blob_pts, RIPE))

    window_lo = np.array([params.x_minus, params.y_minus, params.z_minus])
    window_hi = np.array([params.x_plus, params.y_plus, params.z_plus])

    if n_red_noise:
        chunks_xyz.append(rng.uniform(window_lo, window_hi, size=(n_red_noise, 3)))
        chunks_rgb.append(draw_rgb(rng, n_red_noise, RIPE))

    if n_window:
        chunks_xyz.append(rng.uniform(window_lo, window_hi, size=(n_window, 3)))
        grey = rng.integers(90, 200, size=n_window).astype(np.uint8)
        chunks_rgb.append(np.stack([grey, grey, grey], axis=1))

    if n_background > 0:
        chunks_xyz.append(
            rng.uniform([-0.2, -0.8, 0.0], [1.0, 0.8, 1.0], size=(n_background, 3))
        )
        grey = rng.integers(60, 220, size=n_background).astype(np.uint8)
        chunks_rgb.append(np.stack([grey, grey, grey], axis=1))

    xyz = np.concatenate(chunks_xyz)
    rgb = np.concatenate(chunks_rgb)
    perm = rng.permutation(len(xyz))
    xyz = xyz[perm]
    rgb = rgb[perm]

    half = len(xyz) // 2
    inv1 = rig.cam1.pose.inverse()
    inv2 = rig.cam2.pose.inverse()
    c1 = ColoredPointCloud("cam1", inv1.apply_to(xyz[:half]), rgb[:half])
    c2 = ColoredPointCloud("cam2", inv2.apply_to(xyz[half:]), rgb[half:])
    return c1, c2


def run_bench(
    size: int,
    reps: int,
    seed: int = 0,
    params: LocalizationParams | None = None,
    rig: CameraRig | None = None,
) -> dict:
    """Time `localize` over `reps` repetitions; returns a latency report (ms).

    `blob_recall` counts the generated blob centers that lie inside some
    returned box, so a fast but wrong clustering shows up in the report.
    `n_red`, `n_cells`, `n_cell_pairs` and `n_clusters_raw`, the load the
    clouds put on the clustering, come from the first untimed call, so a
    change that lightens the benchmark's work shows up as well.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    params = params or LocalizationParams()
    rig = rig or default_rig()
    c1, c2 = make_bench_clouds(size, seed, params, rig)
    t1, t2 = rig.cam1.pose, rig.cam2.pose
    load = {}
    localize(c1, c2, t1, t2, params, load)
    for _ in range(WARMUP - 1):
        localize(c1, c2, t1, t2, params)
    samples = []
    n_boxes = 0
    for _ in range(reps):
        start = time.perf_counter()
        boxes = localize(c1, c2, t1, t2, params)
        samples.append((time.perf_counter() - start) * 1e3)
        n_boxes = len(boxes)
    arr = np.array(samples)
    recall = sum(any(b.box.contains(c) for b in boxes) for c in blob_centers(params))
    return {
        "size": size,
        "reps": reps,
        "seed": seed,
        "warmup": WARMUP,
        "n_boxes": n_boxes,
        "blob_recall": recall,
        **{k: load[k] for k in ("n_red", "n_cells", "n_cell_pairs", "n_clusters_raw")},
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "max_ms": float(arr.max()),
        "min_ms": float(arr.min()),
    }
