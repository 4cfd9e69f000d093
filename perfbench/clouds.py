"""Synthetic camera cloud pairs for the `localize_100k` workload.

The make-up is that of a full trough seen by both cameras: nine dense red
fruit blobs of 16.5 mm radius spaced along y inside the crop window, 8 %
of all points; sparse red noise over the window, 1 %; grey clutter inside
the window, 25 %; and grey background over a wide box for the rest. The
points are shuffled, split in two halves and expressed in the two camera
frames. A cloud pair is a pure function of (size, seed, camera poses).

This generator belongs to the benchmark, so a change to the program's own
bench clouds cannot move the workload.
"""

from __future__ import annotations

import numpy as np

N_BLOBS = 9
BLOB_RADIUS = 0.0165
RED_FRACTION = 0.08
RED_NOISE_FRACTION = 0.01
IN_WINDOW_FRACTION = 0.25

# crop window and colour predicates of the default localization parameters
WINDOW_LO = np.array([0.25, -0.30, 0.30])
WINDOW_HI = np.array([0.55, 0.30, 0.50])
BACKGROUND_LO = np.array([-0.2, -0.8, 0.0])
BACKGROUND_HI = np.array([1.0, 0.8, 1.0])


def blob_centres() -> np.ndarray:
    """(N_BLOBS, 3) fruit centres, evenly spaced along the window's y span."""
    centre = (WINDOW_LO + WINDOW_HI) / 2.0
    span_y = WINDOW_HI[1] - WINDOW_LO[1]
    out = np.tile(centre, (N_BLOBS, 1))
    out[:, 1] = WINDOW_LO[1] + span_y * np.arange(1, N_BLOBS + 1) / (N_BLOBS + 1)
    return out


def _red(rng: np.random.Generator, n: int) -> np.ndarray:
    rgb = np.empty((n, 3), dtype=np.uint8)
    rgb[:, 0] = rng.integers(150, 256, size=n)
    rgb[:, 1] = rng.integers(0, 70, size=n)
    rgb[:, 2] = rng.integers(0, 70, size=n)
    return rgb


def _grey(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    g = rng.integers(lo, hi, size=n).astype(np.uint8)
    return np.stack([g, g, g], axis=1)


def make_cloud_pair(size: int, seed: int, poses) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return (xyz1, rgb1, xyz2, rgb2) in the cam1 and cam2 frames.

    `poses` holds one (rotation, translation) pair per camera, mapping that
    camera's frame to the base frame.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    n_blob = int(size * RED_FRACTION / N_BLOBS)
    n_noise = int(size * RED_NOISE_FRACTION)
    n_window = int(size * IN_WINDOW_FRACTION)
    n_background = size - N_BLOBS * n_blob - n_noise - n_window

    xyz_parts = []
    rgb_parts = []
    for centre in blob_centres():
        dirs = rng.normal(size=(n_blob, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        xyz_parts.append(centre + BLOB_RADIUS * dirs)
        rgb_parts.append(_red(rng, n_blob))
    xyz_parts.append(rng.uniform(WINDOW_LO, WINDOW_HI, size=(n_noise, 3)))
    rgb_parts.append(_red(rng, n_noise))
    xyz_parts.append(rng.uniform(WINDOW_LO, WINDOW_HI, size=(n_window, 3)))
    rgb_parts.append(_grey(rng, n_window, 90, 200))
    xyz_parts.append(rng.uniform(BACKGROUND_LO, BACKGROUND_HI, size=(n_background, 3)))
    rgb_parts.append(_grey(rng, n_background, 60, 220))

    perm = rng.permutation(size)
    xyz = np.concatenate(xyz_parts)[perm]
    rgb = np.concatenate(rgb_parts)[perm]
    half = size // 2
    out = []
    for (rot, trans), sl in zip(poses, (slice(0, half), slice(half, size))):
        rot = np.asarray(rot, dtype=np.float64)
        # base -> camera: the inverse rigid transform, p @ R + (-(R^T t))
        out.append(xyz[sl] @ rot + (-(rot.T @ np.asarray(trans, dtype=np.float64))))
        out.append(rgb[sl])
    return out[0], out[1], out[2], out[3]
