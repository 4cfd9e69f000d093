"""Answers computed apart from the program, used to check every op.

- `exact_boxes`: exact Euclidean clustering of a camera cloud pair with
  scipy (`cKDTree.query_pairs` plus `connected_components`), under the
  strict crop and colour predicates and the [s_min, s_max] size band.
- `closed_form_cut_time`: the linear cut-energy model E*pi*(d/2)^2/(P*duty),
  with E calibrated so a 3 mm stem cuts in 2.3 s at 50 W and duty 0.5.

Run as a script, it reads a JSON spec (cloud size, seeds, camera poses)
on stdin and prints the boxes and blob recall of each cloud pair as
JSON. The benchmark runs it in a child process before timing starts, so
scipy never enters the measured process.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import clouds

# the paper's calibration anchor: 3 mm stem, 50 W, duty 0.5 -> 2.3 s
ANCHOR_CUT_S = 2.3
ANCHOR_POWER_W = 50.0
ANCHOR_DUTY = 0.5
ANCHOR_STEM_M = 0.003
PAPER_CYCLE_S = 8.02

# the default localization parameters, restated so the check does not
# read them from the program
LOCALIZATION = {
    "x_minus": float(clouds.WINDOW_LO[0]), "x_plus": float(clouds.WINDOW_HI[0]),
    "y_minus": float(clouds.WINDOW_LO[1]), "y_plus": float(clouds.WINDOW_HI[1]),
    "z_minus": float(clouds.WINDOW_LO[2]), "z_plus": float(clouds.WINDOW_HI[2]),
    "r_th": 100, "g_th": 70, "b_th": 70,
    "tol": 0.02, "s_min": 20, "s_max": 1000,
}


def closed_form_cut_time(cfg: dict) -> float:
    """Seconds to sever one stem under the resolved config `cfg`."""
    d = cfg["scene"]["stem_diameter"]
    power = cfg["cut"]["laser_power"]
    duty = cfg["cut"]["duty"]
    if duty is None:
        duty = min(1.0, d / cfg["tool"]["lens_stroke"])
    energy_per_area = cfg["cut"]["cut_energy_per_area"]
    if energy_per_area is None:
        energy_per_area = ANCHOR_CUT_S * ANCHOR_POWER_W * ANCHOR_DUTY / (math.pi * (ANCHOR_STEM_M / 2) ** 2)
    return energy_per_area * math.pi * (d / 2) ** 2 / (power * duty)


def exact_boxes(xyz1, rgb1, xyz2, rgb2, poses, loc: dict = LOCALIZATION) -> list[dict]:
    """Boxes of the size-banded components, sorted by centroid (y, x, z)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    base = np.concatenate([
        xyz @ np.asarray(rot).T + np.asarray(trans) for xyz, (rot, trans) in zip((xyz1, xyz2), poses)
    ])
    rgb = np.concatenate([rgb1, rgb2])
    keep = (
        (base[:, 0] > loc["x_minus"]) & (base[:, 0] < loc["x_plus"])
        & (base[:, 1] > loc["y_minus"]) & (base[:, 1] < loc["y_plus"])
        & (base[:, 2] > loc["z_minus"]) & (base[:, 2] < loc["z_plus"])
        & (rgb[:, 0] > loc["r_th"]) & (rgb[:, 1] < loc["g_th"]) & (rgb[:, 2] < loc["b_th"])
    )
    pts = base[keep]
    n = len(pts)
    if n == 0:
        return []
    pairs = cKDTree(pts).query_pairs(loc["tol"], output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels)
    boxes = []
    for label in np.nonzero((sizes >= loc["s_min"]) & (sizes <= loc["s_max"]))[0]:
        member = pts[labels == label]
        c = member.mean(axis=0)
        boxes.append({
            "min": member.min(axis=0).tolist(),
            "max": member.max(axis=0).tolist(),
            "count": int(len(member)),
            "key": (c[1], c[0], c[2]),
        })
    boxes.sort(key=lambda b: b["key"])
    for b in boxes:
        del b["key"]
    return boxes


def blob_recall(boxes: list[dict]) -> int:
    """Number of generated fruit blobs whose centre lies inside some box."""
    return sum(
        any(all(b["min"][k] <= c[k] <= b["max"][k] for k in range(3)) for b in boxes)
        for c in clouds.blob_centres().tolist()
    )


def main() -> int:
    spec = json.load(sys.stdin)
    out = {}
    for seed in spec["seeds"]:
        xyz1, rgb1, xyz2, rgb2 = clouds.make_cloud_pair(spec["size"], seed, spec["poses"])
        boxes = exact_boxes(xyz1, rgb1, xyz2, rgb2, spec["poses"])
        out[str(seed)] = {"boxes": boxes, "recall": blob_recall(boxes)}
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
