"""Ripe-strawberry localization from dual camera clouds.

The pipeline runs in a fixed order: transform both camera clouds to the
arm base frame, merge them, crop to the reachable window, keep red points,
cluster by Euclidean proximity and box each cluster. Crop bounds are
strict inequalities; cluster adjacency is inclusive (distance <= tol).
Clusters are returned sorted by ascending centroid y (ties broken by
centroid x, then z) and each cluster keeps its points in input order.

`localize` and `cluster_indices` fill an optional `telemetry` dict with
deterministic counts only: points per stage, and clusters found and
dropped as too small or too large. Nothing here reads the clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatchError
from .geometry import Aabb, ColoredPointCloud, RigidTransform, Vec3, merge_clouds, transform_cloud


@dataclass(frozen=True)
class LocalizationParams:
    x_plus: float = 0.55
    x_minus: float = 0.25
    y_plus: float = 0.30
    y_minus: float = -0.30
    z_plus: float = 0.50
    z_minus: float = 0.30
    r_th: int = 100
    g_th: int = 70
    b_th: int = 70
    tol: float = 0.02
    s_min: int = 20
    s_max: int = 1000

    def __post_init__(self):
        for axis in "xyz":
            if not getattr(self, f"{axis}_minus") < getattr(self, f"{axis}_plus"):
                raise ValueError(f"{axis}_minus must be < {axis}_plus")
        if self.s_min <= 0:
            raise ValueError(f"s_min must be > 0, got {self.s_min}")
        if self.s_min > self.s_max:
            raise ValueError(f"s_min must be <= s_max, got s_min={self.s_min} s_max={self.s_max}")
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        for name in ("r_th", "g_th", "b_th"):
            v = getattr(self, name)
            if not 0 <= v <= 255:
                raise ValueError(f"{name} must be in [0, 255], got {v}")


@dataclass(frozen=True)
class StrawberryBox:
    index: int
    box: Aabb
    point_count: int


def crop_window(cloud: ColoredPointCloud, p: LocalizationParams) -> ColoredPointCloud:
    """Keep points strictly inside the reachable window (base frame only)."""
    if cloud.frame != "base":
        raise FrameMismatchError(f"crop_window expects a base-frame cloud, got {cloud.frame!r}")
    xyz = cloud.xyz
    mask = (
        (xyz[:, 0] > p.x_minus) & (xyz[:, 0] < p.x_plus)
        & (xyz[:, 1] > p.y_minus) & (xyz[:, 1] < p.y_plus)
        & (xyz[:, 2] > p.z_minus) & (xyz[:, 2] < p.z_plus)
    )
    return ColoredPointCloud(cloud.frame, xyz[mask], cloud.rgb[mask])


def threshold_red(cloud: ColoredPointCloud, p: LocalizationParams) -> ColoredPointCloud:
    """Keep points with r > r_th, g < g_th and b < b_th."""
    rgb = cloud.rgb
    mask = (rgb[:, 0] > p.r_th) & (rgb[:, 1] < p.g_th) & (rgb[:, 2] < p.b_th)
    return ColoredPointCloud(cloud.frame, cloud.xyz[mask], rgb[mask])


def cluster_indices(
    xyz: np.ndarray,
    tol: float,
    s_min: int,
    s_max: int,
    telemetry: dict | None = None,
) -> list[np.ndarray]:
    """Exact Euclidean clustering, returned as index arrays into `xyz`.

    Two points are adjacent iff their distance is <= tol; clusters are the
    connected components of that graph, size-filtered to [s_min, s_max].
    A uniform grid accelerates the neighbor search: the cell edge is
    tol/sqrt(3) (shrunk by 1e-12 against rounding) so that any two points
    sharing a cell are within tol by construction, and candidate cell
    pairs farther than two cells apart cannot hold an edge. The index only
    changes speed; the resulting partition equals the brute-force one.
    """
    n = len(xyz)
    if n == 0:
        if telemetry is not None:
            telemetry.update(n_clusters_raw=0, discarded_small=0, discarded_large=0)
        return []
    cell = tol / math.sqrt(3.0) * (1.0 - 1e-12)
    ij = np.floor(xyz / cell).astype(np.int64)
    ij -= ij.min(axis=0)
    dims = ij.max(axis=0) + 1
    keys = (ij[:, 0] * dims[1] + ij[:, 1]) * dims[2] + ij[:, 2]
    uniq, inverse = np.unique(keys, return_inverse=True)
    inverse = inverse.ravel()
    m = len(uniq)
    order = np.argsort(inverse, kind="stable")
    counts = np.bincount(inverse, minlength=m)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cell_coords = ij[order[starts]]
    sorted_xyz = xyz[order]
    cmin = np.minimum.reduceat(sorted_xyz, starts, axis=0)
    cmax = np.maximum.reduceat(sorted_xyz, starts, axis=0)

    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tol2 = tol * tol
    # half-space of cell offsets within reach of tol (<= 2 cells per axis)
    offsets = [
        (dx, dy, dz)
        for dx in range(-2, 3)
        for dy in range(-2, 3)
        for dz in range(-2, 3)
        if (dx, dy, dz) > (0, 0, 0)
    ]
    cands_u: list[np.ndarray] = []
    cands_v: list[np.ndarray] = []
    for dx, dy, dz in offsets:
        nc0 = cell_coords[:, 0] + dx
        nc1 = cell_coords[:, 1] + dy
        nc2 = cell_coords[:, 2] + dz
        ok = (
            (nc0 >= 0) & (nc0 < dims[0])
            & (nc1 >= 0) & (nc1 < dims[1])
            & (nc2 >= 0) & (nc2 < dims[2])
        )
        if not ok.any():
            continue
        nk = (nc0[ok] * dims[1] + nc1[ok]) * dims[2] + nc2[ok]
        pos = np.searchsorted(uniq, nk)
        np.clip(pos, 0, m - 1, out=pos)
        hit = uniq[pos] == nk
        if not hit.any():
            continue
        cands_u.append(np.nonzero(ok)[0][hit])
        cands_v.append(pos[hit])

    if cands_u:
        us = np.concatenate(cands_u)
        vs = np.concatenate(cands_v)
        # cells whose point extents are more than tol apart hold no edge
        gap = np.maximum(cmin[us] - cmax[vs], cmin[vs] - cmax[us])
        np.maximum(gap, 0.0, out=gap)
        near = (gap * gap).sum(axis=1) <= tol2
        us = us[near]
        vs = vs[near]

        order_l = order.tolist()
        starts_l = starts.tolist()
        counts_l = counts.tolist()
        xyz_l = xyz.tolist()
        pts_cache: dict[int, list] = {}

        def pts_of(u: int) -> list:
            p = pts_cache.get(u)
            if p is None:
                s = starts_l[u]
                p = [xyz_l[i] for i in order_l[s : s + counts_l[u]]]
                pts_cache[u] = p
            return p

        for u, v in zip(us.tolist(), vs.tolist()):
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            linked = False
            for ax, ay, az in pts_of(u):
                for bx, by, bz in pts_of(v):
                    ddx = ax - bx
                    ddy = ay - by
                    ddz = az - bz
                    if ddx * ddx + ddy * ddy + ddz * ddz <= tol2:
                        linked = True
                        break
                if linked:
                    break
            if linked:
                parent[rv] = ru

    roots = np.array([find(i) for i in range(m)])
    point_roots = roots[inverse]
    ord2 = np.argsort(point_roots, kind="stable")
    boundaries = np.nonzero(np.diff(point_roots[ord2]))[0] + 1
    components = np.split(ord2, boundaries)
    clusters = [c for c in components if s_min <= len(c) <= s_max]
    if telemetry is not None:
        telemetry.update(
            n_clusters_raw=len(components),
            discarded_small=sum(1 for c in components if len(c) < s_min),
            discarded_large=sum(1 for c in components if len(c) > s_max),
        )
    cents = [xyz[c].mean(axis=0) for c in clusters]
    by_y = sorted(range(len(clusters)), key=lambda i: (cents[i][1], cents[i][0], cents[i][2]))
    return [clusters[i] for i in by_y]


def boxes_of(clusters: list[ColoredPointCloud]) -> list[StrawberryBox]:
    """Axis-aligned bounds of each cluster, indexed in the given (y-sorted) order."""
    boxes = []
    for i, c in enumerate(clusters):
        if len(c) == 0:
            raise ValueError("cannot box an empty cluster")
        lo = c.xyz.min(axis=0)
        hi = c.xyz.max(axis=0)
        boxes.append(
            StrawberryBox(
                index=i,
                box=Aabb(Vec3.from_array(lo), Vec3.from_array(hi)),
                point_count=len(c),
            )
        )
    return boxes


def localize(
    c1: ColoredPointCloud,
    c2: ColoredPointCloud,
    t1: RigidTransform,
    t2: RigidTransform,
    p: LocalizationParams,
    telemetry: dict | None = None,
) -> list[StrawberryBox]:
    """Full pipeline: transform, merge, crop, threshold, cluster, box.

    When a `telemetry` dict is supplied it receives the point count of each
    stage (`n_merged`, `n_cropped`, `n_red`) and the cluster counts of
    `cluster_indices`. Every count is deterministic; wall-clock time is the
    caller's to measure.
    """
    if c1.frame != "cam1":
        raise FrameMismatchError(f"first cloud must be in frame 'cam1', got {c1.frame!r}")
    if c2.frame != "cam2":
        raise FrameMismatchError(f"second cloud must be in frame 'cam2', got {c2.frame!r}")
    merged = merge_clouds(transform_cloud(t1, c1, "base"), transform_cloud(t2, c2, "base"))
    cropped = crop_window(merged, p)
    red = threshold_red(cropped, p)
    groups = cluster_indices(red.xyz, p.tol, p.s_min, p.s_max, telemetry)
    boxes = boxes_of([ColoredPointCloud(red.frame, red.xyz[g], red.rgb[g]) for g in groups])
    if telemetry is not None:
        telemetry.update(n_merged=len(merged), n_cropped=len(cropped), n_red=len(red))
    return boxes
