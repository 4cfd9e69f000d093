"""Ripe-strawberry localization from dual camera clouds.

The pipeline runs in a fixed order: transform both camera clouds to the
arm base frame, merge them, crop to the reachable window, keep red points,
cluster by Euclidean proximity and box each cluster. Crop bounds are
strict inequalities; cluster adjacency is inclusive (distance <= tol).
Clusters are returned sorted by ascending centroid y (ties broken by
centroid x, then z) and each cluster keeps its points in input order.

Clustering is exact. A grid of cells no wider than tol/sqrt(3), with an
empty margin of two cells on every face, finds the candidate cell pairs
for all 62 neighbour offsets in one batched `searchsorted`; a cell pair
joins when any pair of its points is within tol.

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


def _cell_edge(tol: float) -> float:
    """The clustering grid's cell edge: two points in one cell are within tol."""
    return tol / math.sqrt(3.0) * (1.0 - 1e-12)


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
        # cluster_indices keys each cell of its grid, which spans the crop
        # window plus two cells a side, by one int64
        spans = (self.x_plus - self.x_minus, self.y_plus - self.y_minus, self.z_plus - self.z_minus)
        cells = math.prod(s / _cell_edge(self.tol) + 6 for s in spans)
        if not cells < 2.0**62:
            raise ValueError(f"tol must be large enough for the crop window: {self.tol} m makes {cells:.3g} grid cells")
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
    Grid cells have edge `_cell_edge(tol)`, tol/sqrt(3) shrunk by 1e-12
    against rounding, so points sharing a cell are adjacent and cells more
    than two apart on an axis hold no edge. An empty margin of two cells on
    every face keeps each cell's 62 half-space neighbour keys, `key +
    offset . strides`, on the grid, so one `searchsorted` finds them all.
    Every candidate cell pair is then point-tested: the grid only changes
    speed, and the partition equals the brute-force one.
    """
    n = len(xyz)
    if n == 0:
        if telemetry is not None:
            telemetry.update(n_clusters_raw=0, discarded_small=0, discarded_large=0)
        return []
    ij = np.floor(xyz / _cell_edge(tol)).astype(np.int64)
    ij -= ij.min(axis=0) - 2
    dims = ij.max(axis=0) + 3
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    uniq, inverse, counts = np.unique(ij @ strides, return_inverse=True, return_counts=True)
    m = len(uniq)
    order = np.argsort(inverse, kind="stable")
    ends = np.cumsum(counts)
    starts = ends - counts
    sorted_xyz = xyz[order]
    cmin = np.minimum.reduceat(sorted_xyz, starts, axis=0)
    cmax = np.maximum.reduceat(sorted_xyz, starts, axis=0)

    # the half-space of cell offsets within reach of tol, in lexicographic
    # order; candidates go offset by offset, ascending cell within each
    offsets = np.array([o for o in np.ndindex(5, 5, 5) if o > (2, 2, 2)]) - 2
    nk = uniq[:, None] + offsets @ strides
    pos = np.minimum(np.searchsorted(uniq, nk), m - 1)
    hit = uniq[pos] == nk
    o, us = np.nonzero(hit.T)
    vs = pos[us, o]
    tol2 = tol * tol
    # cells whose point extents are more than tol apart hold no edge
    gap = np.maximum(np.maximum(cmin[us] - cmax[vs], cmin[vs] - cmax[us]), 0.0)
    near = (gap * gap).sum(axis=1) <= tol2

    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pts = sorted_xyz.tolist()
    starts_l, ends_l = starts.tolist(), ends.tolist()
    for u, v in zip(us[near].tolist(), vs[near].tolist()):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        pts_v = pts[starts_l[v] : ends_l[v]]
        for ax, ay, az in pts[starts_l[u] : ends_l[u]]:
            for bx, by, bz in pts_v:
                dx = ax - bx
                dy = ay - by
                dz = az - bz
                if dx * dx + dy * dy + dz * dz <= tol2:
                    break
            else:
                continue
            parent[rv] = ru
            break

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
