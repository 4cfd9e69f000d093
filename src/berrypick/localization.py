"""Ripe-strawberry localization from dual camera clouds.

The pipeline keeps the red points of each camera cloud in its own frame
(the colour test does not depend on the frame), moves only those to the
arm base frame, merges them (cam1's points first), crops them to the
reachable window, clusters them by Euclidean proximity and boxes each
cluster. The points reaching the clustering are, bit for bit and in
order, those of transform, merge, crop and threshold over the whole
clouds. Crop bounds are strict inequalities; cluster adjacency is
inclusive (distance <= tol). Clusters are returned sorted by ascending
centroid y (ties broken by centroid x, then z, then lowest point index)
and each cluster keeps its points in input order.

Clustering is exact. A grid of cells no wider than tol/sqrt(3), with an
empty margin of two cells on every face, finds the candidate cell pairs
for all 62 neighbour offsets in one batched `searchsorted`. The pairs
whose extents lie within tol are then joined in rounds, each followed by
min-label propagation with pointer jumping: pairs whose farthest extent
corners lie within tol; pairs whose representative points (nearest each
cell's centroid) lie within tol; and last, in chunks of at most
PAIR_BUDGET point pairs, the points of each still-separate pair that lie
within tol of the other cell's extent. Components are size-filtered by
count before any is split out.

`localize` and `cluster_indices` fill an optional `telemetry` dict with
deterministic counts only: points per stage, and clusters found and
dropped as too small or too large. The `n_cropped` count takes in-window
points of every colour, so only a call with a telemetry dict moves the
whole clouds to the base frame. Nothing here reads the clock.
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


def _in_window(xyz: np.ndarray, p: LocalizationParams) -> np.ndarray:
    return (
        (xyz[:, 0] > p.x_minus) & (xyz[:, 0] < p.x_plus)
        & (xyz[:, 1] > p.y_minus) & (xyz[:, 1] < p.y_plus)
        & (xyz[:, 2] > p.z_minus) & (xyz[:, 2] < p.z_plus)
    )


def crop_window(cloud: ColoredPointCloud, p: LocalizationParams) -> ColoredPointCloud:
    """Keep points strictly inside the reachable window (base frame only)."""
    if cloud.frame != "base":
        raise FrameMismatchError(f"crop_window expects a base-frame cloud, got {cloud.frame!r}")
    kept = np.flatnonzero(_in_window(cloud.xyz, p))
    return ColoredPointCloud(cloud.frame, cloud.xyz[kept], cloud.rgb[kept])


def threshold_red(cloud: ColoredPointCloud, p: LocalizationParams) -> ColoredPointCloud:
    """Keep points with r > r_th, g < g_th and b < b_th."""
    rgb = cloud.rgb
    # one index array gathers both arrays faster than one mask twice
    kept = np.flatnonzero((rgb[:, 0] > p.r_th) & (rgb[:, 1] < p.g_th) & (rgb[:, 2] < p.b_th))
    return ColoredPointCloud(cloud.frame, cloud.xyz[kept], rgb[kept])


def _sq(d: np.ndarray) -> np.ndarray:
    """Squared row lengths, summed x, y, z: the order every distance test
    here uses, so a bound that is no smaller per axis compares no smaller."""
    return (d * d).sum(axis=1)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + c) over (starts, counts)."""
    ends = np.cumsum(counts)
    return np.arange(int(counts.sum())) + np.repeat(starts - (ends - counts), counts)


def _join(label: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Min-label propagation with pointer jumping (Shiloach & Vishkin 1982).

    `label` maps each cell to the lowest cell of its component so far;
    links (u[i], v[i]) merge components. Each round hooks the higher of
    two linked labels onto the lower and jumps pointers until every cell
    again holds its component's lowest cell.
    """
    while True:
        lu, lv = label[u], label[v]
        cross = lu != lv
        if not cross.any():
            return label
        u, v, lu, lv = u[cross], v[cross], lu[cross], lv[cross]
        label = label.copy()
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _representatives(sorted_xyz: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each cell's point nearest its centroid, ties to the lowest index."""
    cell_of = np.repeat(np.arange(len(starts)), counts)
    centroid = np.add.reduceat(sorted_xyz, starts, axis=0) / counts[:, None]
    d2 = _sq(sorted_xyz - centroid[cell_of])
    nearest = np.flatnonzero(d2 == np.minimum.reduceat(d2, starts)[cell_of])
    first = np.ones(len(nearest), dtype=bool)
    first[1:] = cell_of[nearest[1:]] != cell_of[nearest[:-1]]
    return nearest[first]


# point pairs one chunk of the last clustering round may hold (~120 bytes
# each in flight); a chunk always takes at least one point of a cell
# against the other cell's points
PAIR_BUDGET = 1 << 16


def _point_links(label, sorted_xyz, starts, counts, cmin, cmax, us, vs, tol2):
    """The last round: test the points of each cell pair (us[i], vs[i])
    that lie within tol of the other cell's extent, in chunks of at most
    PAIR_BUDGET pairs, propagating labels and dropping joined pairs
    between chunks."""

    def pruned(a, b):
        owner = np.repeat(np.arange(len(a)), counts[a])
        idx = _ranges(starts[a], counts[a])
        p = sorted_xyz[idx]
        gap = np.maximum(np.maximum(cmin[b][owner] - p, p - cmax[b][owner]), 0.0)
        keep = _sq(gap) <= tol2
        return idx[keep], owner[keep]

    row_pt, row_cand = pruned(us, vs)
    col_pt, col_cand = pruned(vs, us)
    n_cols = np.bincount(col_cand, minlength=len(us))
    col_start = np.cumsum(n_cols) - n_cols
    while len(row_pt):
        width = n_cols[row_cand]
        ends = np.cumsum(width)
        j = max(1, int(np.searchsorted(ends, PAIR_BUDGET, side="right")))
        cand = np.repeat(row_cand[:j], width[:j])
        a = np.repeat(row_pt[:j], width[:j])
        b = col_pt[_ranges(col_start[row_cand[:j]], width[:j])]
        row_pt, row_cand = row_pt[j:], row_cand[j:]
        hit = cand[_sq(sorted_xyz[a] - sorted_xyz[b]) <= tol2]
        if len(hit):
            label = _join(label, us[hit], vs[hit])
            crossing = label[us[row_cand]] != label[vs[row_cand]]
            row_pt, row_cand = row_pt[crossing], row_cand[crossing]
    return label


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

    Candidate cell pairs whose extents lie within tol are joined in
    rounds, each followed by label propagation (`_join`): pairs whose
    farthest extent corners lie within tol (every point pair is within
    tol); then pairs whose representatives (`_representatives`) lie within
    tol; then, for the pairs still crossing components, the points of each
    cell within tol of the other cell's extent (`_point_links`). A cell
    pair's farthest corners are no nearer, and a point's gap to a cell's
    extent no farther, than any point pair they bound, also as rounded by
    `_sq`, so the partition equals the brute-force one.
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
    starts = np.cumsum(counts) - counts
    sorted_xyz = xyz[order]
    cmin = np.minimum.reduceat(sorted_xyz, starts, axis=0)
    cmax = np.maximum.reduceat(sorted_xyz, starts, axis=0)

    # the half-space of cell offsets within reach of tol
    offsets = np.array([o for o in np.ndindex(5, 5, 5) if o > (2, 2, 2)]) - 2
    nk = uniq[:, None] + offsets @ strides
    pos = np.minimum(np.searchsorted(uniq, nk), m - 1)
    us, o = np.nonzero(uniq[pos] == nk)
    vs = pos[us, o]
    tol2 = tol * tol
    # cells whose point extents are more than tol apart hold no edge
    near = _sq(np.maximum(np.maximum(cmin[us] - cmax[vs], cmin[vs] - cmax[us]), 0.0)) <= tol2
    us, vs = us[near], vs[near]

    sure = _sq(np.maximum(cmax[us] - cmin[vs], cmax[vs] - cmin[us])) <= tol2
    label = _join(np.arange(m), us[sure], vs[sure])
    us, vs = us[~sure], vs[~sure]
    cross = label[us] != label[vs]
    us, vs = us[cross], vs[cross]
    if len(us):
        rep = _representatives(sorted_xyz, starts, counts)
        linked = _sq(sorted_xyz[rep[us]] - sorted_xyz[rep[vs]]) <= tol2
        label = _join(label, us[linked], vs[linked])
        cross = label[us] != label[vs]
        us, vs = us[cross], vs[cross]
    if len(us):
        label = _point_links(label, sorted_xyz, starts, counts, cmin, cmax, us, vs, tol2)

    point_label = label[inverse]
    sizes = np.bincount(point_label, minlength=m)
    comp_sizes = sizes[label == np.arange(m)]
    kept = np.flatnonzero(((sizes >= s_min) & (sizes <= s_max))[point_label])
    kept = kept[np.argsort(point_label[kept], kind="stable")]
    clusters = np.split(kept, np.flatnonzero(np.diff(point_label[kept])) + 1) if len(kept) else []
    if telemetry is not None:
        telemetry.update(
            n_clusters_raw=len(comp_sizes),
            discarded_small=int((comp_sizes < s_min).sum()),
            discarded_large=int((comp_sizes > s_max).sum()),
        )
    cents = [xyz[c].mean(axis=0) for c in clusters]
    by_y = sorted(range(len(clusters)), key=lambda i: (cents[i][1], cents[i][0], cents[i][2], clusters[i][0]))
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


def _red_in_base(cloud: ColoredPointCloud, t: RigidTransform, p: LocalizationParams) -> ColoredPointCloud:
    """The red points of a camera cloud, moved to the base frame: bit for
    bit the rows that moving the whole cloud gives them. numpy multiplies a
    lone row by another BLAS routine than it does two or more rows, and the
    two can round apart, so a lone survivor goes through as a pair."""
    red = threshold_red(cloud, p)
    if len(red) == 1 < len(cloud):
        pair = transform_cloud(t, ColoredPointCloud(red.frame, red.xyz[[0, 0]], red.rgb[[0, 0]]), "base")
        return ColoredPointCloud("base", pair.xyz[:1], pair.rgb[:1])
    return transform_cloud(t, red, "base")


def localize(
    c1: ColoredPointCloud,
    c2: ColoredPointCloud,
    t1: RigidTransform,
    t2: RigidTransform,
    p: LocalizationParams,
    telemetry: dict | None = None,
) -> list[StrawberryBox]:
    """Full pipeline: threshold, transform, merge, crop, cluster, box.

    The points that reach `cluster_indices` are those of merge, crop and
    threshold over both whole clouds, in the same order and with the same
    coordinates. When a `telemetry` dict is supplied it receives the point
    counts of that staged order (`n_merged`, `n_cropped`, `n_red`) and the
    cluster counts of `cluster_indices`. `n_cropped` counts in-window
    points of every colour, so only a telemetry call moves whole clouds.
    Every count is deterministic; wall-clock time is the caller's to
    measure.
    """
    if c1.frame != "cam1":
        raise FrameMismatchError(f"first cloud must be in frame 'cam1', got {c1.frame!r}")
    if c2.frame != "cam2":
        raise FrameMismatchError(f"second cloud must be in frame 'cam2', got {c2.frame!r}")
    red = crop_window(merge_clouds(_red_in_base(c1, t1, p), _red_in_base(c2, t2, p)), p)
    groups = cluster_indices(red.xyz, p.tol, p.s_min, p.s_max, telemetry)
    boxes = boxes_of([ColoredPointCloud(red.frame, red.xyz[g], red.rgb[g]) for g in groups])
    if telemetry is not None:
        n_cropped = sum(int(_in_window(t.apply_to(c.xyz), p).sum()) for c, t in ((c1, t1), (c2, t2)))
        telemetry.update(n_merged=len(c1) + len(c2), n_cropped=n_cropped, n_red=len(red))
    return boxes
