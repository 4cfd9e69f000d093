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

Clustering is exact. Points are keyed by their cell in a grid of cells
no wider than tol/sqrt(3), with an empty margin of two cells on every
face, and sorted by key once. A cell's 62 neighbour offsets on one side
are fixed key offsets. When the grid has at most 8 cells a point (plus
2^16), a table over the whole grid maps each key to its occupied cell or
-1, and one gather reads every cell's 62 neighbours (Bentley, Stanat &
Williams 1977). Larger grids search the sorted keys: the offsets are 12
rows of five cells along z and two cells of the cell's own row, z has
stride 1, so the occupied cells of each row are one run of the sorted
keys, found by two `searchsorted` queries. Both give the same candidate
cell pairs, in another order. The cell pairs whose extents lie within
tol are then joined in two rounds, each followed by
min-label propagation with pointer jumping: pairs whose first points in
key order lie within tol; then, in chunks of at most PAIR_BUDGET point
pairs, the points of each still-separate pair that lie within tol of
the other cell's extent. Components are size-filtered by count before
any is split out. The key sort is not stable: the order of a cell's
points decides only which of them is its first, so which round links a
cell pair, never whether the pair is linked; the order of the pairs
decides only how the last round's chunks fall. Both rounds are exact, so
the partition, and the output, which lists points in input order, do
not depend on either order.

`localize` and `cluster_indices` fill an optional `telemetry` dict with
deterministic counts only: the points merged and clustered, the occupied
grid cells and near cell pairs, and the clusters found and dropped as
too small or too large. Nothing here reads the clock.

Rows are gathered with `take` and filtered with `compress` along axis 0
(or `flatnonzero` and then `take`, when one mask filters several arrays),
never by fancy indexing. The values are the same, but on numpy 2.4.6
`q.take(idx, axis=0)` gathers 50k rows of an (n, 3) array in 0.38 ms
where `q[idx]` takes 1.37 ms, and `a.compress(m)` filters 65k values in
0.12 ms where `a[m]` takes 0.58 ms. Every distance test squares its
lengths with `geometry.sq_lengths`, summed x, y, z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatchError
from .geometry import Aabb, ColoredPointCloud, RigidTransform, Vec3, merge_clouds, sq_lengths, transform_cloud


# cluster_indices keys each cell of its grid by one int64, so a grid has
# fewer cells than this
MAX_GRID_CELLS = 2.0**62


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
        # cluster_indices' grid spans the crop window plus two cells a side
        spans = (self.x_plus - self.x_minus, self.y_plus - self.y_minus, self.z_plus - self.z_minus)
        cells = math.prod(s / _cell_edge(self.tol) + 6 for s in spans)
        if not cells < MAX_GRID_CELLS:
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
    kept = np.flatnonzero(
        (xyz[:, 0] > p.x_minus) & (xyz[:, 0] < p.x_plus)
        & (xyz[:, 1] > p.y_minus) & (xyz[:, 1] < p.y_plus)
        & (xyz[:, 2] > p.z_minus) & (xyz[:, 2] < p.z_plus)
    )
    return ColoredPointCloud(cloud.frame, xyz.take(kept, axis=0), cloud.rgb.take(kept, axis=0))


def threshold_red(cloud: ColoredPointCloud, p: LocalizationParams) -> ColoredPointCloud:
    """Keep points with r > r_th, g < g_th and b < b_th."""
    # one contiguous row per channel: the three compares take 0.17 ms on
    # 50k points where the strided columns take 0.30 ms
    r, g, b = np.ascontiguousarray(cloud.rgb.T)
    kept = np.flatnonzero((r > p.r_th) & (g < p.g_th) & (b < p.b_th))
    return ColoredPointCloud(cloud.frame, cloud.xyz.take(kept, axis=0), cloud.rgb.take(kept, axis=0))


def _table_fits(cells: int, n: int) -> bool:
    """Whether `cluster_indices` reads cell neighbours from a table over its
    whole grid of `cells` cells for `n` points: at most 8 cells a point
    plus 2^16, so the int32 table takes at most 0.25 MB plus 32 bytes a
    point, and at most 2^31 cells, so every key is an int32. Larger grids
    (a tiny tol, or points far apart) search the sorted cell keys."""
    return cells <= min(8 * n + 2**16, 2**31)


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
        lu, lv = label.take(u), label.take(v)
        cross = lu != lv
        if not cross.any():
            return label
        u, v, lu, lv = u.compress(cross), v.compress(cross), lu.compress(cross), lv.compress(cross)
        label = label.copy()
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label.take(label)
            if np.array_equal(up, label):
                break
            label = up


# the 62 cell offsets within reach of tol on one side of a cell, as rows
# (dx, dy) of offsets dz = -2..2, key order: the cell's own row first
# (only dz = 1, 2 lie on that side), then 12 full rows
_ROWS = np.array([(0, 0), (0, 1), (0, 2)] + [(dx, dy) for dx in (1, 2) for dy in range(-2, 3)])

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
        n = counts.take(a)
        owner = np.repeat(np.arange(len(a)), n)
        idx = _ranges(starts.take(a), n)
        p = sorted_xyz.take(idx, axis=0)
        other = b.take(owner)
        gap = np.maximum(np.maximum(cmin.take(other, axis=0) - p, p - cmax.take(other, axis=0)), 0.0)
        keep = sq_lengths(gap) <= tol2
        return idx.compress(keep), owner.compress(keep)

    row_pt, row_cand = pruned(us, vs)
    col_pt, col_cand = pruned(vs, us)
    n_cols = np.bincount(col_cand, minlength=len(us))
    col_start = np.cumsum(n_cols) - n_cols
    while len(row_pt):
        width = n_cols.take(row_cand)
        ends = np.cumsum(width)
        j = max(1, int(np.searchsorted(ends, PAIR_BUDGET, side="right")))
        cand = np.repeat(row_cand[:j], width[:j])
        a = np.repeat(row_pt[:j], width[:j])
        b = col_pt.take(_ranges(col_start.take(row_cand[:j]), width[:j]))
        row_pt, row_cand = row_pt[j:], row_cand[j:]
        d = sorted_xyz.take(a, axis=0) - sorted_xyz.take(b, axis=0)
        hit = cand.compress(sq_lengths(d) <= tol2)
        if len(hit):
            label = _join(label, us.take(hit), vs.take(hit))
            crossing = label.take(us.take(row_cand)) != label.take(vs.take(row_cand))
            row_pt, row_cand = row_pt.compress(crossing), row_cand.compress(crossing)
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
    than two apart on an axis hold no edge. Cells are keyed `ij . strides`
    and the points sorted by key once, unstably. The 62 neighbour offsets
    of one half-space are the cells dz = 1, 2 above a cell in its own row
    and 12 rows (dx, dy) of dz = -2..2 (`_ROWS`), each a fixed key offset.
    An empty margin of two cells on every face keeps every neighbour key
    inside the grid and inside its row. When `_table_fits` the grid (at
    most 8 cells a point plus 2^16, and below 2^31 for int32 entries), a
    table over all its cells maps each key to its occupied cell or -1, and
    one `take` of every occupied key plus the 62 offsets reads them all:
    the hits are the candidate pairs. Otherwise, z having stride 1, the
    occupied neighbours in each row are one run of the sorted unique keys,
    k + b - 2 .. k + b + 2 for the row's key offset b, found by two
    `searchsorted` queries: 25 per cell. Both paths find the same pairs,
    in another order. Raises ValueError when the points span
    MAX_GRID_CELLS cells or more, or lie that many cells from the origin:
    their int64 keys or cell indices would wrap.

    Candidate cell pairs whose extents lie within tol are joined in two
    rounds, each followed by label propagation (`_join`): the probe, which
    links a pair when the two cells' first points in key order lie within
    tol; then, for the pairs still crossing components, the points of each
    cell within tol of the other cell's extent (`_point_links`). The probe
    tests a real point pair, and the gap between two extents, or between a
    point and an extent, is no farther than any point pair it bounds, also
    as rounded by `sq_lengths`, so the partition equals the brute-force
    one. The order of a cell's points, which the unstable sort leaves
    open, decides only which point is the cell's first, so only which
    round links a pair; the order of the candidate pairs decides only how
    `_point_links` splits its chunks. The partition, and with it the
    output, stay the same.

    A `telemetry` dict receives `n_cells`, the occupied cells; `n_cell_pairs`,
    the near cell pairs the probe tests; `n_clusters_raw`, the components;
    and `discarded_small` and `discarded_large`, those outside the size band.
    """
    n = len(xyz)
    if n == 0:
        if telemetry is not None:
            telemetry.update(n_cells=0, n_cell_pairs=0, n_clusters_raw=0, discarded_small=0, discarded_large=0)
        return []
    # the cell coordinates as three contiguous rows, so that the bounds and
    # keys below run over contiguous memory: 0.09 ms at 9k points where the
    # columns of `np.floor(xyz / edge)` take 0.26 ms
    f = np.divide(xyz.T, _cell_edge(tol), order="C")
    np.floor(f, out=f)
    lo, hi = [float(c.min()) for c in f], [float(c.max()) for c in f]
    cells = math.prod(h - l + 5 for l, h in zip(lo, hi))
    if not cells < MAX_GRID_CELLS:
        raise ValueError(f"the points span {cells:.3g} grid cells at tol {tol} m; int64 cell keys need fewer than 2^62")
    far = max(map(abs, lo + hi))
    if not far < MAX_GRID_CELLS:
        raise ValueError(f"the points lie {far:.3g} grid cells from the origin at tol {tol} m; int64 cell indices need fewer than 2^62")
    lo = np.array(lo, dtype=np.int64)
    dims = np.array(hi, dtype=np.int64) - lo + 5
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    # (floor - lo + 2) . strides, exact: int64 arithmetic wraps modulo
    # 2^64 and every key is below 2^62. Three multiply-adds of columns:
    # an int64 `@` is no BLAS call, and takes twice as long
    keys = f[0].astype(np.int64) * strides[0]
    keys += f[1].astype(np.int64) * strides[1]
    keys += f[2].astype(np.int64)
    keys -= (lo - 2) @ strides
    order = np.argsort(keys)
    sk = keys.take(order)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(sk[1:], sk[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    uniq = sk.take(starts)
    m = len(uniq)
    counts = np.diff(starts, append=n)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(head) - 1
    sorted_xyz = xyz.take(order, axis=0)
    cmin = np.minimum.reduceat(sorted_xyz, starts, axis=0)
    cmax = np.maximum.reduceat(sorted_xyz, starts, axis=0)

    b = _ROWS @ strides[:2]
    cells = int(dims.prod())
    if _table_fits(cells, n):
        # the cell keyed k + o, for each of the 62 half-space offsets o,
        # read from a table over the whole grid: one gather, hits >= 0
        table = np.full(cells, -1, dtype=np.int32)
        table[uniq] = np.arange(m, dtype=np.int32)
        offsets = np.concatenate([[1, 2], (b[1:, None] + np.arange(-2, 3)).ravel()]).astype(np.int32)
        nb = table.take(uniq.astype(np.int32) + offsets[:, None]).ravel()
        hits = np.flatnonzero(nb >= 0)
        us, vs = hits % m, nb.take(hits)
    else:
        # the run of `uniq` in k + 1 .. k + 2, then for each other row of
        # _ROWS, key offset b, the run in k + b - 2 .. k + b + 2, as
        # [first, first + width) index ranges
        ends = np.searchsorted(uniq, uniq + np.concatenate([b[1:] - 2, b + 3])[:, None])
        first = np.vstack([np.arange(1, m + 1), ends[: len(b) - 1]])
        width = ends[len(b) - 1 :] - first
        us = np.repeat(np.tile(np.arange(m), len(_ROWS)), width.ravel())
        vs = _ranges(first.ravel(), width.ravel())
    tol2 = tol * tol
    # cells whose point extents are more than tol apart hold no edge
    gap = np.maximum(cmin.take(us, axis=0) - cmax.take(vs, axis=0), cmin.take(vs, axis=0) - cmax.take(us, axis=0))
    near = np.flatnonzero(sq_lengths(np.maximum(gap, 0.0)) <= tol2)
    us, vs = us.take(near), vs.take(near)
    # the probe: each cell's first point in key order against the other's
    d = sorted_xyz.take(starts.take(us), axis=0) - sorted_xyz.take(starts.take(vs), axis=0)
    linked = sq_lengths(d) <= tol2
    label = _join(np.arange(m), us.compress(linked), vs.compress(linked))
    cross = label.take(us) != label.take(vs)
    us, vs = us.compress(cross), vs.compress(cross)
    if len(us):
        label = _point_links(label, sorted_xyz, starts, counts, cmin, cmax, us, vs, tol2)

    point_label = label.take(inverse)
    sizes = np.bincount(point_label, minlength=m)
    comp_sizes = sizes.compress(label == np.arange(m))
    kept = np.flatnonzero(((sizes >= s_min) & (sizes <= s_max)).take(point_label))
    if telemetry is not None:
        telemetry.update(
            n_cells=m,
            n_cell_pairs=len(near),
            n_clusters_raw=len(comp_sizes),
            discarded_small=int((comp_sizes < s_min).sum()),
            discarded_large=int((comp_sizes > s_max).sum()),
        )
    if not len(kept):
        return []
    # grouped by label, each group in input order: labels are below n
    kept_label, kept = np.divmod(np.sort(point_label.take(kept) * n + kept), n)
    firsts = np.flatnonzero(np.diff(kept_label, prepend=-1))
    roots = kept_label.take(firsts)
    # each centroid adds its points to 0.0 in input order and divides by
    # their count, bit for bit `.mean(axis=0)`; `np.add.reduceat` would
    # add them in another order
    cx, cy, cz = (np.bincount(point_label, c, m).take(roots) / sizes.take(roots) for c in xyz.T)
    by_y = np.lexsort((kept.take(firsts), cz, cx, cy))
    clusters = np.split(kept, firsts[1:])
    return [clusters[i] for i in by_y.tolist()]


def boxes_of(xyz: np.ndarray, clusters: list[np.ndarray]) -> list[StrawberryBox]:
    """Axis-aligned bounds of the rows of `xyz` that each cluster (an index
    array) names, indexed in the given (y-sorted) order. One gather and one
    `reduceat` per bound give, bit for bit and signed zeros included, each
    cluster's own `min(axis=0)` and `max(axis=0)`."""
    sizes = np.array([len(c) for c in clusters], dtype=np.intp)
    if not sizes.all():
        raise ValueError("cannot box an empty cluster")
    if not len(sizes):
        return []
    pts = xyz.take(np.concatenate(clusters), axis=0)
    firsts = np.cumsum(sizes) - sizes
    lo = np.minimum.reduceat(pts, firsts, axis=0).tolist()
    hi = np.maximum.reduceat(pts, firsts, axis=0).tolist()
    return [
        StrawberryBox(index=i, box=Aabb(Vec3(*a), Vec3(*b)), point_count=k)
        for i, (a, b, k) in enumerate(zip(lo, hi, sizes.tolist()))
    ]


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
    coordinates. When a `telemetry` dict is supplied it receives
    `n_merged`, the points of both clouds, `n_red`, the in-window red
    points that are clustered, and the counts of `cluster_indices`. Every
    count is deterministic; wall-clock time is the caller's to measure.
    """
    if c1.frame != "cam1":
        raise FrameMismatchError(f"first cloud must be in frame 'cam1', got {c1.frame!r}")
    if c2.frame != "cam2":
        raise FrameMismatchError(f"second cloud must be in frame 'cam2', got {c2.frame!r}")
    red = crop_window(merge_clouds(_red_in_base(c1, t1, p), _red_in_base(c2, t2, p)), p)
    groups = cluster_indices(red.xyz, p.tol, p.s_min, p.s_max, telemetry)
    boxes = boxes_of(red.xyz, groups)
    if telemetry is not None:
        telemetry.update(n_merged=len(c1) + len(c2), n_red=len(red))
    return boxes
