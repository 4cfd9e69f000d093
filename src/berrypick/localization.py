"""Ripe-strawberry localization from dual camera clouds.

The pipeline picks the red rows of each camera cloud in its own frame
(the colour test does not depend on the frame), moves only their
positions to the arm base frame, into one array with cam1's points
first, crops them to the reachable window, clusters them by Euclidean
proximity and boxes each cluster. The points reaching the clustering
are, bit for bit and in order, those of transform, merge, crop and
threshold over the whole clouds. Crop bounds are strict inequalities;
cluster adjacency is inclusive (distance <= tol). Clusters are returned
sorted by ascending centroid y (ties broken by centroid x, then z, then
lowest point index) and each cluster keeps its points in input order.

Clustering is exact. Points are keyed by their cell in a grid of cells
no wider than tol/sqrt(3), with an empty margin of two cells on every
face, and sorted by key once. A cell's 62 neighbour offsets on one side
are fixed key offsets (Bentley, Stanat & Williams 1977). When the grid
has at most 8 cells a point (plus 2^16), tables over the whole grid map
each key to its occupied cell, or to that cell's label, or to -1, and
one gather reads them. Larger grids search the sorted keys: the offsets
are 12 rows of five cells along z and two cells of the cell's own row,
z has stride 1, so the occupied cells of each row are one run of the
sorted keys, found by two `searchsorted` queries. Both give the same
candidate cell pairs. They are linked in three rounds, each followed by
min-label propagation with pointer jumping. The face round joins each
cell with its +z, +y and +x face neighbours where their first points in
key order lie within tol. The probe round does the same for every
candidate pair whose cells do not already share a label; pairs already
inside one component are skipped, as run-based labelling skips settled
runs (He, Chao & Suzuki 2008). The point round takes the pairs still
crossing components whose extents lie within tol, and tests, in chunks
of at most PAIR_BUDGET point pairs, the points of each cell that lie
within tol of the other cell's extent. Neither the skip nor the probes
made before any extent test can change the partition: a skipped pair
already lies inside one component, and a probe that links a pair is a
real edge, and its extent gap is no farther than that point pair.
Components are size-filtered by count before any is split out. The key
sort is not stable: the order of a cell's points decides only which of
them is its first, so which round links a cell pair, never whether the
pair is linked; the order of the pairs decides only how the last
round's chunks fall. Every round is exact, so the partition, and the
output, which lists points in input order, do not depend on either
order.

`localize` and `cluster_indices` fill an optional `telemetry` dict with
deterministic counts only: the points merged and clustered, the occupied
grid cells and candidate cell pairs (occupied cells at most two apart on
every axis), and the clusters found and dropped as too small or too
large. Nothing here reads the clock.

Rows are gathered with `take` and filtered with `compress` along axis 0
(or `flatnonzero` and then `take`, when one mask filters several arrays),
never by fancy indexing. The values are the same, but on numpy 2.4.6
`q.take(idx, axis=0)` gathers 50k rows of an (n, 3) array in 0.38 ms
where `q[idx]` takes 1.37 ms, and `a.compress(m)` filters 65k values in
0.12 ms where `a[m]` takes 0.58 ms. Grid tables are gathered with int64
indices: reading 79k entries of an int32 table takes 0.12 ms with them
and 0.35 ms with int32 indices. Every distance test squares its lengths
with `geometry.sq_lengths`, summed x, y, z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatchError
from .geometry import Aabb, ColoredPointCloud, RigidTransform, Vec3, sq_lengths

# `localize` calls neither: perfbench's tracer still wraps both names in
# this module, and reports a name it cannot find as a missing target
from .geometry import merge_clouds, transform_cloud  # noqa: F401


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


def _in_window(xyz: np.ndarray, p: LocalizationParams) -> np.ndarray:
    """Whether each row of `xyz` lies strictly inside the reachable window."""
    return (
        (xyz[:, 0] > p.x_minus) & (xyz[:, 0] < p.x_plus)
        & (xyz[:, 1] > p.y_minus) & (xyz[:, 1] < p.y_plus)
        & (xyz[:, 2] > p.z_minus) & (xyz[:, 2] < p.z_plus)
    )


def _red_rows(rgb: np.ndarray, p: LocalizationParams) -> np.ndarray:
    """The indices of the rows of `rgb` with r > r_th, g < g_th and b < b_th."""
    # one contiguous row per channel: the three compares take 0.17 ms on
    # 50k points where the strided columns take 0.30 ms
    r, g, b = np.ascontiguousarray(rgb.T)
    return np.flatnonzero((r > p.r_th) & (g < p.g_th) & (b < p.b_th))


def crop_window(cloud: ColoredPointCloud, p: LocalizationParams) -> ColoredPointCloud:
    """Keep points strictly inside the reachable window (base frame only)."""
    if cloud.frame != "base":
        raise FrameMismatchError(f"crop_window expects a base-frame cloud, got {cloud.frame!r}")
    kept = np.flatnonzero(_in_window(cloud.xyz, p))
    return ColoredPointCloud(cloud.frame, cloud.xyz.take(kept, axis=0), cloud.rgb.take(kept, axis=0))


def threshold_red(cloud: ColoredPointCloud, p: LocalizationParams) -> ColoredPointCloud:
    """Keep points with r > r_th, g < g_th and b < b_th."""
    kept = _red_rows(cloud.rgb, p)
    return ColoredPointCloud(cloud.frame, cloud.xyz.take(kept, axis=0), cloud.rgb.take(kept, axis=0))


def _table_fits(cells: int, n: int) -> bool:
    """Whether `cluster_indices` reads cell neighbours from tables over its
    whole grid of `cells` cells for `n` points: at most 8 cells a point
    plus 2^16, so its two int32 tables take at most 0.5 MB plus 64 bytes a
    point, and at most 2^31 cells, so every occupied cell's index fits an
    int32 entry. Larger grids (a tiny tol, or points far apart) search the
    sorted cell keys."""
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


def _probe(label, lead, us, vs, tol2):
    """Join the cell pairs (us[i], vs[i]) whose lead points, each cell's
    first in key order, lie within tol."""
    linked = sq_lengths(lead.take(us, axis=0) - lead.take(vs, axis=0)) <= tol2
    return _join(label, us.compress(linked), vs.compress(linked))


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
    most 8 cells a point plus 2^16, and at most 2^31 cells for int32
    entries), a table over all its cells maps each key to its occupied
    cell or -1, and a second to that cell's label or -1; a `take` of every
    occupied key plus an offset reads the neighbours, and the hits are the
    candidate pairs. Otherwise, z having stride 1, the occupied neighbours
    in each row are one run of the sorted unique keys, k + b - 2 .. k + b
    + 2 for the row's key offset b, found by two `searchsorted` queries:
    25 per cell. Both paths find the same pairs. Raises ValueError when
    the points span MAX_GRID_CELLS cells or more, or lie that many cells
    from the origin: their int64 keys or cell indices would wrap.

    Candidate cell pairs are linked in three rounds, each followed by
    label propagation (`_join`). The face round probes each cell and its
    +z, +y and +x face neighbours: it links a pair when the two cells'
    first points in key order lie within tol. The probe round probes
    every candidate pair whose cells do not yet share a label. The point
    round takes the pairs still crossing components whose extents lie
    within tol, and tests the points of each cell within tol of the other
    cell's extent (`_point_links`). A probe tests a real point pair, and
    the gap between two extents, or between a point and an extent, is no
    farther than any point pair it bounds, also as rounded by
    `sq_lengths`, so the partition equals the brute-force one. Skipping
    and probing pairs before any extent test cannot change it either: a
    skipped pair already lies inside one component, and a probe that
    links a pair is a real edge, and its extent gap is no farther than
    that point pair. The order of a cell's points, which the unstable
    sort leaves open, decides only which point is the cell's first, so
    only which round links a pair; the order of the candidate pairs
    decides only how `_point_links` splits its chunks. The partition, and
    with it the output, stay the same.

    A `telemetry` dict receives `n_cells`, the occupied cells;
    `n_cell_pairs`, the candidate pairs, occupied cells at most two apart
    on every axis, which depend on the grid alone; `n_clusters_raw`, the
    components; and `discarded_small` and `discarded_large`, those outside
    the size band.
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

    b = _ROWS @ strides[:2]
    # the key offsets of the +z, +y and +x face neighbours
    face = np.array([1, strides[1], strides[0]])
    cells = int(dims.prod())
    if _table_fits(cells, n):
        # one table over the whole grid maps each key to its occupied cell
        # or -1, and one gather reads the face neighbours, hits >= 0. A
        # second maps each key to its cell's label or -1, and one gather
        # reads the labels of every cell's 62 half-space neighbours k + o:
        # only the pairs that still cross components are built from them
        table = np.full(cells, -1, dtype=np.int32)
        table[uniq] = np.arange(m, dtype=np.int32)
        fnb = table.take(uniq + face[:, None]).ravel()
        hits = np.flatnonzero(fnb >= 0)
        fu, fv = hits % m, fnb.take(hits)
        offsets = np.concatenate([[1, 2], (b[1:, None] + np.arange(-2, 3)).ravel()])

        def crossing(label):
            nkeys = uniq + offsets[:, None]
            labels = np.full(cells, -1, dtype=np.int32)
            labels[uniq] = label
            nbl = labels.take(nkeys)
            occupied = nbl >= 0
            hits = np.flatnonzero((nbl != label.astype(np.int32)) & occupied)
            return hits % m, table.take(nkeys.ravel().take(hits)), int(np.count_nonzero(occupied))
    else:
        # a face neighbour is the sorted key found at k + o; the neighbours
        # in k + 1 .. k + 2, then for each other row of _ROWS, key offset
        # b, in k + b - 2 .. k + b + 2, are one run of `uniq` each, as
        # [first, first + width) index ranges
        want = uniq + face[:, None]
        at = np.searchsorted(uniq, want)
        hits = np.flatnonzero(uniq.take(at, mode="clip") == want)
        fu, fv = hits % m, at.ravel().take(hits)
        ends = np.searchsorted(uniq, uniq + np.concatenate([b[1:] - 2, b + 3])[:, None])
        first = np.vstack([np.arange(1, m + 1), ends[: len(b) - 1]])
        width = ends[len(b) - 1 :] - first
        all_us = np.repeat(np.tile(np.arange(m), len(_ROWS)), width.ravel())
        all_vs = _ranges(first.ravel(), width.ravel())

        def crossing(label):
            cross = label.take(all_us) != label.take(all_vs)
            return all_us.compress(cross), all_vs.compress(cross), len(all_us)
    tol2 = tol * tol
    # each cell's first point in key order, which the face and probe
    # rounds test against the other cell's
    lead = sorted_xyz.take(starts, axis=0)
    label = _probe(np.arange(m), lead, fu, fv, tol2)
    us, vs, n_cell_pairs = crossing(label)
    label = _probe(label, lead, us, vs, tol2)
    cross = label.take(us) != label.take(vs)
    us, vs = us.compress(cross), vs.compress(cross)
    if len(us):
        # cells whose point extents are more than tol apart hold no edge
        cmin = np.minimum.reduceat(sorted_xyz, starts, axis=0)
        cmax = np.maximum.reduceat(sorted_xyz, starts, axis=0)
        gap = np.maximum(cmin.take(us, axis=0) - cmax.take(vs, axis=0), cmin.take(vs, axis=0) - cmax.take(us, axis=0))
        near = np.flatnonzero(sq_lengths(np.maximum(gap, 0.0)) <= tol2)
        if len(near):
            label = _point_links(label, sorted_xyz, starts, counts, cmin, cmax, us.take(near), vs.take(near), tol2)

    point_label = label.take(inverse)
    sizes = np.bincount(point_label, minlength=m)
    comp_sizes = sizes.compress(label == np.arange(m))
    kept = np.flatnonzero(((sizes >= s_min) & (sizes <= s_max)).take(point_label))
    if telemetry is not None:
        telemetry.update(
            n_cells=m,
            n_cell_pairs=n_cell_pairs,
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


def _to_base(cloud: ColoredPointCloud, t: RigidTransform, rows: np.ndarray, out: np.ndarray) -> None:
    """Write the rows `rows` of a camera cloud, moved to the base frame,
    into `out`: bit for bit the rows that moving the whole cloud gives
    them. numpy multiplies a lone row by another BLAS routine than it does
    two or more rows, and the two can round apart, so a lone row of a
    larger cloud moves as a pair."""
    t.check_maps(cloud.frame, "base")
    if len(rows) == 1 < len(cloud):
        out[:] = t.apply_to(cloud.xyz.take(np.repeat(rows, 2), axis=0))[:1]
    else:
        t.apply_to(cloud.xyz.take(rows, axis=0), out)


def localize(
    c1: ColoredPointCloud,
    c2: ColoredPointCloud,
    t1: RigidTransform,
    t2: RigidTransform,
    p: LocalizationParams,
    telemetry: dict | None = None,
) -> list[StrawberryBox]:
    """Full pipeline: threshold, transform, merge, crop, cluster, box.

    Only positions are moved: the red rows of each camera cloud are moved
    to the base frame into one array, cam1's first, and cropped to the
    window. These are the points, in the same order and with the same
    coordinates, that merge, crop and threshold give over both whole
    clouds. Their clusters are the brute-force ones: `cluster_indices`
    skips and probes cell pairs before any extent test, and that cannot
    change the partition, since a skipped pair already lies inside one
    component, and a probe that links a pair is a real edge, and its
    extent gap is no farther than that point pair. When a `telemetry`
    dict is supplied it receives `n_merged`, the points of both clouds,
    `n_red`, the in-window red points that are clustered, and the counts
    of `cluster_indices`. Every count is deterministic; wall-clock time
    is the caller's to measure.
    """
    if c1.frame != "cam1":
        raise FrameMismatchError(f"first cloud must be in frame 'cam1', got {c1.frame!r}")
    if c2.frame != "cam2":
        raise FrameMismatchError(f"second cloud must be in frame 'cam2', got {c2.frame!r}")
    rows1, rows2 = _red_rows(c1.rgb, p), _red_rows(c2.rgb, p)
    xyz = np.empty((len(rows1) + len(rows2), 3))
    _to_base(c1, t1, rows1, xyz[: len(rows1)])
    _to_base(c2, t2, rows2, xyz[len(rows1) :])
    inside = _in_window(xyz, p)
    if not inside.all():
        xyz = xyz.take(np.flatnonzero(inside), axis=0)
    groups = cluster_indices(xyz, p.tol, p.s_min, p.s_max, telemetry)
    boxes = boxes_of(xyz, groups)
    if telemetry is not None:
        telemetry.update(n_merged=len(c1) + len(c2), n_red=len(xyz))
    return boxes
