import numpy as np
import pytest

from berrypick import localization
from berrypick.errors import FrameMismatchError
from berrypick.geometry import ColoredPointCloud, RigidTransform, Vec3, merge_clouds, transform_cloud
from berrypick.localization import (
    LocalizationParams,
    boxes_of,
    cluster_indices,
    crop_window,
    localize,
    threshold_red,
)

from oracles import brute_force_clusters, linear_crop, linear_red_filter

PARAMS = LocalizationParams()


def cloud_of(xyz, rgb=None, frame="base"):
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    if rgb is None:
        rgb = np.tile(np.array([[200, 30, 30]], dtype=np.uint8), (len(xyz), 1))
    return ColoredPointCloud(frame, xyz, rgb)


def clusters_of(cloud, p):
    groups = cluster_indices(cloud.xyz, p.tol, p.s_min, p.s_max)
    return [ColoredPointCloud(cloud.frame, cloud.xyz[g], cloud.rgb[g]) for g in groups]


def blob(rng, center, n=30, radius=0.008):
    pts = center + rng.normal(scale=radius / 2, size=(n, 3))
    return pts


class TestParams:
    def test_defaults_window(self):
        p = LocalizationParams()
        assert (p.x_plus, p.x_minus) == (0.55, 0.25)
        assert (p.y_plus, p.y_minus) == (0.30, -0.30)
        assert (p.z_plus, p.z_minus) == (0.50, 0.30)
        assert (p.r_th, p.g_th, p.b_th) == (100, 70, 70)
        assert p.tol == 0.02
        assert (p.s_min, p.s_max) == (20, 1000)

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            LocalizationParams(s_min=0)
        with pytest.raises(ValueError):
            LocalizationParams(s_min=10, s_max=5)
        with pytest.raises(ValueError):
            LocalizationParams(x_minus=0.6, x_plus=0.5)
        with pytest.raises(ValueError):
            LocalizationParams(tol=0.0)
        # the clustering grid over the crop window would pass 2^62 cells
        with pytest.raises(ValueError, match="^tol "):
            LocalizationParams(tol=1e-7)
        with pytest.raises(ValueError, match="^tol "):
            LocalizationParams(x_minus=-1e4, x_plus=1e4, y_minus=-1e4, y_plus=1e4, z_minus=-1e4, z_plus=1e4)


class TestCropWindow:
    def test_interior_point_kept(self):
        c = cloud_of([[0.40, 0.0, 0.40]])
        assert len(crop_window(c, PARAMS)) == 1

    def test_boundary_point_dropped(self):
        c = cloud_of([[0.55, 0.0, 0.40]])
        assert len(crop_window(c, PARAMS)) == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(10)
        xyz = rng.uniform(0.0, 1.0, size=(10000, 3))
        c = cloud_of(xyz)
        kept = crop_window(c, PARAMS)
        bounds = (PARAMS.x_minus, PARAMS.x_plus, PARAMS.y_minus,
                  PARAMS.y_plus, PARAMS.z_minus, PARAMS.z_plus)
        expected = linear_crop(xyz.tolist(), bounds)
        assert np.array_equal(kept.xyz, xyz[expected])

    def test_requires_base_frame(self):
        c = cloud_of([[0.4, 0.0, 0.4]], frame="cam1")
        with pytest.raises(FrameMismatchError):
            crop_window(c, PARAMS)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        c = cloud_of(rng.uniform(0, 1, size=(500, 3)))
        once = crop_window(c, PARAMS)
        twice = crop_window(once, PARAMS)
        assert twice == once


class TestThresholdRed:
    def test_red_kept(self):
        c = cloud_of([[0.4, 0, 0.4]], rgb=[[200, 50, 50]])
        assert len(threshold_red(c, PARAMS)) == 1

    def test_boundary_dropped(self):
        c = cloud_of([[0.4, 0, 0.4]], rgb=[[100, 50, 50]])
        assert len(threshold_red(c, PARAMS)) == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(12)
        xyz = rng.uniform(0, 1, size=(1000, 3))
        rgb = rng.integers(0, 256, size=(1000, 3), dtype=np.uint8)
        c = ColoredPointCloud("base", xyz, rgb)
        kept = threshold_red(c, PARAMS)
        expected = linear_red_filter([tuple(map(int, v)) for v in rgb], PARAMS.r_th, PARAMS.g_th, PARAMS.b_th)
        assert np.array_equal(kept.xyz, xyz[expected])
        assert np.array_equal(kept.rgb, rgb[expected])

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        c = ColoredPointCloud(
            "base", rng.uniform(0, 1, size=(500, 3)), rng.integers(0, 256, size=(500, 3), dtype=np.uint8)
        )
        once = threshold_red(c, PARAMS)
        assert threshold_red(once, PARAMS) == once


def partitions_equal(a: list[np.ndarray], b: list[list[int]]) -> bool:
    if len(a) != len(b):
        return False
    return all(np.array_equal(x, np.asarray(y)) for x, y in zip(a, b))


ROUND_TOL = 0.02
ROUND_CELL = ROUND_TOL / np.sqrt(3.0) * (1.0 - 1e-12)  # the grid's cell edge at ROUND_TOL


def cells_cloud(*groups):
    """Points given in cell edges from the low corner of cell u = (5, 5, 5);
    every point lies in u, u + (1,0,0) or u + (2,0,0)."""
    k = np.array([5, 5, 5])
    xyz = (k + np.concatenate([np.asarray(g, dtype=float).reshape(-1, 3) for g in groups])) * ROUND_CELL
    ij = np.floor(xyz / ROUND_CELL) - k
    assert np.isin(ij[:, 0], [0, 1, 2]).all() and (ij[:, 1:] == 0).all()
    return xyz


def oracle_checked_clusters(xyz):
    mine = cluster_indices(xyz, ROUND_TOL, 1, 10**6)
    assert partitions_equal(mine, brute_force_clusters(xyz, ROUND_TOL, 1, 10**6))
    return mine


@pytest.fixture
def rounds(monkeypatch):
    """Count the calls to the clustering's second and last rounds."""
    calls = {"representatives": 0, "point_links": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(localization, f"_{name}", counted(name, getattr(localization, f"_{name}")))
    return calls


class TestClustering:
    def test_two_blobs_two_clusters(self):
        rng = np.random.default_rng(14)
        a = blob(rng, np.array([0.0, 0.0, 0.0]), n=30)
        b = blob(rng, np.array([0.0, 0.10, 0.0]), n=30)
        xyz = np.concatenate([a, b])
        clusters = cluster_indices(xyz, 0.02, 1, 10000)
        assert [len(c) for c in clusters] == [30, 30]
        assert partitions_equal(clusters, brute_force_clusters(xyz, 0.02, 1, 10000))

    def test_small_blob_filtered_by_s_min(self):
        rng = np.random.default_rng(15)
        xyz = blob(rng, np.zeros(3), n=10)
        assert cluster_indices(xyz, 0.02, 20, 1000) == []

    def test_chain_at_exact_tolerance_is_inclusive(self):
        # 0.25 m steps are exact in binary, so each gap is exactly tol
        tol = 0.25
        xyz = np.array([[i * tol, 0.0, 0.0] for i in range(10)])
        clusters = cluster_indices(xyz, tol, 1, 100)
        assert len(clusters) == 1
        assert len(clusters[0]) == 10

    def test_empty_input(self):
        assert cluster_indices(np.empty((0, 3)), 0.02, 1, 10) == []

    def test_oracle_equivalence_random_clouds(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            n = int(rng.integers(0, 800))
            span = float(rng.uniform(0.05, 0.4))
            xyz = rng.uniform(0, span, size=(n, 3))
            mine = cluster_indices(xyz, 0.02, 1, 10**9)
            oracle = brute_force_clusters(xyz, 0.02, 1, 10**9)
            assert partitions_equal(mine, oracle)

    def test_oracle_equivalence_with_size_filter(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            xyz = np.concatenate(
                [blob(rng, rng.uniform(0, 0.3, size=3), n=int(rng.integers(5, 60))) for _ in range(6)]
            )
            mine = cluster_indices(xyz, 0.02, 20, 45)
            oracle = brute_force_clusters(xyz, 0.02, 20, 45)
            assert partitions_equal(mine, oracle)

    def test_partition_property(self):
        rng = np.random.default_rng(18)
        xyz = rng.uniform(0, 0.2, size=(600, 3))
        clusters = cluster_indices(xyz, 0.02, 1, 10**9)
        seen = np.concatenate(clusters)
        assert len(seen) == 600
        assert len(np.unique(seen)) == 600

    def test_within_cluster_input_order(self):
        rng = np.random.default_rng(19)
        xyz = np.concatenate([blob(rng, np.zeros(3), 25), blob(rng, np.array([0, 0.2, 0]), 25)])
        perm = rng.permutation(50)
        clusters = cluster_indices(xyz[perm], 0.02, 1, 100)
        for c in clusters:
            assert np.array_equal(c, np.sort(c))

    def test_permutation_changes_nothing_but_order(self):
        rng = np.random.default_rng(20)
        xyz = np.concatenate(
            [blob(rng, np.array([0.0, 0.05 * k, 0.0]), n=30) for k in range(4)]
        )
        base = cluster_indices(xyz, 0.02, 1, 1000)
        perm = rng.permutation(len(xyz))
        permuted = cluster_indices(xyz[perm], 0.02, 1, 1000)
        base_sets = [frozenset(map(tuple, xyz[c])) for c in base]
        perm_sets = [frozenset(map(tuple, xyz[perm][c])) for c in permuted]
        assert base_sets == perm_sets

    def test_sorted_by_centroid_y(self):
        rng = np.random.default_rng(21)
        centers = [np.array([0.0, y, 0.0]) for y in (0.3, -0.1, 0.1, 0.5)]
        xyz = np.concatenate([blob(rng, c, 25) for c in centers])
        clusters = cluster_indices(xyz, 0.02, 1, 1000)
        ys = [xyz[c][:, 1].mean() for c in clusters]
        assert ys == sorted(ys)

    def test_every_cell_offset_matches_oracle(self):
        # For each of the 62 half-space offsets d between grid cells, put a
        # pair of points in cells k and k + d: once as close as the cells
        # allow (within tol for every d, by ~1e-12 for |d| = 2 on all axes)
        # and once just beyond tol. A third point far above or below puts
        # the pair at the grid's lowest or highest cell coordinates.
        tol = 0.02
        cell = tol / np.sqrt(3.0) * (1.0 - 1e-12)  # the grid's cell edge
        e = 1e-13 * cell
        k = np.array([5, 5, 5])

        def place(d, r):
            """p in cell k, q = p + r in cell k + d, both mid-way in their
            feasible span on each axis."""
            lo = np.maximum(0.0, d * cell - r)
            hi = np.minimum(cell, (d + 1) * cell - r)
            p = k * cell + (lo + hi) / 2
            return p, p + r

        offsets = [d for d in np.ndindex(5, 5, 5) if d > (2, 2, 2)]
        assert len(offsets) == 62
        checked = 0
        for d in np.array(offsets) - 2:
            near = np.sign(d) * (np.maximum(np.abs(d) - 1, 0) * cell + 2 * e)
            far = near.copy()
            a = np.argmax(np.abs(d))  # stretch the longest axis to just past tol
            rest = (near * near).sum() - near[a] ** 2
            far[a] = np.sign(d[a]) * np.sqrt((tol * (1 + 1e-9)) ** 2 - rest)
            for r, joined in ((near, True), (far, False)):
                p, q = place(d, r)
                assert np.array_equal(np.floor(p / cell), k)
                assert np.array_equal(np.floor(q / cell), k + d)
                for anchor in (+8, -8):
                    xyz = np.array([p, q, (k + anchor + 0.5) * cell])
                    oracle = brute_force_clusters(xyz, tol, 1, 10)
                    assert (sorted(map(len, oracle)) == [1, 2]) == joined, (d, joined)
                    assert partitions_equal(cluster_indices(xyz, tol, 1, 10), oracle), (d, joined, anchor)
                    checked += 1
        assert checked == 62 * 2 * 2

    def test_telemetry_counts_discards(self):
        rng = np.random.default_rng(22)
        xyz = np.concatenate([
            blob(rng, np.zeros(3), 10),                 # too small
            blob(rng, np.array([0, 0.2, 0]), 30),        # kept
            blob(rng, np.array([0, 0.4, 0]), 60),        # too large
        ])
        tel = {}
        clusters = cluster_indices(xyz, 0.02, 20, 45, tel)
        assert len(clusters) == 1
        assert tel["n_clusters_raw"] == 3
        assert tel["discarded_small"] == 1
        assert tel["discarded_large"] == 1

    # One case per round, each against the oracle, with the rounds that
    # ran counted; coordinates are in cell edges (`cells_cloud`).

    def test_round_sure_link(self, rounds):
        # every point of one cell within tol of every point of the other
        u = [[0.8, 0.4, 0.4], [0.95, 0.6, 0.6], [0.9, 0.5, 0.45]]
        v = [[1.05, 0.4, 0.6], [1.2, 0.6, 0.4]]
        assert len(oracle_checked_clusters(cells_cloud(u, v))) == 1
        assert rounds == {"representatives": 0, "point_links": 0}

    def test_round_representative_probe(self, rounds):
        # cell corners keep the extents' far corners beyond tol; the centre
        # points, one cell apart, are each cell's representative
        corners = [[x, y, z] for x in (0.05, 0.95) for y in (0.05, 0.95) for z in (0.05, 0.95)]
        u = corners + [[0.5, 0.5, 0.5]]
        v = np.array(u) + [1.0, 0.0, 0.0]
        assert len(oracle_checked_clusters(cells_cloud(u, v))) == 1
        assert rounds == {"representatives": 1, "point_links": 0}

    def test_round_pruned_point_test(self, rounds):
        # the representatives sit two cells apart, beyond tol; only the
        # face points, 1.02 cells apart, join the cells
        u = [[0.5, 0.5, 0.5]] * 3 + [[0.99, 0.5, 0.5]]
        v = [[2.5, 0.5, 0.5]] * 3 + [[2.01, 0.5, 0.5]]
        xyz = cells_cloud(u, v)
        assert np.linalg.norm(xyz[0] - xyz[4]) > ROUND_TOL
        assert len(oracle_checked_clusters(xyz)) == 1
        assert rounds == {"representatives": 1, "point_links": 1}

    def test_round_near_pair_without_edge(self, rounds):
        # the extents lie within tol of each other, no point pair does:
        # the closest pair is 1.04, 0.996 and 0.996 cells apart
        u = [[0.98, 0.002, 0.002], [0.02, 0.998, 0.998]]
        v = [[2.02, 0.998, 0.998], [2.98, 0.002, 0.002]]
        assert len(oracle_checked_clusters(cells_cloud(u, v))) == 2
        assert rounds == {"representatives": 1, "point_links": 1}

    @pytest.mark.parametrize("linked", [False, True])
    def test_pair_budget_bounds_each_chunk(self, monkeypatch, linked):
        # Two clumps of 1,000 points, two cells apart, each just beyond tol
        # of the other and within tol of the other cell's extent (stretched
        # by one far point a side), so the last round sees 10^6 pairs.
        # With a budget of one pair each chunk is one point against the
        # other cell, so no distance test sees more rows than the cloud has.
        rng = np.random.default_rng(28)
        a = [0.98, 0.002, 0.002] + rng.uniform(0, 1e-3, size=(1000, 3))
        b = [2.02, 0.998, 0.998] - rng.uniform(0, 1e-3, size=(1000, 3))
        stretch = [[0.02, 0.998, 0.998], [2.98, 0.002, 0.002]]
        link = [[0.99, 0.5, 0.5], [2.01, 0.5, 0.5]] if linked else np.empty((0, 3))
        xyz = cells_cloud(a, b, stretch, link)
        tested = []

        def sq(d):
            tested.append(len(d))
            return (d * d).sum(axis=1)

        monkeypatch.setattr(localization, "PAIR_BUDGET", 1)
        monkeypatch.setattr(localization, "_sq", sq)
        assert len(oracle_checked_clusters(xyz)) == (1 if linked else 2)
        assert max(tested) <= len(xyz)



class TestBoxesOf:
    def test_two_point_cluster(self):
        c = cloud_of([[0.0, 0.0, 0.0], [0.01, 0.02, 0.03]])
        (box,) = boxes_of([c])
        assert box.index == 0
        assert box.point_count == 2
        assert box.box.min == Vec3(0.0, 0.0, 0.0)
        assert box.box.max == Vec3(0.01, 0.02, 0.03)

    def test_sphere_box_side_in_band(self):
        rng = np.random.default_rng(23)
        r = 0.015
        dirs = rng.normal(size=(2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        c = cloud_of(np.array([0.4, 0.0, 0.4]) + r * dirs)
        (box,) = boxes_of([c])
        for lo, hi in ((box.box.min.x, box.box.max.x), (box.box.min.y, box.box.max.y), (box.box.min.z, box.box.max.z)):
            assert 1.6 * r <= hi - lo <= 2.0 * r

    def test_boxes_sorted_by_center_y(self):
        rng = np.random.default_rng(24)
        clusters = clusters_of(
            cloud_of(np.concatenate([blob(rng, np.array([0.0, y, 0.0]), 30) for y in (-0.2, 0.0, 0.2)])),
            LocalizationParams(s_min=1),
        )
        boxes = boxes_of(clusters)
        ys = [b.box.center.y for b in boxes]
        assert ys == sorted(ys)
        assert [b.index for b in boxes] == [0, 1, 2]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            boxes_of([ColoredPointCloud.empty("base")])


def make_scene_clouds(rng, n_blobs=3):
    """Red blobs inside the window, grey clutter in and around it and red
    points outside it, shuffled and split across two cameras."""
    parts_xyz = []
    parts_rgb = []
    for k in range(n_blobs):
        pts = blob(rng, np.array([0.4, -0.1 + 0.1 * k, 0.4]), n=40, radius=0.01)
        parts_xyz.append(pts)
        rgb = np.empty((len(pts), 3), dtype=np.uint8)
        rgb[:, 0] = rng.integers(150, 256, size=len(pts))
        rgb[:, 1] = rng.integers(0, 70, size=len(pts))
        rgb[:, 2] = rng.integers(0, 70, size=len(pts))
        parts_rgb.append(rgb)
    clutter = rng.uniform([0.0, -0.5, 0.0], [1.0, 0.5, 1.0], size=(500, 3))
    grey = rng.integers(80, 200, size=500).astype(np.uint8)
    parts_xyz.append(clutter)
    parts_rgb.append(np.stack([grey, grey, grey], axis=1))
    # red points beyond the window's x_plus face
    parts_xyz.append(rng.uniform([0.6, -0.3, 0.3], [1.0, 0.3, 0.5], size=(100, 3)))
    parts_rgb.append(np.tile(np.array([[200, 30, 30]], dtype=np.uint8), (100, 1)))
    perm = rng.permutation(sum(map(len, parts_xyz)))
    xyz = np.concatenate(parts_xyz)[perm]
    rgb = np.concatenate(parts_rgb)[perm]

    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    t1 = RigidTransform(q, Vec3(0.1, -0.2, 0.05), "cam1", "base")
    t2 = RigidTransform(q.T, Vec3(-0.3, 0.0, 0.2), "cam2", "base")
    half = len(xyz) // 2
    c1 = ColoredPointCloud("cam1", t1.inverse().apply_to(xyz[:half]), rgb[:half])
    c2 = ColoredPointCloud("cam2", t2.inverse().apply_to(xyz[half:]), rgb[half:])
    return c1, c2, t1, t2


class TestLocalize:
    def test_staged_equals_composed(self, monkeypatch):
        rng = np.random.default_rng(25)
        c1, c2, t1, t2 = make_scene_clouds(rng)
        p = LocalizationParams()
        seen = []

        def recording(xyz, *args):
            seen.append(xyz)
            return cluster_indices(xyz, *args)

        monkeypatch.setattr(localization, "cluster_indices", recording)
        tel = {}
        boxes = localize(c1, c2, t1, t2, p, tel)
        assert localize(c1, c2, t1, t2, p) == boxes

        merged = merge_clouds(transform_cloud(t1, c1, "base"), transform_cloud(t2, c2, "base"))
        cropped = crop_window(merged, p)
        red = threshold_red(cropped, p)
        staged = boxes_of(clusters_of(red, p))
        assert boxes == staged
        assert len(boxes) == 3
        # the filter-first path clusters the staged path's red points, bit for bit
        assert [x.tobytes() for x in seen] == [red.xyz.tobytes()] * 2
        assert (tel["n_merged"], tel["n_cropped"], tel["n_red"]) == (len(merged), len(cropped), len(red))
        assert len(merged) > len(cropped) > len(red)
        assert len(threshold_red(merged, p)) > len(red)  # some red points lie outside the window

    def test_lone_red_point_moves_as_in_whole_cloud(self, monkeypatch):
        # numpy moves a one-row array by another BLAS routine than a whole
        # cloud, and the two round apart on some rows
        rng = np.random.default_rng(29)
        _, c2, t1, t2 = make_scene_clouds(rng)
        p = LocalizationParams(s_min=1)
        seen = []

        def recording(xyz, *args):
            seen.append(xyz)
            return cluster_indices(xyz, *args)

        monkeypatch.setattr(localization, "cluster_indices", recording)
        rgb = np.full((5, 3), 90, dtype=np.uint8)
        rgb[2] = (200, 30, 30)
        for _ in range(20):
            base = rng.uniform([0.3, -0.2, 0.35], [0.5, 0.2, 0.45], size=(5, 3))
            c1 = ColoredPointCloud("cam1", t1.inverse().apply_to(base), rgb)
            merged = merge_clouds(transform_cloud(t1, c1, "base"), transform_cloud(t2, c2, "base"))
            red = threshold_red(crop_window(merged, p), p)
            seen.clear()
            assert localize(c1, c2, t1, t2, p) == boxes_of(clusters_of(red, p))
            assert seen[0].tobytes() == red.xyz.tobytes()

    def test_all_non_red_gives_empty(self):
        rng = np.random.default_rng(26)
        xyz = rng.uniform([0.3, -0.2, 0.35], [0.5, 0.2, 0.45], size=(300, 3))
        green = np.zeros((300, 3), dtype=np.uint8)
        green[:, 1] = 200
        c1 = ColoredPointCloud("cam1", xyz[:150], green[:150])
        c2 = ColoredPointCloud("cam2", xyz[150:], green[150:])
        ident1 = RigidTransform(np.eye(3), Vec3(0.0, 0.0, 0.0), "cam1", "base")
        ident2 = RigidTransform(np.eye(3), Vec3(0.0, 0.0, 0.0), "cam2", "base")
        assert localize(c1, c2, ident1, ident2, PARAMS) == []

    def test_frame_checks(self):
        c = ColoredPointCloud.empty("base")
        ident = RigidTransform(np.eye(3), Vec3(0.0, 0.0, 0.0))
        with pytest.raises(FrameMismatchError):
            localize(c, ColoredPointCloud.empty("cam2"), ident, ident, PARAMS)
        with pytest.raises(FrameMismatchError):
            localize(ColoredPointCloud.empty("cam1"), c, ident, ident, PARAMS)

    def test_telemetry_populated(self):
        rng = np.random.default_rng(27)
        c1, c2, t1, t2 = make_scene_clouds(rng)
        tel = {}
        boxes = localize(c1, c2, t1, t2, LocalizationParams(), tel)
        assert len(boxes) == 3
        assert tel["n_merged"] == len(c1) + len(c2)
        assert tel["n_merged"] > tel["n_cropped"] > tel["n_red"]
        assert tel["n_clusters_raw"] - tel["discarded_small"] - tel["discarded_large"] == 3
        # deterministic counts only: no wall-clock entry
        assert sorted(tel) == [
            "discarded_large", "discarded_small", "n_clusters_raw", "n_cropped", "n_merged", "n_red",
        ]
