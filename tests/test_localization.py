import numpy as np
import pytest

from berrypick import localization
from berrypick.errors import FrameMismatchError
from berrypick.geometry import ColoredPointCloud, RigidTransform, Vec3, merge_clouds, sq_lengths, transform_cloud
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


def boxes_from_clusters(cloud, p):
    """The boxes of `cloud`'s clusters, in `cluster_indices` order."""
    return boxes_of(cloud.xyz, cluster_indices(cloud.xyz, p.tol, p.s_min, p.s_max))


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

    def test_grid_limit_shared_with_clustering(self, monkeypatch):
        # the crop window's grid at tol 0.02 m has ~40k cells
        monkeypatch.setattr(localization, "MAX_GRID_CELLS", 1000.0)
        with pytest.raises(ValueError, match="^tol "):
            LocalizationParams()
        corners = np.array([[0.26, -0.29, 0.31], [0.54, 0.29, 0.49]])
        with pytest.raises(ValueError, match="grid cells"):
            cluster_indices(corners, 0.02, 1, 10)


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
    each point must land in the cell its coordinates name."""
    k = np.array([5, 5, 5])
    pts = np.concatenate([np.asarray(g, dtype=float).reshape(-1, 3) for g in groups])
    xyz = (k + pts) * ROUND_CELL
    assert np.array_equal(np.floor(xyz / ROUND_CELL) - k, np.floor(pts))
    return xyz


def brute_force_cell_counts(xyz, tol):
    """(n_cells, n_cell_pairs) of `cluster_indices` by an O(m^2) count: the
    distinct floor keys of its grid, and the pairs of those cells at most
    two cells apart on every axis, each pair compared."""
    if len(xyz) == 0:
        return 0, 0
    keys = np.unique(np.floor(xyz / (tol / np.sqrt(3.0) * (1.0 - 1e-12))), axis=0)
    apart = np.abs(keys[:, None] - keys[None, :]).max(axis=2)
    return len(keys), int(np.triu(apart <= 2, 1).sum())


def oracle_checked_clusters(xyz):
    mine = cluster_indices(xyz, ROUND_TOL, 1, 10**6)
    assert partitions_equal(mine, brute_force_clusters(xyz, ROUND_TOL, 1, 10**6))
    return mine


def each_neighbour_path(monkeypatch):
    """Force `cluster_indices` onto each way of finding a cell's neighbours
    in turn, yielding its name: the grid table, then the search of the
    sorted cell keys. Both must find the same candidate cell pairs."""
    for path, fits in (("table", True), ("search", False)):
        monkeypatch.setattr(localization, "_table_fits", lambda cells, n, fits=fits: fits)
        yield path


@pytest.fixture
def rounds(monkeypatch):
    """Log each clustering round as it runs, with whether it merged
    components: `_probe` runs the face round and then the probe round, once
    each per clustering, and `_point_links` the point round when pairs are
    left for it."""
    log = []
    probe, point_links = localization._probe, localization._point_links

    def probed(label, *args):
        out = probe(label, *args)
        log.append((("face", "probe")[sum(r != "point" for r, _ in log) % 2], not np.array_equal(out, label)))
        return out

    def point_linked(label, *args):
        out = point_links(label, *args)
        log.append(("point", not np.array_equal(out, label)))
        return out

    monkeypatch.setattr(localization, "_probe", probed)
    monkeypatch.setattr(localization, "_point_links", point_linked)
    return log


ORDERS = 6


def in_each_order(xyz, rounds):
    """(clusters, rounds run) of `xyz` as given and in ORDERS - 1 shuffles,
    each checked against the oracle; the rounds are (name, merged) pairs.
    The key sort is stable, so a cell's first point, which the face and
    probe rounds read, is its lowest row, and each order may put another
    of its points first."""
    rng = np.random.default_rng(30)
    out = []
    for perm in [np.arange(len(xyz))] + [rng.permutation(len(xyz)) for _ in range(ORDERS - 1)]:
        ran = len(rounds)
        n_clusters = len(oracle_checked_clusters(xyz[perm]))
        out.append((n_clusters, tuple(rounds[ran:])))
    return out


FACE = ("face", True), ("probe", False)
PROBE = ("face", False), ("probe", True)
POINT = ("face", False), ("probe", False), ("point", True)
NO_LINK = ("face", False), ("probe", False), ("point", False)


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

    def test_oracle_equivalence_random_clouds(self, monkeypatch):
        rng = np.random.default_rng(16)
        for _ in range(25):
            n = int(rng.integers(0, 800))
            span = float(rng.uniform(0.05, 0.4))
            xyz = rng.uniform(0, span, size=(n, 3))
            oracle = brute_force_clusters(xyz, 0.02, 1, 10**9)
            for path in each_neighbour_path(monkeypatch):
                mine = cluster_indices(xyz, 0.02, 1, 10**9)
                assert partitions_equal(mine, oracle), path

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

    def test_ordered_by_each_clusters_mean(self):
        # 30 clusters, each a chain of the same twelve y values along one
        # line x = const, with the clusters' points interleaved at random:
        # every cluster sums its y values in another order, so the means
        # differ only in how they round. The order key is each cluster's
        # own `.mean(axis=0)`, y, x, z, then its lowest index.
        rng = np.random.default_rng(33)
        tol = 0.25
        ys = 0.1 * np.arange(12) + 0.013
        xyz = np.array([[x, y, 0.3] for x in np.arange(30.0) for y in ys])[rng.permutation(360)]
        clusters = cluster_indices(xyz, tol, 1, 10**6)
        assert len(clusters) == 30
        key = [(*xyz[c].mean(axis=0)[[1, 0, 2]].tolist(), int(c[0])) for c in clusters]
        assert key == sorted(key)
        assert len({k[0] for k in key}) > 1  # the means round apart

    def test_sorted_by_centroid_y(self):
        rng = np.random.default_rng(21)
        centers = [np.array([0.0, y, 0.0]) for y in (0.3, -0.1, 0.1, 0.5)]
        xyz = np.concatenate([blob(rng, c, 25) for c in centers])
        clusters = cluster_indices(xyz, 0.02, 1, 1000)
        ys = [xyz[c][:, 1].mean() for c in clusters]
        assert ys == sorted(ys)

    def test_every_cell_offset_matches_oracle(self, monkeypatch):
        # For each of the 62 half-space offsets d between grid cells, put a
        # pair of points in cells k and k + d: once as close as the cells
        # allow (within tol for every d, by ~1e-12 for |d| = 2 on all axes)
        # and once just beyond tol. A third point far above or below puts
        # the pair at the grid's lowest or highest cell coordinates; with
        # the pair alone the grid is as small as the pair allows, so the
        # runs searched in neighbouring rows abut. Each cloud is clustered
        # on both neighbour paths.
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
                for anchor in (+8, -8, None):
                    xyz = np.array([p, q] if anchor is None else [p, q, (k + anchor + 0.5) * cell])
                    oracle = brute_force_clusters(xyz, tol, 1, 10)
                    assert (max(map(len, oracle)) == 2) == joined, (d, joined)
                    for path in each_neighbour_path(monkeypatch):
                        assert partitions_equal(cluster_indices(xyz, tol, 1, 10), oracle), (d, joined, anchor, path)
                        checked += 1
        assert checked == 62 * 2 * 3 * 2

    def test_grid_of_2_64_cells_rejected(self):
        # 2^32 + 5 by 65,536 by 65,536 cells: int64 keys would wrap and join
        # the first two points, 49,594 km apart
        edge = localization._cell_edge(0.02)
        xyz = np.array([[0, 0, 0], [2**32, 0, 0], [0, 65531, 65531]]) * edge + edge / 2
        with pytest.raises(ValueError, match=r"1\.84e\+19 grid cells"):
            cluster_indices(xyz, 0.02, 1, 10)

    def test_points_too_far_from_the_origin_rejected(self):
        # two points 16,384 m apart, 8.7e21 cells out: past the int64 range
        # a cast cell index is undefined (numpy gives both -2^63, one cell)
        xyz = np.array([[1e20, 0.0, 0.0], [np.nextafter(1e20, 2e20), 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"8\.66e\+21 grid cells from the origin"):
            cluster_indices(xyz, 0.02, 1, 10)

    def test_grid_just_under_the_limit(self, monkeypatch):
        # 2^30 by 2^29 by 6 cells, 3/4 of 2^62: the keys do not wrap, and
        # the last two points, one cell apart, are joined
        edge = localization._cell_edge(0.02)
        far = [2**30 - 5, 2**29 - 5, 0]
        xyz = (np.array([[0, 0, 0], far, far]) + [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.5, 0.5, 1.5]]) * edge
        # no room is left in a key for the row, so the keys are argsorted
        argsorted = []
        monkeypatch.setattr(np, "argsort", lambda a, f=np.argsort: argsorted.append(len(a)) or f(a))
        assert partitions_equal(cluster_indices(xyz, 0.02, 1, 10), [[0], [1, 2]])
        assert argsorted == [3]

    @pytest.mark.parametrize("dims, table", [((6, 8, 1366), True), ((7, 17, 551), False)])
    def test_table_rule_at_its_limit(self, monkeypatch, dims, table):
        # Four points on grids of 65,568 = 8 * 4 + 2^16 cells, the largest
        # grid the table rule admits for four points, and of 65,569 cells,
        # one past it, which the sorted keys are searched for. Two of the
        # points are one cell apart, two are two cells apart.
        tol = 0.02
        edge = localization._cell_edge(tol)
        far = np.array(dims) - 5
        xyz = (np.array([[0, 0, 0], [0, 0, 1], far - [0, 0, 2], far]) + 0.5) * edge
        decided = []
        fits = localization._table_fits

        def recorded(cells, n):
            decided.append((cells, n, fits(cells, n)))
            return decided[-1][2]

        monkeypatch.setattr(localization, "_table_fits", recorded)
        assert partitions_equal(cluster_indices(xyz, tol, 1, 10), brute_force_clusters(xyz, tol, 1, 10))
        assert partitions_equal(cluster_indices(xyz, tol, 1, 10), [[0, 1], [2], [3]])
        assert decided[0] == (8 * 4 + 2**16 + (not table), 4, table)

    def test_one_cell_cloud(self):
        # a grid of one occupied cell: points anywhere in it, repeats too
        assert partitions_equal(oracle_checked_clusters(cells_cloud([[0.5, 0.5, 0.5]])), [[0]])
        xyz = cells_cloud([[0.01, 0.02, 0.99], [0.99, 0.98, 0.01], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        assert partitions_equal(oracle_checked_clusters(xyz), [[0, 1, 2, 3]])

    def test_within_cell_order_changes_nothing(self, rounds):
        # Many repeated points per cell, shuffled: a cell's first point is
        # its lowest row, so each shuffle may change which point comes
        # first, and so which round links a cell pair, but never the
        # partition. Each output maps through its permutation onto the
        # unshuffled one.
        rng = np.random.default_rng(29)
        tol = 0.25  # a power of two: lattice distances are exact
        for _ in range(4):
            sites = rng.integers(0, 16, size=(50, 3)) * (tol / 4)
            xyz = np.concatenate([sites[rng.integers(0, len(sites), 250)], rng.uniform(0, 4 * tol, (50, 3))])
            base = cluster_indices(xyz, tol, 1, 10**6)
            assert partitions_equal(base, brute_force_clusters(xyz, tol, 1, 10**6))
            for _ in range(5):
                perm = rng.permutation(len(xyz))
                shuffled = cluster_indices(xyz[perm], tol, 1, 10**6)
                assert partitions_equal(shuffled, brute_force_clusters(xyz[perm], tol, 1, 10**6))
                assert sorted(np.sort(perm[c]).tolist() for c in shuffled) == sorted(c.tolist() for c in base)
        assert ("point", True) in rounds

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

    def test_telemetry_counts_cells_and_near_pairs(self, monkeypatch):
        rng = np.random.default_rng(31)
        clouds = [
            (rng.uniform(0, 0.1, (300, 3)), 0.02),
            (np.concatenate([blob(rng, c, 40) for c in ([0, 0, 0], [0, 0.03, 0], [0.1, 0, 0])]), 0.02),
            (rng.integers(0, 12, size=(200, 3)) * (0.25 / 4), 0.25),  # ties on cell faces, repeats
            (np.tile(rng.uniform(0, 0.05, (20, 3)), (5, 1)), 0.02),  # each point five times
            (np.array([[0.3, 0.1, 0.4]]), 0.02),
            (np.empty((0, 3)), 0.02),
        ]
        for xyz, tol in clouds:
            want = brute_force_cell_counts(xyz, tol)
            for path in each_neighbour_path(monkeypatch):
                tel = {}
                cluster_indices(xyz, tol, 1, 10**6, tel)
                assert (tel["n_cells"], tel["n_cell_pairs"]) == want, path

    # One case per round, each in several row orders against the oracle and
    # on both neighbour paths, with the rounds that merge components logged;
    # coordinates are in cell edges (`cells_cloud`).

    def test_round_sure_link(self, monkeypatch, rounds):
        # every point of one cell within tol of every point of the other, a
        # face neighbour: the face round links the cells whichever points
        # come first, and the probe round skips the settled pair
        u = [[0.8, 0.4, 0.4], [0.95, 0.6, 0.6], [0.9, 0.5, 0.45]]
        v = [[1.05, 0.4, 0.6], [1.2, 0.6, 0.4]]
        for _ in each_neighbour_path(monkeypatch):
            assert in_each_order(cells_cloud(u, v), rounds) == [(1, FACE)] * ORDERS

    def test_round_representative_probe(self, monkeypatch, rounds):
        # cell corners and centres, the cells one apart: the corners of one
        # cell lie beyond tol of the far corners of the other, so the
        # points that come first decide whether the face round or the
        # point round links the cells; the probe round tests the same
        # first points as the face round, so it never does
        corners = [[x, y, z] for x in (0.05, 0.95) for y in (0.05, 0.95) for z in (0.05, 0.95)]
        u = corners + [[0.5, 0.5, 0.5]]
        v = np.array(u) + [1.0, 0.0, 0.0]
        for _ in each_neighbour_path(monkeypatch):
            for k, ran in in_each_order(cells_cloud(u, v), rounds):
                assert k == 1 and ran in (FACE, POINT), ran

    def test_round_pruned_point_test(self, monkeypatch, rounds):
        # the centre points sit two cells apart, beyond tol; only the face
        # points, 1.02 cells apart, join the cells, in the probe or the
        # point round as the order falls (two cells apart are no face
        # neighbours)
        u = [[0.5, 0.5, 0.5]] * 3 + [[0.99, 0.5, 0.5]]
        v = [[2.5, 0.5, 0.5]] * 3 + [[2.01, 0.5, 0.5]]
        xyz = cells_cloud(u, v)
        assert np.linalg.norm(xyz[0] - xyz[4]) > ROUND_TOL
        for _ in each_neighbour_path(monkeypatch):
            for k, ran in in_each_order(xyz, rounds):
                assert k == 1 and ran in (PROBE, POINT), ran

    def test_round_near_pair_without_edge(self, monkeypatch, rounds):
        # the extents lie within tol of each other, no point pair does:
        # the closest pair is 1.04, 0.996 and 0.996 cells apart, so no probe
        # links and the point round runs in every order, and links nothing
        u = [[0.98, 0.002, 0.002], [0.02, 0.998, 0.998]]
        v = [[2.02, 0.998, 0.998], [2.98, 0.002, 0.002]]
        for _ in each_neighbour_path(monkeypatch):
            assert in_each_order(cells_cloud(u, v), rounds) == [(2, NO_LINK)] * ORDERS

    def test_round_face_settles_all(self, monkeypatch, rounds):
        # two 4 x 4 x 3 blocks of cells, each cell holding three points
        # near its centre, the blocks three cells apart: face neighbours'
        # points lie within tol, so the face round joins each block, no
        # candidate pair crosses the blocks, and the probe round finds
        # every pair settled
        rng = np.random.default_rng(34)
        centres = np.array([[x, y, z] for x in range(4) for y in range(4) for z in range(3)]) + 0.5
        block = np.repeat(centres, 3, axis=0) + rng.uniform(-0.1, 0.1, (3 * len(centres), 3))
        xyz = cells_cloud(block, block + [0, 0, 6])
        for _ in each_neighbour_path(monkeypatch):
            assert in_each_order(xyz, rounds) == [(2, FACE)] * ORDERS

    def test_round_row_mixes_settled_and_crossing(self, monkeypatch, rounds):
        # one point each in cells u, u + x and u + x + z: the face round
        # joins u and u + x, and tests u + x against u + x + z, beyond tol.
        # The row (dx, dy) = (1, 0) of u then holds a settled pair and one
        # that still crosses, which the probe round links
        xyz = cells_cloud([[0.99, 0.5, 0.99]], [[1.99, 0.0, 0.0]], [[1.01, 0.99, 1.99]])
        assert np.linalg.norm(xyz[1] - xyz[2]) > ROUND_TOL
        for _ in each_neighbour_path(monkeypatch):
            assert in_each_order(xyz, rounds) == [(1, (("face", True), ("probe", True)))] * ORDERS

    def test_one_point_cells_beyond_tol_never_link(self, monkeypatch, rounds):
        # one point near the centre of every other cell of a 5 x 5 x 5
        # block: each candidate pair is two cells apart on some axis, so
        # its one point pair lies beyond tol, which the probe finds
        rng = np.random.default_rng(35)
        centres = np.array([[x, y, z] for x in (0, 2, 4) for y in (0, 2, 4) for z in (0, 2, 4)]) + 0.5
        xyz = cells_cloud(centres + rng.uniform(-0.05, 0.05, centres.shape))
        assert brute_force_cell_counts(xyz, ROUND_TOL) == (27, 158)
        for path in each_neighbour_path(monkeypatch):
            tel = {}
            assert partitions_equal(cluster_indices(xyz, ROUND_TOL, 1, 1, tel), brute_force_clusters(xyz, ROUND_TOL, 1, 1))
            assert tel == dict(n_cells=27, n_cell_pairs=158, n_clusters_raw=27, discarded_small=0, discarded_large=0), path
            assert in_each_order(xyz, rounds) == [(27, (("face", False), ("probe", False)))] * ORDERS, path

    def test_one_point_cell_beside_a_larger_one_links(self, monkeypatch, rounds):
        # u holds one point; v, two cells away, holds two, the first beyond
        # tol of u's point and the second within it, so the probe of the
        # first points does not link the cells and the point round must.
        # A shuffle that puts v's near point first links them in the probe
        u = [[0.95, 0.5, 0.5]]
        v = [[2.95, 0.95, 0.95], [2.05, 0.5, 0.5]]
        xyz = cells_cloud(u, v)
        assert np.linalg.norm(xyz[0] - xyz[1]) > ROUND_TOL >= np.linalg.norm(xyz[0] - xyz[2])
        for path in each_neighbour_path(monkeypatch):
            tel = {}
            assert partitions_equal(cluster_indices(xyz, ROUND_TOL, 1, 10, tel), [[0, 1, 2]])
            assert tel == dict(n_cells=2, n_cell_pairs=1, n_clusters_raw=1, discarded_small=0, discarded_large=0), path
            ran = in_each_order(xyz, rounds)
            assert ran[0] == (1, POINT) and all(r in ((1, POINT), (1, PROBE)) for r in ran), path

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
            return sq_lengths(d)

        monkeypatch.setattr(localization, "PAIR_BUDGET", 1)
        monkeypatch.setattr(localization, "sq_lengths", sq)
        assert len(oracle_checked_clusters(xyz)) == (1 if linked else 2)
        assert max(tested) <= len(xyz)



class TestBoxesOf:
    def test_two_point_cluster(self):
        (box,) = boxes_of(np.array([[0.0, 0.0, 0.0], [0.01, 0.02, 0.03]]), [np.arange(2)])
        assert box.index == 0
        assert box.point_count == 2
        assert box.box.min == Vec3(0.0, 0.0, 0.0)
        assert box.box.max == Vec3(0.01, 0.02, 0.03)

    def test_sphere_box_side_in_band(self):
        rng = np.random.default_rng(23)
        r = 0.015
        dirs = rng.normal(size=(2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        (box,) = boxes_of(np.array([0.4, 0.0, 0.4]) + r * dirs, [np.arange(2000)])
        for lo, hi in ((box.box.min.x, box.box.max.x), (box.box.min.y, box.box.max.y), (box.box.min.z, box.box.max.z)):
            assert 1.6 * r <= hi - lo <= 2.0 * r

    def test_boxes_sorted_by_center_y(self):
        rng = np.random.default_rng(24)
        boxes = boxes_from_clusters(
            cloud_of(np.concatenate([blob(rng, np.array([0.0, y, 0.0]), 30) for y in (-0.2, 0.0, 0.2)])),
            LocalizationParams(s_min=1),
        )
        ys = [b.box.center.y for b in boxes]
        assert ys == sorted(ys)
        assert [b.index for b in boxes] == [0, 1, 2]

    def test_bounds_equal_each_clusters_min_and_max(self):
        # one gather and one reduceat per bound give each cluster's own
        # min and max, bit for bit: random clusters, one-point clusters,
        # and values that are signed zeros or subnormal
        rng = np.random.default_rng(34)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0])
        for trial in range(40):
            n = int(rng.integers(1, 400))
            xyz = rng.normal(size=(n, 3)) if trial % 2 else rng.choice(special, size=(n, 3))
            k = n - 1 if trial % 4 == 0 else min(n - 1, int(rng.integers(0, 30)))  # all one-point, or mixed
            cuts = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))
            clusters = np.split(rng.permutation(n), cuts)
            boxes = boxes_of(xyz, clusters)
            assert len(boxes) == len(clusters)
            for i, (b, c) in enumerate(zip(boxes, clusters)):
                got = np.array([b.box.min.x, b.box.min.y, b.box.min.z, b.box.max.x, b.box.max.y, b.box.max.z])
                want = np.concatenate([xyz[c].min(axis=0), xyz[c].max(axis=0)])
                assert (b.index, b.point_count) == (i, len(c))
                assert got.tobytes() == want.tobytes()
        assert boxes_of(np.zeros((0, 3)), []) == []

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            boxes_of(np.zeros((2, 3)), [np.empty(0, dtype=np.intp)])
        with pytest.raises(ValueError):
            boxes_of(np.zeros((2, 3)), [np.arange(2), np.empty(0, dtype=np.intp)])


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
        staged = boxes_from_clusters(red, p)
        assert boxes == staged
        assert len(boxes) == 3
        # the filter-first path clusters the staged path's red points, bit for bit
        assert [x.tobytes() for x in seen] == [red.xyz.tobytes()] * 2
        assert (tel["n_merged"], tel["n_red"]) == (len(merged), len(red))
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
            assert localize(c1, c2, t1, t2, p) == boxes_from_clusters(red, p)
            assert seen[0].tobytes() == red.xyz.tobytes()

    def test_lone_red_row_rounding_apart_moves_as_in_whole_cloud(self, monkeypatch):
        # on a BLAS whose one-row move rounds apart from the whole-cloud
        # move, here made to by one ulp, the lone red row still clusters
        # at the whole cloud's bits
        rng = np.random.default_rng(30)
        _, c2, t1, t2 = make_scene_clouds(rng)
        p = LocalizationParams(s_min=1)
        rgb = np.full((5, 3), 90, dtype=np.uint8)
        rgb[2] = (200, 30, 30)
        base = rng.uniform([0.3, -0.2, 0.35], [0.5, 0.2, 0.45], size=(5, 3))
        c1 = ColoredPointCloud("cam1", t1.inverse().apply_to(base), rgb)
        merged = merge_clouds(transform_cloud(t1, c1, "base"), transform_cloud(t2, c2, "base"))
        whole = threshold_red(crop_window(merged, p), p)
        apply_to, seen = RigidTransform.apply_to, []

        def one_row_apart(t, xyz, out=None):
            moved = apply_to(t, xyz, out)
            if len(xyz) == 1:
                moved[:] = np.nextafter(moved, np.inf)
            return moved

        def recording(xyz, *args):
            seen.append(xyz)
            return cluster_indices(xyz, *args)

        monkeypatch.setattr(RigidTransform, "apply_to", one_row_apart)
        monkeypatch.setattr(localization, "cluster_indices", recording)
        assert localize(c1, c2, t1, t2, p) == boxes_from_clusters(whole, p)
        assert seen[0].tobytes() == whole.xyz.tobytes()

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
        def no_points(frame):
            return ColoredPointCloud(frame, np.empty((0, 3)), np.empty((0, 3), dtype=np.uint8))

        ident1 = RigidTransform(np.eye(3), Vec3(0.0, 0.0, 0.0), "cam1", "base")
        ident2 = RigidTransform(np.eye(3), Vec3(0.0, 0.0, 0.0), "cam2", "base")
        with pytest.raises(FrameMismatchError):
            localize(no_points("base"), no_points("cam2"), ident1, ident2, PARAMS)
        with pytest.raises(FrameMismatchError):
            localize(no_points("cam1"), no_points("base"), ident1, ident2, PARAMS)

    def test_telemetry_populated(self):
        rng = np.random.default_rng(27)
        c1, c2, t1, t2 = make_scene_clouds(rng)
        tel = {}
        boxes = localize(c1, c2, t1, t2, LocalizationParams(), tel)
        assert len(boxes) == 3
        assert tel["n_merged"] == len(c1) + len(c2)
        assert tel["n_merged"] > tel["n_red"] >= tel["n_cells"] > 0
        assert tel["n_cell_pairs"] > 0
        assert tel["n_clusters_raw"] - tel["discarded_small"] - tel["discarded_large"] == 3
        # deterministic counts only: no wall-clock entry
        assert sorted(tel) == [
            "discarded_large", "discarded_small", "n_cell_pairs", "n_cells", "n_clusters_raw", "n_merged", "n_red",
        ]
