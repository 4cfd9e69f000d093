import copy
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from berrypick import camera, localization
from berrypick.camera import CameraModel, CameraRig, capture_rig, default_rig, look_at_pose
from berrypick.cli import resolve_config_arg
from berrypick.config import apply_sweep_value, build_scenario, build_scene, sweep_point
from berrypick.localization import LocalizationParams, RedCloud, cluster_indices, localize, threshold_red
from berrypick.geometry import Aabb, Vec3, sq_lengths, transform_cloud
from berrypick.scene import Scene, SurfaceBatch, generate_scene, sample_surface_arrays, _box_points

import oracles
from oracles import ray_hits_box, point_to_segment_distance, reference_capture, surface_rows
from test_scene import _random_box


def noisy_rig(sigma, rate):
    """The default rig with both cameras' depth noise and dropout set."""
    rig = default_rig()
    return CameraRig(*(replace(cam, depth_noise_sigma=sigma, dropout_rate=rate) for cam in (rig.cam1, rig.cam2)))


def noiseless_rig():
    return noisy_rig(0.0, 0.0)


def fruit_points_in_base(cloud, cam, fruit, slack=1e-6):
    base = transform_cloud(cam.pose, cloud, "base")
    d = np.linalg.norm(base.xyz - fruit.center.to_array(), axis=1)
    return base.xyz[d <= fruit.radius + slack]


class TestCameraModel:
    def test_validation(self):
        cam = default_rig().cam1
        with pytest.raises(ValueError):
            replace(cam, h_fov=0.0)
        with pytest.raises(ValueError):
            replace(cam, min_range=1.0, max_range=0.5)
        with pytest.raises(ValueError):
            replace(cam, dropout_rate=1.5)
        with pytest.raises(ValueError):
            replace(cam, depth_noise_sigma=-0.1)

    def test_noisy_rays_stay_finite(self):
        # at the largest sigma every noisy point is finite, the cloud's own
        # check; one ulp above it, and one below the shortest min_range, is refused
        cam = replace(default_rig().cam1, depth_noise_sigma=camera.MAX_DEPTH_NOISE_SIGMA)
        rig = CameraRig(cam, replace(default_rig().cam2, depth_noise_sigma=camera.MAX_DEPTH_NOISE_SIGMA))
        c1, c2 = capture_rig(_paper9(), rig, 3)
        assert len(c1) > 0 and len(c2) > 0
        replace(cam, min_range=camera.MIN_RANGE)
        with pytest.raises(ValueError, match="^depth_noise_sigma "):
            replace(cam, depth_noise_sigma=math.nextafter(camera.MAX_DEPTH_NOISE_SIGMA, math.inf))
        with pytest.raises(ValueError, match="^min_range "):
            replace(cam, min_range=math.nextafter(camera.MIN_RANGE, 0.0))

    def test_rig_frames(self):
        rig = default_rig()
        with pytest.raises(ValueError):
            CameraRig(cam1=rig.cam2, cam2=rig.cam1)

    def test_look_at_points_forward(self):
        pose = look_at_pose(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), "cam1")
        fwd = pose.rotation @ np.array([0.0, 0.0, 1.0])
        assert np.allclose(fwd, [1.0, 0.0, 0.0], atol=1e-12)


class TestCaptureGeometry:
    def test_zero_noise_points_lie_on_surfaces(self):
        scene = generate_scene(2, 1, surface_density=15000.0)
        fruit = scene.strawberries[0]
        rig = noiseless_rig()
        cloud, _ = capture_rig(scene, rig, 5)
        assert len(cloud) > 0
        base = transform_cloud(rig.cam1.pose, cloud, "base").xyz
        trough = scene.trough
        for p in base:
            d_fruit = abs(np.linalg.norm(p - fruit.center.to_array()) - fruit.radius)
            d_stem = abs(
                point_to_segment_distance(p, fruit.stem_top.to_array(), fruit.stem_attach.to_array())
                - fruit.stem_diameter / 2
            )
            lo, hi = trough.min.to_array(), trough.max.to_array()
            inside = np.all(p >= lo - 1e-9) and np.all(p <= hi + 1e-9)
            d_trough = min(abs(p[k] - lo[k]) for k in range(3)) if inside else np.inf
            d_trough = min(d_trough, min(abs(p[k] - hi[k]) for k in range(3)) if inside else np.inf)
            assert min(d_fruit, d_stem, d_trough) <= 1e-9

    def test_zero_noise_fruit_points_within_radius(self):
        scene = generate_scene(2, 1)
        fruit = scene.strawberries[0]
        rig = noiseless_rig()
        cloud, _ = capture_rig(scene, rig, 5)
        pts = fruit_points_in_base(cloud, rig.cam1, fruit, slack=1e-9)
        assert len(pts) >= 20

    def test_range_band_respected(self):
        scene = generate_scene(2, 3)
        rig = noiseless_rig()
        for cloud, cam in zip(capture_rig(scene, rig, 1), (rig.cam1, rig.cam2)):
            z = cloud.xyz[:, 2]
            assert z.min() >= cam.min_range
            assert z.max() <= cam.max_range

    def test_frustum_respected(self):
        scene = generate_scene(2, 9)
        rig = noiseless_rig()
        for cloud, cam in zip(capture_rig(scene, rig, 1), (rig.cam1, rig.cam2)):
            az = np.arctan2(cloud.xyz[:, 0], cloud.xyz[:, 2])
            el = np.arctan2(cloud.xyz[:, 1], cloud.xyz[:, 2])
            assert np.abs(az).max() <= cam.h_fov / 2 + 1e-12
            assert np.abs(el).max() <= cam.v_fov / 2 + 1e-12

    def test_occluder_blocks_cam1_but_not_cam2(self):
        occluder = Aabb(Vec3(0.20, -0.05, 0.30), Vec3(0.22, 0.05, 0.55))
        scene = generate_scene(2, 1, occluders=(occluder,))
        fruit = scene.strawberries[0]
        rig = noiseless_rig()

        # oracle: every cam1 ray to a fruit sample crosses the occluder,
        # no cam2 ray does
        eye1 = rig.cam1.pose.translation.to_array()
        eye2 = rig.cam2.pose.translation.to_array()
        lo = occluder.min.to_array()
        hi = occluder.max.to_array()
        sparse = replace(scene, surface_density=2000.0)
        batch = sample_surface_arrays(sparse)
        fruit_samples = batch.xyz[surface_rows(sparse, batch)["fruit"][0]]
        assert len(fruit_samples)
        for s in fruit_samples:
            assert ray_hits_box(eye1, s - eye1, 1.0, lo, hi)
            assert not ray_hits_box(eye2, s - eye2, 1.0, lo, hi)

        c1, c2 = capture_rig(scene, rig, 3)
        assert len(fruit_points_in_base(c1, rig.cam1, fruit)) == 0
        assert len(fruit_points_in_base(c2, rig.cam2, fruit)) > 0


class TestCaptureNoise:
    def test_same_seed_identical(self):
        scene = generate_scene(2, 5)
        rig = default_rig()
        a1, a2 = capture_rig(scene, rig, 7)
        b1, b2 = capture_rig(scene, rig, 7)
        assert a1 == b1 and a2 == b2

    def test_different_seed_differs(self):
        scene = generate_scene(2, 5)
        rig = default_rig()
        a1, a2 = capture_rig(scene, rig, 7)
        b1, b2 = capture_rig(scene, rig, 8)
        assert a1 != b1 and a2 != b2

    def test_noise_perturbs_along_ray(self):
        scene = generate_scene(2, 1)
        rig0 = noiseless_rig()
        cam = replace(rig0.cam1, depth_noise_sigma=0.002)
        clean, _ = capture_rig(scene, rig0, 11)
        noisy, _ = capture_rig(scene, replace(rig0, cam1=cam), 11)
        assert len(clean) == len(noisy)
        # direction unchanged, range changed
        r_clean = np.linalg.norm(clean.xyz, axis=1, keepdims=True)
        r_noisy = np.linalg.norm(noisy.xyz, axis=1, keepdims=True)
        assert np.allclose(clean.xyz / r_clean, noisy.xyz / r_noisy, atol=1e-9)
        deltas = (r_noisy - r_clean).ravel()
        assert np.abs(deltas).max() < 0.002 * 6
        assert np.std(deltas) == pytest.approx(0.002, rel=0.2)

    def test_dropout_monotone(self):
        scene = generate_scene(2, 5)
        rig = noiseless_rig()
        counts = []
        for rate in (0.0, 0.02, 0.3, 0.7, 1.0):
            cam = replace(rig.cam1, dropout_rate=rate)
            c1, _ = capture_rig(scene, replace(rig, cam1=cam), 13)
            counts.append(len(c1))
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 0


# bytes a cold paper9 capture may allocate at its peak, traced
COLD_CAPTURE_PEAK_BOUND = 5_600_000


class TestCaptureRig:
    def test_empty_scene(self):
        # a trough 10 m below the workspace, beyond both cameras' range
        trough = Aabb(Vec3(0.50, -0.60, -10.3), Vec3(0.70, 0.60, -10.0))
        scene = Scene(strawberries=(), rng_seed=1, trough=trough, occluders=(), surface_density=60000.0)
        c1, c2 = capture_rig(scene, default_rig(), 1)
        assert len(c1) == 0 and len(c2) == 0
        assert (c1.frame, c2.frame) == ("cam1", "cam2")

    def test_every_ripe_fruit_visible(self):
        rig = noiseless_rig()
        for seed in range(5):
            scene = generate_scene(100 + seed, 9, 1.0, 0.003)
            c1, c2 = capture_rig(scene, rig, seed)
            for fruit in scene.strawberries:
                n1 = len(fruit_points_in_base(c1, rig.cam1, fruit))
                n2 = len(fruit_points_in_base(c2, rig.cam2, fruit))
                assert n1 + n2 > 0

    def test_cam2_config_does_not_change_cam1_cloud(self):
        scene = generate_scene(2, 5)
        rig_a = default_rig()
        rig_b = CameraRig(
            cam1=rig_a.cam1,
            cam2=replace(rig_a.cam2, depth_noise_sigma=0.01),
        )
        a1, _ = capture_rig(scene, rig_a, 21)
        b1, _ = capture_rig(scene, rig_b, 21)
        assert a1 == b1

    def test_deterministic(self):
        scene = generate_scene(2, 5)
        rig = default_rig()
        a = capture_rig(scene, rig, 3)
        b = capture_rig(scene, rig, 3)
        assert a[0] == b[0] and a[1] == b[1]

    def test_frusta_overlap_on_workspace(self):
        rig = default_rig()
        probe = np.array([[0.42, 0.0, 0.40]])
        for cam in (rig.cam1, rig.cam2):
            assert camera._frustum(cam, cam.pose.inverse().apply_to(probe))[-1].all()

    def test_cold_capture_peak_memory(self):
        # a cold paper9 capture, as a harvest run makes it, peaks at 5.34 MB
        # (5,339,082 to 5,339,419 bytes) under tracemalloc with numpy 2.4.6 on
        # x86-64, 7.81 MB before the sampler drew into one buffer, the slab
        # test skipped what a box cannot block and the frustum arrays were
        # cut before the z-buffer; the bound allows 4.9 % more
        built = build_scenario(resolve_config_arg("paper9"), 0)
        capture_rig(built.scene, built.rig, 0, built.params)  # starts the sensing worker
        assert "views" not in vars(built)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            capture_rig(built.scene, built.rig, 1, built.params, views=built.views, reds=built.reds)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert "views" in vars(built) and "reds" in vars(built)
        assert peak <= COLD_CAPTURE_PEAK_BOUND, f"{peak:,} bytes"

    def test_samples_surfaces_once(self, sample_calls):
        capture_rig(generate_scene(2, 3), default_rig(), 1)
        assert len(sample_calls) == 1


def _paper9():
    return build_scene(resolve_config_arg("paper9"), 1)


def _without_fruit(scene, fruit_id):
    """The scene with one fruit taken out of its row."""
    return replace(scene, strawberries=tuple(s for s in scene.strawberries if s.id != fruit_id))


# cam1's eye is at (-0.05, 0, 0.45)
CULL_SCENES = {
    "paper9": _paper9,
    "detached": lambda: _without_fruit(_paper9(), 4),  # fruit 4 picked from the row
    "occluder": lambda: replace(_paper9(), occluders=(Aabb(Vec3(0.20, -0.05, 0.30), Vec3(0.22, 0.05, 0.55)),)),
    "flat_occluder": lambda: replace(_paper9(), occluders=(Aabb(Vec3(0.21, -0.05, 0.30), Vec3(0.21, 0.05, 0.55)),)),
    "eye_in_occluder": lambda: replace(_paper9(), occluders=(Aabb(Vec3(-0.10, -0.05, 0.40), Vec3(0.0, 0.05, 0.50)),)),
    # the occluder's top face lies in the plane z = 0.45 of cam1's eye: its
    # slab test must run, and it blocks that face's samples edge-on
    "eye_in_face_plane": lambda: replace(_paper9(), occluders=(Aabb(Vec3(0.10, -0.05, 0.30), Vec3(0.15, 0.05, 0.45)),)),
}


def each_zbuffer_path(monkeypatch):
    """Force `_view`'s z-buffer onto each way of finding the nearest sample
    per bin in turn, yielding its name: the scatter into dense tables, then
    the sort. A capture given no views renders them, so each path renders
    anew."""
    for path, fits in (("table", True), ("sort", False)):
        monkeypatch.setattr(camera, "_zbuffer_fits", lambda n_bins, n, fits=fits: fits)
        yield path


def _same_bytes(a, b):
    return a.frame == b.frame and a.xyz.tobytes() == b.xyz.tobytes() and a.rgb.tobytes() == b.rgb.tobytes()


def _lone_sample_scene(seed, occluded):
    """A scene of one thin box, 0.1 mm deep in x, whose two x faces get one
    sample each, or two when `occluded`; the samples on the far face are
    culled from cam1. When `occluded`, a box too small to be sampled hides
    one near-face sample from cam1, so cam1's frustum stage moves two
    samples and the reference only one."""
    box = Aabb(Vec3(0.40, -0.01, 0.39), Vec3(0.4001, 0.01, 0.41))
    scene = Scene((), seed, box, (), 5000.0 if occluded else 2500.0)
    if occluded:
        xyz = sample_surface_arrays(scene).xyz
        near = xyz[xyz[:, 0] == 0.40]
        assert len(near) == 2
        eye = default_rig().cam1.pose.translation.to_array()
        mid = (eye + near[0]) / 2
        scene = replace(scene, occluders=(Aabb(Vec3(*(mid - 1e-4)), Vec3(*(mid + 1e-4))),))
    assert len(sample_surface_arrays(scene).xyz) == (4 if occluded else 2)
    return scene


# boxes cam1 sees one behind another when it looks along +x from
# (-0.05, 0, 0.40): B and C stand partly behind A, and all three before
# the trough's front face
TIE_OCCLUDERS = (
    Aabb(Vec3(0.20, -0.03, 0.37), Vec3(0.22, 0.03, 0.43)),
    Aabb(Vec3(0.30, -0.06, 0.35), Vec3(0.33, 0.0, 0.45)),
    Aabb(Vec3(0.35, 0.0, 0.38), Vec3(0.36, 0.08, 0.46)),
)


# a box on top of the paper9 trough, and points on the edge the two boxes
# share: the occluder's front bottom edge, the trough's front top edge
EDGE_OCCLUDER = Aabb(Vec3(0.50, -0.05, 0.48), Vec3(0.52, 0.05, 0.55))
EDGE_SAMPLES = np.array([[0.50, y, 0.48] for y in (-0.04, -0.013, 0.0, 0.021, 0.05)])


def _with_edge_samples(scene):
    """The scene's samples, then each of EDGE_SAMPLES twice: once as a
    sample of the trough (box 0) and once as one of the occluder (box 1),
    each with the scene-wide face code the oracle gives it on that box."""
    batch = sample_surface_arrays(scene)
    grey = np.full((2 * len(EDGE_SAMPLES), 3), 150, dtype=np.uint8)
    faces = [oracles.face_codes(EDGE_SAMPLES, box.min.to_array(), box.max.to_array()) for box in scene.boxes]
    return SurfaceBatch(
        np.concatenate([batch.xyz, EDGE_SAMPLES, EDGE_SAMPLES]),
        np.concatenate([batch.rgb, grey]),
        np.concatenate([batch.face, *(np.where(f < 0, -1, 6 * b + f) for b, f in enumerate(faces))]).astype(np.int32),
    )


def _bounds(scene):
    """(lo, hi) of each box of the scene, as `_view` takes them."""
    return [(box.min.to_array(), box.max.to_array()) for box in scene.boxes]


class _Draws:
    """Stands in for the sampler's generator: `uniform` returns the queued
    draws in turn, then the low end of each range."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def uniform(self, low, high, size):
        return np.array(self.draws.pop(0), dtype=float) if self.draws else np.full(size, low)


class TestCullingEquivalence:
    """The culling renderer must match the plain renderer bit for bit."""

    @pytest.mark.parametrize("name", sorted(CULL_SCENES))
    def test_matches_reference_capture(self, monkeypatch, name):
        scene = CULL_SCENES[name]()
        rig = default_rig()
        for seed in (0, 7, 123456):
            s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
            ref1 = reference_capture(scene, rig.cam1, s1)
            ref2 = reference_capture(scene, rig.cam2, s2)
            assert len(ref1) + len(ref2) > 0
            for _ in each_zbuffer_path(monkeypatch):
                c1, c2 = capture_rig(scene, rig, seed)
                assert _same_bytes(c1, ref1) and _same_bytes(c2, ref2)

    @pytest.mark.parametrize("name", sorted(CULL_SCENES))
    def test_culled_samples_are_blocked(self, name):
        scene = replace(CULL_SCENES[name](), surface_density=6000.0)
        batch = sample_surface_arrays(scene)
        boxes = [scene.trough, *scene.occluders]
        for cam in (default_rig().cam1, default_rig().cam2):
            eye = cam.pose.translation.to_array()
            culled = camera._face_roles(_bounds(scene), eye)[batch.face] == camera.CULLED
            assert culled.sum() > len(batch.xyz) // 4
            for p in batch.xyz[culled]:
                # the segment stopped just short of the sample still meets a box
                assert any(
                    ray_hits_box(eye, p - eye, 1.0 - 1e-7, b.min.to_array(), b.max.to_array())
                    for b in boxes
                )

    def test_sample_near_a_face_edge_is_not_culled(self):
        lo, hi = np.array([0.5, -0.6, 0.18]), np.array([0.7, 0.6, 0.48])
        eye = np.array([0.0, 0.0, 0.6])
        # both on the far x face, which looks away from the eye; the first
        # lies 1e-11 below the top edge, so its ray only grazes the box
        pts = np.array([[0.7, 0.0, 0.48 - 1e-11], [0.7, 0.0, 0.40]])
        blocked = [ray_hits_box(eye, p - eye, 1.0 - 1e-9, lo, hi) for p in pts]
        assert blocked == [False, True]
        # at this density the x faces get two samples each and the far one
        # is drawn second, y before z; every other face gets samples on edges
        box = Aabb(Vec3(*lo), Vec3(*hi))
        drawn, face = np.empty((6, 3)), np.empty(6, dtype=np.int32)
        _box_points(_Draws([0.0, 0.0], [0.3, 0.3], pts[:, 1], pts[:, 2]), box, 2 / 0.36, drawn, face, 6)
        assert drawn[2:4].tolist() == pts.tolist()
        assert oracles.face_codes(drawn, lo, hi).tolist() == [0, 0, -1, 1, -1, -1]
        assert face.tolist() == [6, 6, -1, 7, -1, -1]
        # drawn as box 1, after a box of no size at the eye, which holds the
        # eye and so culls none of its own faces
        culled = camera._face_roles([(eye, eye), (lo, hi)], eye)[face[2:4]] == camera.CULLED
        assert culled.tolist() == blocked

    def test_flat_occluder_samples_are_not_culled(self):
        scene = CULL_SCENES["flat_occluder"]()
        batch = sample_surface_arrays(scene)
        occ = batch.face[surface_rows(scene, batch)["box"][1]]
        for cam in (default_rig().cam1, default_rig().cam2):
            roles = camera._face_roles(_bounds(scene), cam.pose.translation.to_array())
            assert len(occ) and (roles[occ] == camera.TESTED).all()


    @pytest.mark.parametrize("occluded", [False, True])
    @pytest.mark.parametrize("target", [[0.45, 0.0, 0.40], [0.45, 0.013, 0.417], [0.45, -0.021, 0.39]])
    def test_view_left_with_one_sample(self, monkeypatch, occluded, target):
        # turned cameras give rotations without zero entries
        for scene_seed in range(6):
            scene = _lone_sample_scene(scene_seed, occluded)
            face = sample_surface_arrays(scene).face
            for noise in ({"depth_noise_sigma": 0.0, "dropout_rate": 0.0}, {}):
                cam1 = camera.make_camera("cam1", **{**camera.DEFAULT_RIG["cam1"], "target": target, **noise})
                rig = CameraRig(cam1, camera.make_camera("cam2", **{**camera.DEFAULT_RIG["cam2"], **noise}))
                for seed in (0, 7):
                    s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
                    refs = reference_capture(scene, rig.cam1, s1), reference_capture(scene, rig.cam2, s2)
                    for _ in each_zbuffer_path(monkeypatch):
                        c1, c2 = capture_rig(scene, rig, seed)
                        assert _same_bytes(c1, refs[0]) and _same_bytes(c2, refs[1])
                        assert len(c1) <= 1 if noise else len(c1) == 1
                if not noise:
                    roles = camera._face_roles(_bounds(scene), cam1.pose.translation.to_array())
                    assert (roles[face] != camera.CULLED).sum() == (2 if occluded else 1)

    def test_z_ties_go_to_the_earliest_sample(self, monkeypatch):
        # cam1 looks along +x, so each sample of a face x = const has the same
        # camera-frame z, p_x + 0.05: every face that looks at the camera
        # ties in each bin it fills, several samples a bin at 2 degrees
        scene = replace(_paper9(), occluders=TIE_OCCLUDERS)
        along_x = {"eye": [-0.05, 0.0, 0.40], "target": [0.45, 0.0, 0.40], "bin_res_deg": 2.0}
        rig = CameraRig(camera.make_camera("cam1", **{**camera.DEFAULT_RIG["cam1"], **along_x}), default_rig().cam2)
        s1, s2 = (int(s) for s in np.random.SeedSequence(3).generate_state(2, np.uint64))
        refs = reference_capture(scene, rig.cam1, s1), reference_capture(scene, rig.cam2, s2)
        handed = []
        nearest = camera._nearest_per_bin

        def recording(bins, z, n_bins):
            handed.append((bins, z))
            return nearest(bins, z, n_bins)

        monkeypatch.setattr(camera, "_nearest_per_bin", recording)
        for _ in each_zbuffer_path(monkeypatch):
            handed.clear()
            assert all(map(_same_bytes, capture_rig(scene, rig, 3), refs))
            bins, z = handed[0]
            least = np.full(int(bins.max()) + 1, np.inf)
            np.minimum.at(least, bins, z)
            ties = np.bincount(bins.compress(z == least.take(bins)))
            assert (ties >= 2).sum() > 500 and (ties >= 4).sum() > 400

    def test_sample_on_an_edge_shared_by_two_boxes(self, monkeypatch):
        scene = replace(_paper9(), occluders=(EDGE_OCCLUDER,))
        monkeypatch.setattr(camera, "sample_surface_arrays", _with_edge_samples)
        monkeypatch.setattr(oracles, "sample_surface_arrays", _with_edge_samples)

        batch = _with_edge_samples(scene)
        edge = slice(len(batch.xyz) - 2 * len(EDGE_SAMPLES), None)
        for cam in (default_rig().cam1, default_rig().cam2):
            eye = cam.pose.translation.to_array()
            # on an edge of both boxes: tested, and blocked by neither
            assert (batch.face[edge] == -1).all()
            assert (camera._face_roles(_bounds(scene), eye)[batch.face[edge]] == camera.TESTED).all()
            for lo, hi in _bounds(scene):
                assert not camera._occluded_by_box(eye, batch.xyz[edge], lo, hi).any()

        for rig in (noiseless_rig(), default_rig()):
            for seed in (0, 7, 123456):
                s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
                refs = reference_capture(scene, rig.cam1, s1), reference_capture(scene, rig.cam2, s2)
                for _ in each_zbuffer_path(monkeypatch):
                    assert all(map(_same_bytes, capture_rig(scene, rig, seed), refs))
        # some edge sample wins its bin in cam1's noiseless view
        q = rig.cam1.pose.inverse().apply_to(EDGE_SAMPLES)
        view = camera.rig_views(scene, rig)[0][0]
        assert (view[:, None, :] == q[None]).all(axis=2).any()


class TestFaceRoles:
    """A camera's face table over random thick, thin and flat boxes, seen
    from outside a box, from inside it and from the plane of one of its
    faces: a culled face's samples are blocked by their own box, a box
    blocks none of the samples its pass skips, and a face whose plane
    holds the eye stays tested, as does every face of a box that holds it."""

    def test_roles_on_random_boxes(self):
        rng = np.random.default_rng(47)
        culled_n = skipped_n = in_plane_blocked = 0
        for seed in range(120):
            scale = 10 ** rng.uniform(-3.0, -1.0)
            boxes = [_random_box(rng, scale, rng.choice(["box", "thin", "flat"])) for _ in range(1 + seed % 3)]
            scene = Scene((), seed, boxes[0], tuple(boxes[1:]), 30 / scale**2)
            batch = sample_surface_arrays(scene)
            bounds = _bounds(scene)
            b = int(rng.integers(len(bounds)))
            lo, hi = bounds[b]
            axis, side = int(rng.integers(3)), int(rng.integers(2))
            in_plane = rng.uniform(lo - 2 * scale, hi + 2 * scale)
            in_plane[axis] = (lo, hi)[side][axis]
            eyes = (rng.uniform(lo - 5 * scale, hi + 5 * scale), lo + rng.random(3) * (hi - lo), in_plane)
            for eye in eyes:
                roles = camera._face_roles(bounds, eye)
                assert roles[-1] == camera.TESTED
                role = roles[batch.face]
                culled = np.flatnonzero(role == camera.CULLED)
                culled_n += len(culled)
                for p, code in zip(batch.xyz[culled], batch.face[culled]):
                    c_lo, c_hi = bounds[code // 6]
                    assert ray_hits_box(eye, p - eye, 1.0 - 1e-9, c_lo, c_hi)
                for c, (c_lo, c_hi) in enumerate(bounds):
                    skipped = batch.xyz[role == c]
                    skipped_n += len(skipped)
                    assert not camera._occluded_by_box(eye, skipped, c_lo, c_hi).any()
                    if ((c_lo <= eye) & (eye <= c_hi)).all():
                        assert (roles[6 * c:6 * c + 6] == camera.TESTED).all()
                    for a in range(3):
                        for s, plane in enumerate((c_lo[a], c_hi[a])):
                            if eye[a] == plane:
                                assert roles[6 * c + 2 * a + s] == camera.TESTED
            # the in-plane face's own samples, which its box blocks edge-on
            own = batch.face == 6 * b + 2 * axis + side
            in_plane_blocked += int(camera._occluded_by_box(in_plane, batch.xyz[own], lo, hi).sum())
        assert culled_n > 10_000 and skipped_n > 10_000 and in_plane_blocked > 1000


def _cam1_at(rig, eye, target):
    cam1 = camera.make_camera("cam1", **{**camera.DEFAULT_RIG["cam1"], "eye": eye, "target": target})
    return CameraRig(cam1=cam1, cam2=rig.cam2)


# each case changes one thing a view depends on
VIEW_CHANGES = {
    "detached_fruit": lambda scene, rig: (_without_fruit(scene, 4), rig),
    # eye and target shifted alike: the same rotation, a new translation
    "moved_eye": lambda scene, rig: (scene, _cam1_at(rig, [-0.05, 0.01, 0.45], [0.45, 0.01, 0.40])),
    "turned_camera": lambda scene, rig: (scene, _cam1_at(rig, [-0.05, 0.0, 0.45], [0.45, 0.02, 0.40])),
    "bin_res": lambda scene, rig: (scene, replace(rig, cam2=replace(rig.cam2, bin_res=rig.cam2.bin_res * 1.5))),
    "h_fov": lambda scene, rig: (scene, replace(rig, cam1=replace(rig.cam1, h_fov=rig.cam1.h_fov / 2))),
    "v_fov": lambda scene, rig: (scene, replace(rig, cam1=replace(rig.cam1, v_fov=rig.cam1.v_fov / 2))),
    "min_range": lambda scene, rig: (scene, replace(rig, cam2=replace(rig.cam2, min_range=0.4))),
    "max_range": lambda scene, rig: (scene, replace(rig, cam2=replace(rig.cam2, max_range=0.45))),
    "surface_density": lambda scene, rig: (replace(scene, surface_density=scene.surface_density / 2), rig),
    "occluder": lambda scene, rig: (replace(scene, occluders=CULL_SCENES["occluder"]().occluders), rig),
}


def _paper9_built():
    """The paper9 build of run seed 1, whose scene is `_paper9()`."""
    return build_scenario(resolve_config_arg("paper9"), 1)


class TestViewCache:
    """A `BuiltScenario` keeps the views of its scene and rig; a sweep
    point carries them where only depth noise and dropout change, and any
    other build views its scene anew."""

    def test_same_scene_is_not_sampled_again(self, sample_calls):
        built = _paper9_built()
        first = capture_rig(built.scene, built.rig, 1, views=built.views)
        assert len(sample_calls) == 1
        again = capture_rig(built.scene, built.rig, 1, views=built.views)
        assert len(sample_calls) == 1
        assert all(_same_bytes(a, b) for a, b in zip(first, again))
        assert all(_same_bytes(a, b) for a, b in zip(first, capture_rig(_paper9(), default_rig(), 1)))

    @pytest.mark.parametrize("sigma, rate", [(0.0, 0.0), (0.004, 0.1), (0.002, 0.5)])
    def test_noise_and_dropout_reuse_the_view(self, sample_calls, sigma, rate):
        cfg = resolve_config_arg("paper9")
        built = build_scenario(cfg, 1)
        capture_rig(built.scene, built.rig, 1, views=built.views)
        point = copy.deepcopy(cfg)
        for cam in ("cam1", "cam2"):
            point["rig"][cam].update(depth_noise_sigma=sigma, dropout_rate=rate)
        noisy = sweep_point(built, point, "noise")
        rig = noisy.rig
        assert [(cam.depth_noise_sigma, cam.dropout_rate) for cam in (rig.cam1, rig.cam2)] == [(sigma, rate)] * 2
        seed = 5
        c1, c2 = capture_rig(noisy.scene, rig, seed, views=noisy.views)
        assert len(sample_calls) == 1
        s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
        assert _same_bytes(c1, reference_capture(noisy.scene, rig.cam1, s1))
        assert _same_bytes(c2, reference_capture(noisy.scene, rig.cam2, s2))

    @pytest.mark.parametrize("change", sorted(VIEW_CHANGES))
    def test_changed_view_input_misses(self, sample_calls, change):
        built = _paper9_built()
        capture_rig(built.scene, built.rig, 1, views=built.views)
        scene, rig = VIEW_CHANGES[change](built.scene, built.rig)
        changed = replace(built, scene=scene, rig=rig)
        warm = capture_rig(scene, rig, 2, views=changed.views)
        assert len(sample_calls) == 2
        cold = capture_rig(scene, rig, 2)
        assert all(_same_bytes(a, b) for a, b in zip(warm, cold))

    def test_key_is_every_field_but_noise_and_dropout(self):
        # a view reads no sensor field: cameras that differ only in depth
        # noise and dropout view the scene alike, bit for bit
        scene = _paper9()
        views = camera.rig_views(scene, default_rig())
        for a, b in zip(views, camera.rig_views(scene, noisy_rig(0.01, 0.5))):
            assert [x.tobytes() for x in a] == [y.tobytes() for y in b]

    def test_cached_arrays_are_read_only(self, sample_calls):
        built = replace(_paper9_built(), scene=generate_scene(2, 3))
        views = built.views
        assert len(views) == 2 and len(sample_calls) == 1
        for q, rgb, ranges in views:
            assert len(q) and not q.flags.writeable and not rgb.flags.writeable
            assert not ranges.flags.writeable
            assert ranges.tobytes() == np.sqrt(sq_lengths(q)).tobytes()
            with pytest.raises(ValueError):
                q[0, 0] = 1.0
            with pytest.raises(ValueError):
                ranges[0] = 1.0


class TestSensor:
    """`_sense` draws and rescales in place, with the bits of the
    out-of-place formula in `oracles.reference_sense`."""

    @pytest.mark.parametrize("sigma, rate", [(0.002, 0.02), (0.0, 0.02), (0.002, 0.0), (0.002, 1.0), (0.0, 0.0)])
    def test_matches_reference_sense(self, sigma, rate):
        rig = noisy_rig(sigma, rate)
        views = camera.rig_views(_paper9(), rig)
        for cam, (q, rgb, ranges) in zip((rig.cam1, rig.cam2), views):
            for seed in range(10):
                cloud = camera._sense(q, rgb, ranges, cam, seed)
                assert _same_bytes(cloud, oracles.reference_sense(q, rgb, ranges, cam, seed))
                if rate in (0.0, 1.0):
                    assert len(cloud) == (len(q) if rate == 0.0 else 0)


def _localized(c1, c2, rig, params):
    """What `localize` makes of two clouds: its boxes as bytes, its counts,
    and the bytes of the base-frame points it hands to `cluster_indices`."""
    handed = []

    def recording(xyz, *args):
        handed.append(xyz.tobytes())
        return cluster_indices(xyz, *args)

    counts = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localization, "cluster_indices", recording)
        boxes = localize(c1, c2, rig.cam1.pose, rig.cam2.pose, params, counts)
    corners = [[*b.box.min.to_array(), *b.box.max.to_array(), b.index, b.point_count] for b in boxes]
    return np.array(corners, dtype=float).tobytes(), counts, handed


def _assert_red_as_whole(whole, red, rig, params):
    """Each red cloud holds, bit for bit, the red rows of its whole cloud
    and counts that cloud's rows, and both pairs localize alike."""
    for w, r in zip(whole, red):
        assert isinstance(r, RedCloud) and r.n_whole == len(w)
        assert _same_bytes(r, threshold_red(w, params))
    assert _localized(*red, rig, params) == _localized(*whole, rig, params)


def _sense_both(views, rig, seed, params=None):
    """Both views sensed as `capture_rig` senses them: whole, or given
    `params`, each as the red rows for its colour thresholds."""
    s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
    reds = [None if params is None else (localization.red_rows(v[1], params), (params.r_th, params.g_th, params.b_th))
            for v in views]
    return tuple(camera._sense(*v, cam, s, r) for v, cam, s, r in zip(views, (rig.cam1, rig.cam2), (s1, s2), reds))


def _recoloured(views, red_at):
    """The views with every row grey but the rows `red_at(n)` of a view of
    n rows, which are red."""
    out = []
    for q, rgb, ranges in views:
        rgb = np.full_like(rgb, 90)
        rgb[red_at(len(q))] = (200, 30, 30)
        out.append((q, rgb, ranges))
    return out


class TestRedCapture:
    """Given localization params, `capture_rig` senses only the red rows
    of each cloud; they localize as the whole clouds do, byte for byte."""

    @pytest.mark.parametrize("seed", range(10))
    def test_paper9(self, monkeypatch, seed):
        built = build_scenario(resolve_config_arg("paper9"), seed)
        s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
        refs = reference_capture(built.scene, built.rig.cam1, s1), reference_capture(built.scene, built.rig.cam2, s2)
        for _ in each_zbuffer_path(monkeypatch):
            whole = capture_rig(built.scene, built.rig, seed)
            assert all(map(_same_bytes, whole, refs))
            red = capture_rig(built.scene, built.rig, seed, built.params)
            assert 0 < sum(map(len, red)) < sum(map(len, whole))
            _assert_red_as_whole(whole, red, built.rig, built.params)

    @pytest.mark.parametrize("name, axis, key", [("noise", "noise", "noise_sigmas"), ("bench", None, None)])
    def test_packaged_scenario(self, monkeypatch, name, axis, key):
        cfg = resolve_config_arg(name)
        points = [apply_sweep_value(cfg, axis, v) for v in cfg["sweep"][key]] if axis else [cfg]
        for point in points:
            seed = point["seeds"][0]
            built = build_scenario(point, seed)
            for _ in each_zbuffer_path(monkeypatch):
                whole = capture_rig(built.scene, built.rig, seed)
                red = capture_rig(built.scene, built.rig, seed, built.params)
                _assert_red_as_whole(whole, red, built.rig, built.params)

    @pytest.mark.parametrize("sigma, rate", [(0.002, 0.0), (0.002, 1.0), (0.0, 0.02), (0.0, 0.0)])
    def test_dropout_and_noise_limits(self, monkeypatch, sigma, rate):
        scene, rig = _paper9(), noisy_rig(sigma, rate)
        for seed in range(3):
            for _ in each_zbuffer_path(monkeypatch):
                whole = capture_rig(scene, rig, seed)
                red = capture_rig(scene, rig, seed, LocalizationParams())
                _assert_red_as_whole(whole, red, rig, LocalizationParams())
                if rate == 1.0:
                    assert [len(c) for c in whole + red] == [0] * 4

    def test_view_with_no_red_row(self):
        rig = default_rig()
        views = _recoloured(camera.rig_views(_paper9(), rig), lambda n: [])
        whole, red = _sense_both(views, rig, 4), _sense_both(views, rig, 4, LocalizationParams())
        assert [len(c) for c in red] == [0, 0] and all(len(c) > 0 for c in whole)
        _assert_red_as_whole(whole, red, rig, LocalizationParams())

    def test_red_last_row(self):
        # the last row draws the view's last normal
        rig, p = default_rig(), LocalizationParams(s_min=1)
        views = _recoloured(camera.rig_views(_paper9(), rig), lambda n: [n // 3, n - 1])
        last_sensed = 0
        for seed in range(5):
            whole, red = _sense_both(views, rig, seed), _sense_both(views, rig, seed, p)
            _assert_red_as_whole(whole, red, rig, p)
            last_sensed += sum(len(c) == 2 for c in red)
        assert last_sensed > 0

    def test_lone_red_row_moves_as_in_whole_cloud(self):
        # numpy moves a one-row array by another BLAS routine than a whole
        # cloud, and the two can round apart; a red cloud of one row is a
        # lone row of its whole cloud and must move as one. With numpy
        # 2.4.6 on x86-64, about one red row in six rounds apart under this
        # cam1, which looks across the row rather than along y = 0
        rig, p = _cam1_at(default_rig(), (-0.05, 0.13, 0.47), (0.45, -0.02, 0.41)), LocalizationParams(s_min=1)
        views = camera.rig_views(_paper9(), rig)
        for row in localization.red_rows(views[0][1], p)[::20].tolist():
            lone = _recoloured(views, lambda n: [row])
            lone[1] = views[1]
            whole, red = _sense_both(lone, rig, 6), _sense_both(lone, rig, 6, p)
            _assert_red_as_whole(whole, red, rig, p)

    def test_thresholds_switch_on_a_kept_view(self):
        # a build keeps its views' red rows for its own thresholds; a build
        # of the same views with other thresholds finds its own, and going
        # back to A's finds A's again
        built = _paper9_built()
        scene, rig = built.scene, built.rig
        a, b = LocalizationParams(), LocalizationParams(r_th=200, g_th=40)
        whole = capture_rig(scene, rig, 2)
        sizes = []
        for p in (a, b, a):
            kept = replace(built, params=p)
            vars(kept)["views"] = built.views
            red = capture_rig(scene, rig, 2, p, views=kept.views, reds=kept.reds)
            rgb_th = (p.r_th, p.g_th, p.b_th)
            assert [rows[1] for rows in kept.reds] == [rgb_th, rgb_th]
            for w, r in zip(whole, red):
                assert r.rgb_th == rgb_th and r.n_whole == len(w)
                assert _same_bytes(r, threshold_red(w, p))
            sizes.append([len(r) for r in red])
            assert all(not rows.flags.writeable for rows, _ in kept.reds)
        assert sizes[0] == sizes[2] and all(n_b < n_a for n_a, n_b in zip(sizes[0], sizes[1]))

    def test_other_thresholds_are_refused(self):
        rig = default_rig()
        red = capture_rig(_paper9(), rig, 1, LocalizationParams())
        with pytest.raises(ValueError, match="thresholds"):
            localize(*red, rig.cam1.pose, rig.cam2.pose, LocalizationParams(r_th=150))


def _sweep_files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.name in ("manifest.json", "sweep.csv")}


class TestSensingWorker:
    """cam2 is sensed on a worker thread; it must not survive a fork, and
    an error on either camera must reach the caller."""

    def test_worker_sweep_after_a_capture(self, tmp_path):
        # a capture starts the worker, then the sweep forks two processes
        script = (
            "import sys\n"
            "from berrypick import camera, cli\n"
            "from berrypick.scene import generate_scene\n"
            "camera.capture_rig(generate_scene(2, 3), camera.default_rig(), 1)\n"
            "assert camera._sensor is not None\n"
            "sys.exit(cli.main(['sweep', '--config', 'noise', '--axis', 'noise', '--out', sys.argv[1]]))\n"
        )
        src = str(Path(camera.__file__).resolve().parents[1])
        for threads in ("2", "1"):
            env = {**os.environ, "PYTHONPATH": src, "BERRYPICK_THREADS": threads}
            out = str(tmp_path / ("workers" if threads == "2" else "serial"))
            # a session of its own, so that a hung sweep's workers are killed with it
            with subprocess.Popen([sys.executable, "-c", script, out], env=env, stderr=subprocess.PIPE,
                                  stdout=subprocess.DEVNULL, text=True, start_new_session=True) as proc:
                try:
                    _, err = proc.communicate(timeout=60)
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    raise
            assert proc.returncode == 0, err
        workers, serial = _sweep_files(tmp_path / "workers"), _sweep_files(tmp_path / "serial")
        assert len(serial) == 31 and workers == serial

    @pytest.mark.parametrize("failing", ["cam1", "cam2"])
    def test_error_reaches_the_caller(self, monkeypatch, failing):
        scene, rig = _paper9(), default_rig()
        sensed = []

        def sense(q, rgb, ranges, cam, seed, red=None):
            if cam.frame == failing:
                raise RuntimeError(f"{cam.frame} failed")
            sensed.append(cam.frame)
            return camera.ColoredPointCloud(cam.frame, q, rgb)

        with monkeypatch.context() as mp:
            mp.setattr(camera, "_sense", sense)
            with pytest.raises(RuntimeError, match=f"{failing} failed"):
                capture_rig(scene, rig, 3)
        # the other camera was sensed before the error came back
        assert sensed == [{"cam1": "cam2", "cam2": "cam1"}[failing]]
        s1, s2 = (int(s) for s in np.random.SeedSequence(3).generate_state(2, np.uint64))
        c1, c2 = capture_rig(scene, rig, 3)
        assert _same_bytes(c1, reference_capture(scene, rig.cam1, s1))
        assert _same_bytes(c2, reference_capture(scene, rig.cam2, s2))

    def test_fork_joins_the_worker(self):
        capture_rig(generate_scene(2, 3), default_rig(), 1)
        assert camera._sensor is not None
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        assert camera._sensor is None
        assert not any(t.name.startswith("berrypick-sense") for t in threading.enumerate())
