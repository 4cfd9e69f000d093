import os
import signal
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from berrypick import camera
from berrypick.camera import CameraModel, CameraRig, capture_rig, default_rig, look_at_pose
from berrypick.cli import resolve_config_arg
from berrypick.config import build_scene
from berrypick.geometry import Aabb, Vec3, sq_lengths, transform_cloud
from berrypick.scene import (
    KIND_FRUIT, KIND_OCCLUDER, KIND_TROUGH, Scene, SurfaceBatch, generate_scene, detach_fruit, sample_surface_arrays,
    _box_points,
)

import oracles
from oracles import ray_hits_box, point_to_segment_distance, reference_capture


def noiseless_rig():
    return default_rig(depth_noise_sigma=0.0, dropout_rate=0.0)


def fruit_points_in_base(cloud, cam, fruit, slack=1e-6):
    base = transform_cloud(cam.pose, cloud, "base")
    d = np.linalg.norm(base.xyz - fruit.center.to_array(), axis=1)
    return base.xyz[d <= fruit.radius + slack]


class TestCameraModel:
    def test_validation(self):
        pose = look_at_pose(Vec3(0, 0, 0.4), Vec3(0.4, 0, 0.4), "cam1")
        with pytest.raises(ValueError):
            CameraModel(pose=pose, h_fov=0.0)
        with pytest.raises(ValueError):
            CameraModel(pose=pose, min_range=1.0, max_range=0.5)
        with pytest.raises(ValueError):
            CameraModel(pose=pose, dropout_rate=1.5)
        with pytest.raises(ValueError):
            CameraModel(pose=pose, depth_noise_sigma=-0.1)

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
        batch = sample_surface_arrays(scene, 2000.0)
        fruit_samples = batch.xyz[batch.kind == KIND_FRUIT]
        assert len(fruit_samples)
        for s in fruit_samples:
            assert ray_hits_box(eye1, s - eye1, 1.0, lo, hi)
            assert not ray_hits_box(eye2, s - eye2, 1.0, lo, hi)

        c1, c2 = capture_rig(scene, rig, 3)
        assert len(fruit_points_in_base(c1, rig.cam1, fruit)) == 0
        assert len(fruit_points_in_base(c2, rig.cam2, fruit)) > 0

    def test_detached_fruit_excluded(self):
        scene = generate_scene(2, 3)
        rig = noiseless_rig()
        target = scene.strawberries[1]
        before, _ = capture_rig(scene, rig, 9)
        after, _ = capture_rig(detach_fruit(scene, 1), rig, 9)
        assert len(fruit_points_in_base(before, rig.cam1, target)) > 0
        assert len(fruit_points_in_base(after, rig.cam1, target)) == 0


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
        cam = CameraModel(
            pose=rig0.cam1.pose, frame="cam1", depth_noise_sigma=0.002, dropout_rate=0.0
        )
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
            cam = CameraModel(pose=rig.cam1.pose, frame="cam1", depth_noise_sigma=0.0, dropout_rate=rate)
            c1, _ = capture_rig(scene, replace(rig, cam1=cam), 13)
            counts.append(len(c1))
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 0


class TestCaptureRig:
    def test_empty_scene(self):
        from berrypick.scene import Scene

        scene = Scene(strawberries=(), rng_seed=1, trough=None, occluders=(), surface_density=60000.0)
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
            cam2=CameraModel(pose=rig_a.cam2.pose, frame="cam2", depth_noise_sigma=0.01),
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
        assert camera._frustum(rig.cam1, probe)[-1].all()
        assert camera._frustum(rig.cam2, probe)[-1].all()

    def test_samples_surfaces_once(self, sample_calls):
        capture_rig(generate_scene(2, 3), default_rig(), 1)
        assert len(sample_calls) == 1


def _paper9():
    return build_scene(resolve_config_arg("paper9"), 1)


# cam1's eye is at (-0.05, 0, 0.45)
CULL_SCENES = {
    "paper9": _paper9,
    "detached": lambda: detach_fruit(_paper9(), 4),
    "no_trough": lambda: replace(_paper9(), trough=None),
    "occluder": lambda: replace(_paper9(), occluders=(Aabb(Vec3(0.20, -0.05, 0.30), Vec3(0.22, 0.05, 0.55)),)),
    "flat_occluder": lambda: replace(_paper9(), occluders=(Aabb(Vec3(0.21, -0.05, 0.30), Vec3(0.21, 0.05, 0.55)),)),
    "eye_in_occluder": lambda: replace(_paper9(), occluders=(Aabb(Vec3(-0.10, -0.05, 0.40), Vec3(0.0, 0.05, 0.50)),)),
}


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
        xyz = sample_surface_arrays(scene, scene.surface_density).xyz
        near = xyz[xyz[:, 0] == 0.40]
        assert len(near) == 2
        eye = default_rig().cam1.pose.translation.to_array()
        mid = (eye + near[0]) / 2
        scene = replace(scene, occluders=(Aabb(Vec3(*(mid - 1e-4)), Vec3(*(mid + 1e-4))),))
    assert len(sample_surface_arrays(scene, scene.surface_density).xyz) == (4 if occluded else 2)
    return scene


# a box on top of the paper9 trough, and points on the edge the two boxes
# share: the occluder's front bottom edge, the trough's front top edge
EDGE_OCCLUDER = Aabb(Vec3(0.50, -0.05, 0.48), Vec3(0.52, 0.05, 0.55))
EDGE_SAMPLES = np.array([[0.50, y, 0.48] for y in (-0.04, -0.013, 0.0, 0.021, 0.05)])


def _with_edge_samples(scene, density):
    """The scene's samples, then each of EDGE_SAMPLES twice: once as a
    sample of the trough (box 0) and once as one of the occluder (box 1),
    each with the face code the oracle gives it on that box."""
    batch = sample_surface_arrays(scene, density)
    n = len(EDGE_SAMPLES)
    grey = np.full((2 * n, 3), 150, dtype=np.uint8)
    faces = [oracles.face_codes(EDGE_SAMPLES, box.min.to_array(), box.max.to_array()) for box in scene.boxes]
    return SurfaceBatch(
        np.concatenate([batch.xyz, EDGE_SAMPLES, EDGE_SAMPLES]),
        np.concatenate([batch.rgb, grey]),
        np.concatenate([batch.kind, np.full(n, KIND_TROUGH, np.int8), np.full(n, KIND_OCCLUDER, np.int8)]),
        np.concatenate([batch.owner, np.zeros(n, np.int32), np.ones(n, np.int32)]),
        np.concatenate([batch.face, *faces]).astype(np.int8),
    )


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
    def test_matches_reference_capture(self, name):
        scene = CULL_SCENES[name]()
        rig = default_rig()
        for seed in (0, 7, 123456):
            s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
            ref1 = reference_capture(scene, rig.cam1, s1)
            ref2 = reference_capture(scene, rig.cam2, s2)
            assert len(ref1) + len(ref2) > 0
            c1, c2 = capture_rig(scene, rig, seed)
            assert _same_bytes(c1, ref1) and _same_bytes(c2, ref2)

    @pytest.mark.parametrize("name", sorted(CULL_SCENES))
    def test_culled_samples_are_blocked(self, name):
        scene = replace(CULL_SCENES[name](), surface_density=6000.0)
        surf = camera._surfaces(scene)
        boxes = [scene.trough] if scene.trough is not None else []
        boxes += list(scene.occluders)
        for cam in (default_rig().cam1, default_rig().cam2):
            eye = cam.pose.translation.to_array()
            culled = camera._back_faces(surf.bounds, eye)[surf.face]
            if scene.trough is not None:
                assert culled.sum() > len(surf.xyz) // 4
            for p in surf.xyz[culled]:
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
        drawn, face = _box_points(_Draws([0.0, 0.0], [0.3, 0.3], pts[:, 1], pts[:, 2]), box, 2 / 0.36)
        assert drawn[2:4].tolist() == pts.tolist()
        assert face.tolist() == oracles.face_codes(drawn, lo, hi).tolist() == [0, 0, -1, 1, -1, -1]
        culled = camera._back_faces([(lo, hi)], eye)[face[2:4]]
        assert culled.tolist() == blocked

    def test_flat_occluder_samples_are_not_culled(self):
        scene = CULL_SCENES["flat_occluder"]()
        occ = sample_surface_arrays(scene, scene.surface_density).kind == KIND_OCCLUDER
        surf = camera._surfaces(scene)
        for cam in (default_rig().cam1, default_rig().cam2):
            culled = camera._back_faces(surf.bounds, cam.pose.translation.to_array())[surf.face]
            assert occ.any() and not culled[occ].any()


    @pytest.mark.parametrize("occluded", [False, True])
    @pytest.mark.parametrize("target", [[0.45, 0.0, 0.40], [0.45, 0.013, 0.417], [0.45, -0.021, 0.39]])
    def test_view_left_with_one_sample(self, monkeypatch, occluded, target):
        # turned cameras give rotations without zero entries
        for scene_seed in range(6):
            scene = _lone_sample_scene(scene_seed, occluded)
            for noise in ({"depth_noise_sigma": 0.0, "dropout_rate": 0.0}, {}):
                monkeypatch.setattr(camera, "_last_views", None)
                cam1 = camera.make_camera("cam1", **{**camera.DEFAULT_RIG["cam1"], "target": target, **noise})
                rig = CameraRig(cam1, camera.make_camera("cam2", **{**camera.DEFAULT_RIG["cam2"], **noise}))
                for seed in (0, 7):
                    s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
                    c1, c2 = capture_rig(scene, rig, seed)
                    assert _same_bytes(c1, reference_capture(scene, rig.cam1, s1))
                    assert _same_bytes(c2, reference_capture(scene, rig.cam2, s2))
                    if noise:
                        assert len(c1) <= 1
                    else:
                        assert len(c1) == 1
                        surf = camera._surfaces(scene)
                        moved = ~camera._back_faces(surf.bounds, cam1.pose.translation.to_array())[surf.face]
                        assert moved.sum() == (2 if occluded else 1)

    def test_sample_on_an_edge_shared_by_two_boxes(self, monkeypatch):
        scene = replace(_paper9(), occluders=(EDGE_OCCLUDER,))
        monkeypatch.setattr(camera, "sample_surface_arrays", _with_edge_samples)
        monkeypatch.setattr(oracles, "sample_surface_arrays", _with_edge_samples)
        monkeypatch.setattr(camera, "_last_views", None)

        surf = camera._surfaces(scene)
        for cam in (default_rig().cam1, default_rig().cam2):
            eye = cam.pose.translation.to_array()
            edge = slice(len(surf.xyz) - 2 * len(EDGE_SAMPLES), None)
            # on an edge of both boxes: neither culled nor blocked by either
            assert (surf.face[edge] == -1).all()
            assert not camera._back_faces(surf.bounds, eye)[surf.face[edge]].any()
            for lo, hi in surf.bounds:
                assert not camera._occluded_by_box(eye, surf.xyz[edge], lo, hi).any()

        for rig in (noiseless_rig(), default_rig()):
            for seed in (0, 7, 123456):
                s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
                c1, c2 = capture_rig(scene, rig, seed)
                assert _same_bytes(c1, reference_capture(scene, rig.cam1, s1))
                assert _same_bytes(c2, reference_capture(scene, rig.cam2, s2))
        # some edge sample wins its bin in cam1's noiseless view
        q = rig.cam1.pose.inverse().apply_to(EDGE_SAMPLES)
        view = camera._last_views[1][0][0]
        assert (view[:, None, :] == q[None]).all(axis=2).any()


def _cam1_at(rig, eye, target):
    cam1 = camera.make_camera("cam1", **{**camera.DEFAULT_RIG["cam1"], "eye": eye, "target": target})
    return CameraRig(cam1=cam1, cam2=rig.cam2)


# each case changes one thing a view depends on
VIEW_CHANGES = {
    "detached_fruit": lambda scene, rig: (detach_fruit(scene, 4), rig),
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


class TestViewCache:
    """`capture_rig` reuses the last views only for an equal scene and
    equal camera geometry."""

    def test_same_scene_is_not_sampled_again(self, sample_calls):
        scene, rig = _paper9(), default_rig()
        first = capture_rig(scene, rig, 1)
        assert len(sample_calls) == 1
        again = capture_rig(_paper9(), default_rig(), 1)
        assert len(sample_calls) == 1
        assert all(_same_bytes(a, b) for a, b in zip(first, again))

    @pytest.mark.parametrize("sigma, rate", [(0.0, 0.0), (0.004, 0.1), (0.002, 0.5)])
    def test_noise_and_dropout_reuse_the_view(self, sample_calls, sigma, rate):
        scene = _paper9()
        capture_rig(scene, default_rig(), 1)
        rig = default_rig(depth_noise_sigma=sigma, dropout_rate=rate)
        seed = 5
        c1, c2 = capture_rig(scene, rig, seed)
        assert len(sample_calls) == 1
        s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
        assert _same_bytes(c1, reference_capture(scene, rig.cam1, s1))
        assert _same_bytes(c2, reference_capture(scene, rig.cam2, s2))

    @pytest.mark.parametrize("change", sorted(VIEW_CHANGES))
    def test_changed_view_input_misses(self, sample_calls, monkeypatch, change):
        scene, rig = VIEW_CHANGES[change](_paper9(), default_rig())
        capture_rig(_paper9(), default_rig(), 1)
        warm = capture_rig(scene, rig, 2)
        assert len(sample_calls) == 2
        monkeypatch.setattr(camera, "_last_views", None)
        cold = capture_rig(scene, rig, 2)
        assert all(_same_bytes(a, b) for a, b in zip(warm, cold))

    def test_key_is_every_field_but_noise_and_dropout(self):
        cam = default_rig().cam1
        key = camera._view_key(cam)
        assert len(key) == len(fields(CameraModel)) - 2
        assert camera._view_key(replace(cam, depth_noise_sigma=0.01, dropout_rate=0.5)) == key

    def test_cached_arrays_are_read_only(self, sample_calls):
        capture_rig(generate_scene(2, 3), default_rig(), 1)
        views = camera._last_views[1]
        assert len(views) == 2
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
        rig = default_rig(depth_noise_sigma=sigma, dropout_rate=rate)
        views = camera._views(_paper9(), rig)
        for cam, (q, rgb, ranges) in zip((rig.cam1, rig.cam2), views):
            for seed in range(10):
                cloud = camera._sense(q, rgb, ranges, cam, seed)
                assert _same_bytes(cloud, oracles.reference_sense(q, rgb, ranges, cam, seed))
                if rate in (0.0, 1.0):
                    assert len(cloud) == (len(q) if rate == 0.0 else 0)


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

        def sense(q, rgb, ranges, cam, seed):
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
