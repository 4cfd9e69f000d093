from dataclasses import fields, replace

import numpy as np
import pytest

from berrypick import camera
from berrypick.camera import CameraModel, CameraRig, capture, capture_rig, default_rig, look_at_pose
from berrypick.cli import resolve_config_arg
from berrypick.config import build_scene
from berrypick.geometry import Aabb, Vec3, transform_cloud
from berrypick.scene import KIND_FRUIT, KIND_OCCLUDER, generate_scene, detach_fruit, sample_surface_arrays

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
        cloud = capture(scene, rig.cam1, 5)
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
        cloud = capture(scene, rig.cam1, 5)
        pts = fruit_points_in_base(cloud, rig.cam1, fruit, slack=1e-9)
        assert len(pts) >= 20

    def test_range_band_respected(self):
        scene = generate_scene(2, 3)
        cam = noiseless_rig().cam1
        cloud = capture(scene, cam, 1)
        z = cloud.xyz[:, 2]
        assert z.min() >= cam.min_range
        assert z.max() <= cam.max_range

    def test_frustum_respected(self):
        scene = generate_scene(2, 9)
        cam = noiseless_rig().cam1
        cloud = capture(scene, cam, 1)
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

        c1 = capture(scene, rig.cam1, 3)
        c2 = capture(scene, rig.cam2, 3)
        assert len(fruit_points_in_base(c1, rig.cam1, fruit)) == 0
        assert len(fruit_points_in_base(c2, rig.cam2, fruit)) > 0

    def test_detached_fruit_excluded(self):
        scene = generate_scene(2, 3)
        rig = noiseless_rig()
        target = scene.strawberries[1]
        before = capture(scene, rig.cam1, 9)
        after = capture(detach_fruit(scene, 1), rig.cam1, 9)
        assert len(fruit_points_in_base(before, rig.cam1, target)) > 0
        assert len(fruit_points_in_base(after, rig.cam1, target)) == 0


class TestCaptureNoise:
    def test_same_seed_identical(self):
        scene = generate_scene(2, 5)
        cam = default_rig().cam1
        assert capture(scene, cam, 7) == capture(scene, cam, 7)

    def test_different_seed_differs(self):
        scene = generate_scene(2, 5)
        cam = default_rig().cam1
        assert capture(scene, cam, 7) != capture(scene, cam, 8)

    def test_noise_perturbs_along_ray(self):
        scene = generate_scene(2, 1)
        cam0 = noiseless_rig().cam1
        cam = CameraModel(
            pose=cam0.pose, frame="cam1", depth_noise_sigma=0.002, dropout_rate=0.0
        )
        clean = capture(scene, cam0, 11)
        noisy = capture(scene, cam, 11)
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
        base = noiseless_rig().cam1
        counts = []
        for rate in (0.0, 0.02, 0.3, 0.7, 1.0):
            cam = CameraModel(pose=base.pose, frame="cam1", depth_noise_sigma=0.0, dropout_rate=rate)
            counts.append(len(capture(scene, cam, 13)))
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
            assert _same_bytes(capture(scene, rig.cam1, s1), ref1)
            assert _same_bytes(capture(scene, rig.cam2, s2), ref2)
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
        culled = camera._back_faces([(lo, hi)], eye)[camera._face_codes(pts, lo, hi)]
        assert culled.tolist() == blocked

    def test_flat_occluder_samples_are_not_culled(self):
        scene = CULL_SCENES["flat_occluder"]()
        occ = sample_surface_arrays(scene, scene.surface_density).kind == KIND_OCCLUDER
        surf = camera._surfaces(scene)
        for cam in (default_rig().cam1, default_rig().cam2):
            culled = camera._back_faces(surf.bounds, cam.pose.translation.to_array())[surf.face]
            assert occ.any() and not culled[occ].any()


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
        for q, rgb in views:
            assert len(q) and not q.flags.writeable and not rgb.flags.writeable
            with pytest.raises(ValueError):
                q[0, 0] = 1.0
