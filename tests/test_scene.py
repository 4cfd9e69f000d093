import numpy as np
import pytest

from berrypick.config import build_scenario, resolve_config
from berrypick.errors import ConfigError, StateError
from berrypick.geometry import Vec3
from berrypick.scene import (
    KIND_FRUIT,
    KIND_STEM,
    KIND_TROUGH,
    MAX_STEM_BEND,
    Scene,
    StrawberryTruth,
    detach_fruit,
    generate_scene,
    sample_surface_arrays,
)


class TestStrawberryTruth:
    def test_invariants(self):
        with pytest.raises(ValueError):
            StrawberryTruth(0, Vec3(0.4, 0, 0.4), 0.03, True, Vec3(0.5, 0, 0.48), 0.0, 0.003)
        with pytest.raises(ValueError):
            StrawberryTruth(0, Vec3(0.4, 0, 0.5), 0.015, True, Vec3(0.5, 0, 0.48), 0.0, 0.003)
        with pytest.raises(ValueError):
            StrawberryTruth(0, Vec3(0.4, 0, 0.4), 0.015, True, Vec3(0.5, 0, 0.48), 0.0, 0.010)

    def test_stem_attach(self):
        s = StrawberryTruth(0, Vec3(0.4, 0.0, 0.40), 0.015, True, Vec3(0.5, 0, 0.48), 0.0, 0.003)
        assert (s.stem_attach.x, s.stem_attach.y) == (0.4, 0.0)
        assert s.stem_attach.z == pytest.approx(0.415, abs=1e-12)


class TestGenerateScene:
    def test_empty(self):
        scene = generate_scene(1, 0)
        assert scene.strawberries == ()

    def test_nine_ripe_in_workspace(self):
        # the default layout, and a crop window widened in x that reaches fruit hung further out
        for raw in ({"scene": {"seed": 7}}, {"localization": {"x_plus": 0.85}, "scene": {"seed": 7, "fruit_x": 0.7}}):
            built = build_scenario(resolve_config(raw), 1)
            scene = built.scene
            assert len(scene.strawberries) == 9
            assert all(s.ripe for s in scene.strawberries)
            assert all(built.robot.workspace.contains(s.center) for s in scene.strawberries)

    def test_deterministic(self):
        a = generate_scene(42, 9, 0.7, 0.004)
        b = generate_scene(42, 9, 0.7, 0.004)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_scene(1, 5) != generate_scene(2, 5)

    def test_capacity_error(self):
        with pytest.raises(ConfigError):
            generate_scene(1, 12, spacing=0.06)

    def test_ripe_fraction(self):
        scene = generate_scene(3, 8, ripe_fraction=0.5)
        assert sum(s.ripe for s in scene.strawberries) == 4

    def test_bend_clamped(self):
        scene = generate_scene(5, 9, bend_sigma=0.05)
        for s in scene.strawberries:
            assert abs(s.stem_bend) <= MAX_STEM_BEND + 1e-12
            assert abs(s.center.y - s.stem_top.y) <= MAX_STEM_BEND + 1e-12

    def test_fruits_hang_below_lip(self):
        scene = generate_scene(11, 9)
        for s in scene.strawberries:
            assert s.stem_top.z > s.center.z
            assert s.stem_top.z == scene.trough.max.z

    def test_unique_ids_enforced(self):
        s = StrawberryTruth(0, Vec3(0.4, 0, 0.4), 0.015, True, Vec3(0.5, 0, 0.48), 0.0, 0.003)
        with pytest.raises(ValueError):
            Scene(strawberries=(s, s), rng_seed=0, trough=None, occluders=(), surface_density=60000.0)


def is_red(rgb):
    return (rgb[:, 0] > 100) & (rgb[:, 1] < 70) & (rgb[:, 2] < 70)


def assert_batches_equal(a, b):
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


class TestSampleSurfaces:
    def test_fruit_points_on_sphere(self):
        scene = generate_scene(2, 1)
        fruit = scene.strawberries[0]
        batch = sample_surface_arrays(scene, 30000.0)
        fruit_pts = batch.xyz[batch.kind == KIND_FRUIT]
        assert len(fruit_pts)
        d = np.linalg.norm(fruit_pts - fruit.center.to_array(), axis=1)
        assert np.abs(d - fruit.radius).max() <= 1e-9

    def test_visible_hemisphere_count(self):
        # a large fruit sampled at the default density keeps the front
        # hemisphere above the minimum cluster size
        scene = generate_scene(2, 1, radius_band=(0.0175, 0.0175))
        fruit = scene.strawberries[0]
        batch = sample_surface_arrays(scene, scene.surface_density)
        front = (batch.kind == KIND_FRUIT) & (batch.xyz[:, 0] <= fruit.center.x)
        assert front.sum() >= 20

    def test_tiny_density_no_error(self):
        scene = generate_scene(2, 1)
        batch = sample_surface_arrays(scene, 0.001)
        assert len(batch.xyz) == len(batch.rgb) == len(batch.kind) == len(batch.owner)

    def test_ripe_and_unripe_color_bands(self):
        scene = generate_scene(4, 6, ripe_fraction=0.5)
        ripe_ids = [s.id for s in scene.strawberries if s.ripe]
        batch = sample_surface_arrays(scene, 20000.0)
        red = is_red(batch.rgb)
        fruit = batch.kind == KIND_FRUIT
        ripe = fruit & np.isin(batch.owner, ripe_ids)
        assert ripe.any() and (fruit & ~ripe).any()
        assert red[ripe].all()
        assert not red[fruit & ~ripe].any()
        assert not red[(batch.kind == KIND_STEM) | (batch.kind == KIND_TROUGH)].any()

    def test_stem_points_near_segment(self):
        scene = generate_scene(6, 2)
        by_id = {s.id: s for s in scene.strawberries}
        from oracles import point_to_segment_distance

        batch = sample_surface_arrays(scene, 40000.0)
        stem = batch.kind == KIND_STEM
        assert stem.any()
        for p, owner in zip(batch.xyz[stem], batch.owner[stem]):
            s = by_id[int(owner)]
            d = point_to_segment_distance(p, s.stem_top.to_array(), s.stem_attach.to_array())
            assert d == pytest.approx(s.stem_diameter / 2, abs=1e-9)

    def test_sampling_deterministic(self):
        scene = generate_scene(2, 3)
        assert_batches_equal(sample_surface_arrays(scene, 5000.0), sample_surface_arrays(scene, 5000.0))

    def test_density_validation(self):
        with pytest.raises(ValueError):
            sample_surface_arrays(generate_scene(1, 1), 0.0)


class TestDetach:
    def test_detach_marks_only_target(self):
        scene = generate_scene(9, 4)
        out = detach_fruit(scene, 2)
        assert [s.detached for s in out.strawberries] == [False, False, True, False]
        # original untouched
        assert not any(s.detached for s in scene.strawberries)

    def test_double_detach(self):
        scene = detach_fruit(generate_scene(9, 4), 1)
        with pytest.raises(StateError):
            detach_fruit(scene, 1)

    def test_unknown_id(self):
        with pytest.raises(StateError):
            detach_fruit(generate_scene(9, 4), 99)

    def test_sampling_unchanged_for_other_fruits(self):
        scene = generate_scene(12, 3)
        before = sample_surface_arrays(scene, 8000.0)
        after = sample_surface_arrays(detach_fruit(scene, 0), 8000.0)
        assert_batches_equal(before, after)  # sampling ignores the detached flag

