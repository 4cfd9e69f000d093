import numpy as np
import pytest

from berrypick.config import build_scenario, resolve_config
from berrypick.errors import ConfigError
from berrypick.geometry import Aabb, Vec3
from berrypick.scene import (
    MAX_STEM_BEND,
    Scene,
    StrawberryTruth,
    generate_scene,
    sample_surface_arrays,
)

from oracles import surface_rows


# the trough `generate_scene` builds at the default heights
TROUGH = Aabb(Vec3(0.50, -0.60, 0.18), Vec3(0.70, 0.60, 0.48))


class TestStrawberryTruth:
    def test_invariants(self):
        with pytest.raises(ValueError):
            StrawberryTruth(0, Vec3(0.4, 0, 0.4), 0.03, True, Vec3(0.5, 0, 0.48), 0.003)
        with pytest.raises(ValueError):
            StrawberryTruth(0, Vec3(0.4, 0, 0.5), 0.015, True, Vec3(0.5, 0, 0.48), 0.003)
        with pytest.raises(ValueError):
            StrawberryTruth(0, Vec3(0.4, 0, 0.4), 0.015, True, Vec3(0.5, 0, 0.48), 0.010)

    def test_stem_attach(self):
        s = StrawberryTruth(0, Vec3(0.4, 0.0, 0.40), 0.015, True, Vec3(0.5, 0, 0.48), 0.003)
        assert (s.stem_attach.x, s.stem_attach.y) == (0.4, 0.0)
        assert s.stem_attach.z == pytest.approx(0.415, abs=1e-12)


class TestGenerateScene:
    def test_empty(self):
        scene = generate_scene(1, 0)
        assert scene.strawberries == ()

    def test_nine_ripe_in_workspace(self):
        # the default layout, and a crop window widened in x that reaches fruit hung further out
        # (behind the trough's front face, so only truth boxes find them)
        widened = {"localization": {"x_plus": 0.85}, "scene": {"seed": 7, "fruit_x": 0.7}, "boxes": {"source": "truth"}}
        for raw in ({"scene": {"seed": 7}}, widened):
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
        # twelve fruit 6 cm apart, stem bend included, overrun the default crop window's y extent
        with pytest.raises(ConfigError, match=r"^scene\.n_straw "):
            resolve_config({"scene": {"n_straw": 12, "spacing": 0.06}})
        # no ripe fruit: nothing needs to lie in the crop window
        resolve_config({"scene": {"n_straw": 12, "spacing": 0.06, "ripe_fraction": 0.0}})

    def test_row_fits_trough(self):
        # the stems hang from the 1.2 m trough lip, whatever the ripeness
        generate_scene(1, 21, ripe_fraction=0.0)
        with pytest.raises(ConfigError, match=r"^n_straw 22 .* does not fit the trough"):
            generate_scene(1, 22, ripe_fraction=0.0)
        with pytest.raises(ConfigError, match=r"^n_straw "):
            generate_scene(1, 10**20, ripe_fraction=0.0)
        # a spacing below two of the smallest radii counts as that floor,
        # so no radius_band or spacing lets the row grow past 121 stems
        generate_scene(1, 121, spacing=1e-9, ripe_fraction=0.0)
        with pytest.raises(ConfigError, match=r"^n_straw 122 "):
            generate_scene(1, 122, spacing=1e-9, radius_band=(0.0, 0.0), ripe_fraction=0.0)
        # neighbours may sit closer than two radii, as they always could
        generate_scene(1, 2, spacing=0.03)

    def test_ripe_fraction(self):
        scene = generate_scene(3, 8, ripe_fraction=0.5)
        assert sum(s.ripe for s in scene.strawberries) == 4

    def test_bend_clamped(self):
        scene = generate_scene(5, 9, bend_sigma=0.05)
        for s in scene.strawberries:
            assert abs(s.center.y - s.stem_top.y) <= MAX_STEM_BEND + 1e-12

    def test_fruits_hang_below_lip(self):
        scene = generate_scene(11, 9)
        for s in scene.strawberries:
            assert s.stem_top.z > s.center.z
            assert s.stem_top.z == scene.trough.max.z

    def test_unique_ids_enforced(self):
        s = StrawberryTruth(0, Vec3(0.4, 0, 0.4), 0.015, True, Vec3(0.5, 0, 0.48), 0.003)
        with pytest.raises(ValueError):
            Scene(strawberries=(s, s), rng_seed=0, trough=TROUGH, occluders=(), surface_density=60000.0)


def is_red(rgb):
    return (rgb[:, 0] > 100) & (rgb[:, 1] < 70) & (rgb[:, 2] < 70)


def assert_batches_equal(a, b):
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def rows_of(scene, batch, part):
    """Every row of `batch` that one kind of part of `scene` holds."""
    return np.concatenate(surface_rows(scene, batch)[part])


class TestSampleSurfaces:
    def test_fruit_points_on_sphere(self):
        scene = generate_scene(2, 1, surface_density=30000.0)
        fruit = scene.strawberries[0]
        batch = sample_surface_arrays(scene)
        fruit_pts = batch.xyz[rows_of(scene, batch, "fruit")]
        assert len(fruit_pts)
        d = np.linalg.norm(fruit_pts - fruit.center.to_array(), axis=1)
        assert np.abs(d - fruit.radius).max() <= 1e-9

    def test_visible_hemisphere_count(self):
        # a large fruit sampled at the default density keeps the front
        # hemisphere above the minimum cluster size
        scene = generate_scene(2, 1, radius_band=(0.0175, 0.0175))
        fruit = scene.strawberries[0]
        batch = sample_surface_arrays(scene)
        front = batch.xyz[rows_of(scene, batch, "fruit"), 0] <= fruit.center.x
        assert front.sum() >= 20

    def test_tiny_density_no_error(self):
        scene = generate_scene(2, 1, surface_density=0.001)
        batch = sample_surface_arrays(scene)
        assert len(batch.xyz) == len(batch.rgb) == len(batch.face)
        surface_rows(scene, batch)

    def test_ripe_and_unripe_color_bands(self):
        scene = generate_scene(4, 6, ripe_fraction=0.5, surface_density=20000.0)
        batch = sample_surface_arrays(scene)
        red = is_red(batch.rgb)
        parts = surface_rows(scene, batch)
        ripe = np.concatenate([rows for s, rows in zip(scene.strawberries, parts["fruit"]) if s.ripe])
        unripe = np.concatenate([rows for s, rows in zip(scene.strawberries, parts["fruit"]) if not s.ripe])
        assert len(ripe) and len(unripe)
        assert red[ripe].all()
        assert not red[unripe].any()
        assert not red[np.concatenate(parts["stem"] + parts["box"])].any()

    def test_stem_points_near_segment(self):
        scene = generate_scene(6, 2, surface_density=40000.0)
        from oracles import point_to_segment_distance

        batch = sample_surface_arrays(scene)
        stems = surface_rows(scene, batch)["stem"]
        assert all(len(rows) for rows in stems)
        for s, rows in zip(scene.strawberries, stems):
            for p in batch.xyz[rows]:
                d = point_to_segment_distance(p, s.stem_top.to_array(), s.stem_attach.to_array())
                assert d == pytest.approx(s.stem_diameter / 2, abs=1e-9)

    def test_sampling_deterministic(self):
        scene = generate_scene(2, 3, surface_density=5000.0)
        assert_batches_equal(sample_surface_arrays(scene), sample_surface_arrays(scene))

    def test_density_validation(self):
        with pytest.raises(ValueError, match="surface_density must be > 0"):
            generate_scene(1, 1, surface_density=0.0)


def _random_box(rng, scale, shape):
    """A box of extents `scale` to within a factor of 2; a thin box is at
    most 3e-6 m deep on one axis, a flat one not at all."""
    lo = rng.uniform(-0.5, 0.5, size=3)
    size = scale * rng.uniform(0.5, 2.0, size=3)
    if shape == "thin":
        size[rng.integers(3)] = rng.uniform(0.0, 3e-6)
    elif shape == "flat":
        size[rng.integers(3)] = 0.0
    return Aabb(Vec3(*lo), Vec3(*(lo + size)))


class TestFaceCodes:
    def test_matches_oracle_on_random_boxes(self):
        from oracles import face_codes

        rng = np.random.default_rng(31)
        margin = thin = interior = 0
        for seed in range(300):
            # boxes of one scale from 10^-6.5 to 0.1 m, a few hundred samples each
            scale = 10 ** rng.uniform(-6.5, -1.0)
            boxes = [_random_box(rng, scale, rng.choice(["box", "thin", "flat"])) for _ in range(1 + seed % 3)]
            scene = Scene((), seed, boxes[0], tuple(boxes[1:]), 100 / scale**2)
            batch = sample_surface_arrays(scene)
            assert len(scene.boxes) == len(boxes)
            for b, (box, own) in enumerate(zip(scene.boxes, surface_rows(scene, batch)["box"])):
                lo, hi = box.min.to_array(), box.max.to_array()
                want = face_codes(batch.xyz[own], lo, hi)
                # the scene-wide code of box b's face f is 6*b + f
                assert batch.face[own].tolist() == np.where(want < 0, -1, 6 * b + want).tolist()
                if (hi - lo > 2e-6).all():
                    margin += int((want < 0).sum())
                    interior += int((want >= 0).sum())
                elif (hi - lo > 0).all():
                    thin += len(own)
        # samples fall inside the margin, on faces and on boxes thin but not flat
        assert margin > 1000 and interior > 1000 and thin > 1000

    def test_fruit_and_stem_samples_are_on_no_face(self):
        scene = generate_scene(3, 4)
        batch = sample_surface_arrays(scene)
        parts = surface_rows(scene, batch)
        fruit_or_stem = np.concatenate(parts["fruit"] + parts["stem"])
        assert len(fruit_or_stem) and (batch.face[fruit_or_stem] == -1).all()
        (trough,) = parts["box"]
        assert (batch.face[trough] >= 0).mean() > 0.99 and batch.face[trough].max() <= 5
