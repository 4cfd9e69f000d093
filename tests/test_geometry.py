import math

import numpy as np
import pytest

from berrypick.errors import CloudFormatError, FrameMismatchError
from berrypick.geometry import (
    Aabb,
    ColoredPointCloud,
    RigidTransform,
    Vec3,
    dump_cloud,
    load_cloud,
    merge_clouds,
    sq_lengths,
    transform_cloud,
)


def rot_z(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_cloud(rng, n, frame="base"):
    xyz = rng.uniform(-1.0, 1.0, size=(n, 3))
    rgb = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    return ColoredPointCloud(frame, xyz, rgb)


def no_points(frame):
    return ColoredPointCloud(frame, np.empty((0, 3)), np.empty((0, 3), dtype=np.uint8))


def random_transform(rng):
    # QR of a random matrix gives an orthonormal basis; flip to det +1
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    t = Vec3(*rng.uniform(-0.5, 0.5, size=3))
    return RigidTransform(q, t, "cam1", "base")


class TestVec3:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec3(0.0, float("nan"), 0.0)
        with pytest.raises(ValueError):
            Vec3(float("inf"), 0.0, 0.0)

    def test_array_round_trip(self):
        v = Vec3(0.1, -0.2, 0.3)
        assert Vec3.from_array(v.to_array()) == v


class TestRgb:
    """Color channels of the cloud text format: 0..255 load, others are rejected."""

    @staticmethod
    def one_point_file(tmp_path, rgb):
        path = tmp_path / "one.txt"
        path.write_text("frame=base count=1\n0.1 0.2 0.3 {} {} {}\n".format(*rgb))
        return path

    def test_valid_range(self, tmp_path):
        cloud = load_cloud(self.one_point_file(tmp_path, (0, 128, 255)))
        assert cloud.rgb.tolist() == [[0, 128, 255]]

    @pytest.mark.parametrize("bad", [(-1, 0, 0), (0, 256, 0), (0, 0, 300)])
    def test_out_of_range(self, tmp_path, bad):
        with pytest.raises(CloudFormatError, match=r"one\.txt:2: color"):
            load_cloud(self.one_point_file(tmp_path, bad))


def extreme_rows():
    """Rows of subnormals, signed zeros, huge values whose squares overflow
    to inf, and mixes of them with ordinary values."""
    tiny = 5e-324
    values = [0.0, -0.0, tiny, -tiny, 1e-160, 2.2250738585072014e-308, 1.0, -3.5, 1e154, 1.4e154, -1e200, 1.7976931348623157e308]
    rng = np.random.default_rng(41)
    rows = rng.choice(values, size=(4000, 3))
    return np.concatenate([rows, [[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [1e200, -1e200, 1e200], [tiny, tiny, tiny]]])


class TestSqLengths:
    """`sq_lengths` sums x, y, z in that order: the bits of the row sum,
    and of the row norm once square-rooted."""

    @pytest.mark.parametrize("kind", ["uniform", "spread", "extreme"])
    def test_equals_row_sum_and_norm_bit_for_bit(self, kind):
        rng = np.random.default_rng(40)
        d = {
            "uniform": lambda: rng.uniform(-1.0, 1.0, size=(20000, 3)),
            "spread": lambda: rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-150, 150, size=(20000, 3)),
            "extreme": extreme_rows,
        }[kind]()
        with np.errstate(over="ignore", under="ignore"):
            got = sq_lengths(d)
            assert got.tobytes() == (d * d).sum(axis=1).tobytes()
            assert np.sqrt(got).tobytes() == np.linalg.norm(d, axis=1).tobytes()
        if kind == "extreme":
            assert np.isinf(got).any() and (got == 0).any() and ((got > 0) & (got < 1e-300)).any()

    def test_order_is_x_then_y_then_z(self):
        # (x*x + y*y) + z*z rounds apart from x*x + (y*y + z*z) here
        d = np.array([[1.0, 9e-9, 9e-9]])
        assert sq_lengths(d)[0] == 1.0
        assert sq_lengths(d[:, ::-1])[0] > 1.0

    def test_strided_and_empty_rows(self):
        rng = np.random.default_rng(42)
        d = rng.normal(size=(300, 6))[::3, 1:4]
        assert sq_lengths(d).tobytes() == (d * d).sum(axis=1).tobytes()
        assert sq_lengths(np.empty((0, 3))).shape == (0,)


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.001, Vec3(0, 0, 0), "cam1", "base")

    def test_rejects_reflection(self):
        m = np.eye(3)
        m[0, 0] = -1.0
        with pytest.raises(ValueError):
            RigidTransform(m, Vec3(0, 0, 0), "cam1", "base")

    def test_identity_apply(self):
        t = RigidTransform(np.eye(3), Vec3(0.0, 0.0, 0.0), "cam1", "base")
        assert t.apply_to(np.array([[1.0, 2.0, 3.0]])).tolist() == [[1.0, 2.0, 3.0]]

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), Vec3(0.1, 0.0, 0.0), "cam1", "base")
        assert t.apply_to(np.zeros((1, 3))).tolist() == [[0.1, 0.0, 0.0]]

    def test_rotation_90_about_z(self):
        t = RigidTransform(rot_z(math.pi / 2), Vec3(0, 0, 0), "cam1", "base")
        (p,) = t.apply_to(np.array([[1.0, 0.0, 0.0]]))
        assert abs(p[0] - 0.0) < 1e-12
        assert abs(p[1] - 1.0) < 1e-12
        assert abs(p[2]) < 1e-12

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = random_transform(rng)
            p = rng.uniform(-1, 1, size=(1, 3))
            q = t.inverse().apply_to(t.apply_to(p))
            assert np.linalg.norm(p - q) < 1e-9


class TestTransformCloud:
    def test_identity_relabels_frame(self):
        rng = np.random.default_rng(0)
        c = random_cloud(rng, 5, frame="cam1")
        out = transform_cloud(RigidTransform(np.eye(3), Vec3(0.0, 0.0, 0.0), "cam1", "base"), c, "base")
        assert out.frame == "base"
        assert np.array_equal(out.xyz, c.xyz)
        assert np.array_equal(out.rgb, c.rgb)

    def test_translation_shifts_z(self):
        c = ColoredPointCloud("cam1", [[0, 0, 0], [1, 1, 1]], [[1, 2, 3], [4, 5, 6]])
        t = RigidTransform(np.eye(3), Vec3(0.0, 0.0, 0.5), "cam1", "base")
        out = transform_cloud(t, c, "base")
        assert np.allclose(out.xyz[:, 2], c.xyz[:, 2] + 0.5)

    def test_frame_mismatch_rejected(self):
        c = no_points("cam2")
        t = RigidTransform(np.eye(3), Vec3(0.0, 0.0, 0.0), "cam1", "base")
        with pytest.raises(FrameMismatchError):
            transform_cloud(t, c, "base")
        with pytest.raises(FrameMismatchError, match="requested target 'cam2'"):
            transform_cloud(t, no_points("cam1"), "cam2")

    def test_round_trip_through_inverse(self):
        rng = np.random.default_rng(1)
        c = random_cloud(rng, 200, frame="cam1")
        t = random_transform(rng)
        back = transform_cloud(t.inverse(), transform_cloud(t, c, "base"), "cam1")
        assert np.abs(back.xyz - c.xyz).max() < 1e-9

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(2)
        c = random_cloud(rng, 50, frame="cam1")
        t = random_transform(rng)
        out = transform_cloud(t, c, "base")
        d_in = np.linalg.norm(c.xyz[:, None] - c.xyz[None], axis=-1)
        d_out = np.linalg.norm(out.xyz[:, None] - out.xyz[None], axis=-1)
        assert np.abs(d_in - d_out).max() < 1e-9

    def test_preserves_order_and_colors(self):
        rng = np.random.default_rng(4)
        c = random_cloud(rng, 30, frame="cam1")
        t = random_transform(rng)
        out = transform_cloud(t, c, "base")
        assert len(out) == len(c)
        assert np.array_equal(out.rgb, c.rgb)


class TestMergeClouds:
    def test_empty_plus_empty(self):
        out = merge_clouds(no_points("base"), no_points("base"))
        assert len(out) == 0

    def test_order_preserved(self):
        rng = np.random.default_rng(5)
        a = random_cloud(rng, 3)
        b = random_cloud(rng, 5)
        out = merge_clouds(a, b)
        assert len(out) == 8
        assert np.array_equal(out.xyz[:3], a.xyz)
        assert np.array_equal(out.xyz[3:], b.xyz)

    def test_merge_with_empty_is_identity(self):
        rng = np.random.default_rng(6)
        a = random_cloud(rng, 7)
        out = merge_clouds(a, no_points("base"))
        assert out == a

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            merge_clouds(no_points("base"), no_points("cam1"))

    def test_size_always_adds(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_cloud(rng, int(rng.integers(0, 20)))
            b = random_cloud(rng, int(rng.integers(0, 20)))
            assert len(merge_clouds(a, b)) == len(a) + len(b)

    def test_associative_in_content(self):
        rng = np.random.default_rng(8)
        a, b, c = (random_cloud(rng, n) for n in (4, 0, 6))
        assert merge_clouds(merge_clouds(a, b), c) == merge_clouds(a, merge_clouds(b, c))


class TestCloudType:
    def test_points_property(self):
        c = ColoredPointCloud("base", [[0.5, 0.25, -1.0]], [[10, 20, 30]])
        assert (c.xyz.dtype, c.rgb.dtype) == (np.float64, np.uint8)
        assert c.xyz.tolist() == [[0.5, 0.25, -1.0]]
        assert c.rgb.tolist() == [[10, 20, 30]]

    def test_from_points_round_trip(self):
        xyz = [[0.0, 0.1, 0.2], [-0.5, 0.0, 2.0]]
        rgb = [[1, 2, 3], [200, 100, 0]]
        c = ColoredPointCloud("cam1", xyz, rgb)
        assert ColoredPointCloud("cam1", c.xyz, c.rgb) == c
        assert (c.xyz.tolist(), c.rgb.tolist()) == (xyz, rgb)

    def test_invalid_frame(self):
        with pytest.raises(FrameMismatchError):
            no_points("world")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ColoredPointCloud("base", [[np.inf, 0, 0]], [[0, 0, 0]])

    def test_immutable(self):
        c = no_points("base")
        with pytest.raises(AttributeError):
            c.frame = "cam1"
        with pytest.raises(ValueError):
            c.xyz.resize((3, 3))


class TestAabb:
    def test_invariant(self):
        with pytest.raises(ValueError):
            Aabb(Vec3(1, 0, 0), Vec3(0, 1, 1))

    def test_contains_and_center(self):
        box = Aabb(Vec3(0, 0, 0), Vec3(2, 2, 2))
        assert box.contains(Vec3(1, 1, 1))
        assert not box.contains(Vec3(3, 1, 1))
        assert box.center == Vec3(1, 1, 1)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        c = random_cloud(rng, 64, frame="cam2")
        path = tmp_path / "cloud.txt"
        dump_cloud(c, path)
        back = load_cloud(path)
        assert back == c

    def test_header_shape(self, tmp_path):
        c = ColoredPointCloud("base", [[0.125, -2.0, 1e-7]], [[9, 8, 7]])
        path = tmp_path / "one.txt"
        dump_cloud(c, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame=base count=1"
        fields = lines[1].split()
        assert len(fields) == 6
        assert fields[3:] == ["9", "8", "7"]

    def test_empty_cloud_round_trip(self, tmp_path):
        path = tmp_path / "empty.txt"
        dump_cloud(no_points("cam2"), path)
        back = load_cloud(path)
        assert back.frame == "cam2"
        assert len(back) == 0
