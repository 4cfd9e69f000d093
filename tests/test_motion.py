import sys

import numpy as np
import pytest

from berrypick.errors import EmptyInputError, MotionRejectedError
from berrypick.geometry import Aabb, Vec3
from berrypick.localization import StrawberryBox
from berrypick.motion import (
    LONGEST_MOVE,
    RobotState,
    compute_z_min,
    plan_cycle_waypoints,
    robot_move,
)

BIG = Aabb(Vec3(-10, -10, -10), Vec3(10, 10, 10))


def robot(scale=0.5, max_speed=1.0):
    return RobotState(velocity_scale=scale, max_speed=max_speed, workspace=BIG)


def box(x0, x1, y0, y1, z0, z1, index=0, count=25):
    return StrawberryBox(index=index, box=Aabb(Vec3(x0, y0, z0), Vec3(x1, y1, z1)), point_count=count)


class TestRobotMove:
    def test_duration_is_distance_over_speed(self):
        rec = robot_move(robot(scale=0.5, max_speed=1.0), Vec3(0, 0, 0), Vec3(0.5, 0, 0), 2.0)
        assert rec.duration == pytest.approx(1.0)
        assert rec.t_start == 2.0
        assert rec.t_end == pytest.approx(3.0)
        assert rec.from_pos == Vec3(0, 0, 0)
        assert rec.to_pos == Vec3(0.5, 0, 0)

    def test_zero_length_move(self):
        rec = robot_move(robot(), Vec3(1, 1, 1), Vec3(1, 1, 1), 5.0)
        assert rec.duration == 0.0
        assert rec.t_end == 5.0
        assert rec.from_pos == rec.to_pos == Vec3(1, 1, 1)

    def test_outside_workspace_rejected(self):
        state = RobotState(workspace=Aabb(Vec3(0.15, -0.4, 0.2), Vec3(0.65, 0.4, 0.6)))
        with pytest.raises(MotionRejectedError):
            robot_move(state, Vec3(0.2, 0, 0.4), Vec3(5.0, 0.0, 0.4), 0.0)

    def test_doubling_scale_halves_duration_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = Vec3(*rng.uniform(-1, 1, 3))
            b = Vec3(*rng.uniform(-1, 1, 3))
            slow = robot_move(robot(scale=0.5, max_speed=0.1), a, b, 0.0)
            fast = robot_move(robot(scale=1.0, max_speed=0.1), a, b, 0.0)
            assert slow.duration == 2.0 * fast.duration

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            RobotState(workspace=BIG, velocity_scale=0.0)
        with pytest.raises(ValueError):
            RobotState(workspace=BIG, velocity_scale=1.5)
        with pytest.raises(ValueError):
            RobotState(workspace=BIG, max_speed=-1.0)

    def test_speed_keeps_the_longest_move_finite(self):
        # the speed is velocity_scale * max_speed: at the slowest one the
        # longest move takes a finite time, and below it, underflowed to a
        # subnormal or to 0 included, the robot is rejected
        slowest = LONGEST_MOVE / sys.float_info.max
        RobotState(workspace=BIG, velocity_scale=1.0, max_speed=slowest * (1 + 1e-9))
        for scale, max_speed in ((1.0, slowest / 2), (5e-324, 0.1), (1e-300, 1e-20)):
            with pytest.raises(ValueError, match=r"^velocity_scale \* max_speed must be at least 3\.23e-155 m/s"):
                RobotState(workspace=BIG, velocity_scale=scale, max_speed=max_speed)

    def test_home_outside_workspace_rejected(self):
        with pytest.raises(ValueError, match="^home "):
            RobotState(workspace=Aabb(Vec3(0.3, -1, 0), Vec3(1, 1, 1)))


class TestWaypoints:
    def test_hand_computed_example(self):
        b = box(0.40, 0.43, -0.02, 0.02, 0.35, 0.38)
        cur = Vec3(0.2, -0.35, 0.44)
        w1, w2, w3 = plan_cycle_waypoints(b, 0.34, cur)
        assert (w1.x, w1.y, w1.z) == (0.2, -0.35, 0.34)
        assert w2.x == pytest.approx(0.44, abs=1e-12)
        assert w2.y == pytest.approx(0.0, abs=1e-12)
        assert w2.z == 0.34
        assert w3.x == w2.x and w3.y == w2.y
        assert w3.z == pytest.approx(0.395, abs=1e-12)

    def test_symmetric_box_centers_y(self):
        b = box(0.4, 0.43, -0.03, 0.03, 0.35, 0.38)
        _, w2, _ = plan_cycle_waypoints(b, 0.34, Vec3(0, 0, 0))
        assert w2.y == 0.0

    def test_w1_z_is_z_min(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            lo = rng.uniform(0.3, 0.4, 3)
            hi = lo + rng.uniform(0.01, 0.05, 3)
            b = box(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
            z_min = float(rng.uniform(0.2, 0.3))
            w1, _, _ = plan_cycle_waypoints(b, z_min, Vec3(0.1, 0.2, 0.5))
            assert w1.z == z_min

    def test_axis_change_pattern(self):
        b = box(0.40, 0.43, -0.02, 0.02, 0.35, 0.38)
        cur = Vec3(0.31, -0.11, 0.47)
        w1, w2, w3 = plan_cycle_waypoints(b, 0.33, cur)
        # descend: z only
        assert (w1.x, w1.y) == (cur.x, cur.y)
        # align: x/y only
        assert w2.z == w1.z
        # ascend: z only
        assert (w3.x, w3.y) == (w2.x, w2.y)

    def test_ascend_above_descend_for_hanging_fruit(self):
        b = box(0.40, 0.43, -0.02, 0.02, 0.35, 0.38)
        w1, _, w3 = plan_cycle_waypoints(b, 0.33, Vec3(0.2, 0.0, 0.44))
        assert w3.z > w1.z


class TestComputeZMin:
    def test_three_boxes(self):
        boxes = [
            box(0.4, 0.43, -0.02, 0.02, 0.35, 0.38, index=0),
            box(0.4, 0.43, 0.04, 0.08, 0.33, 0.36, index=1),
            box(0.4, 0.43, 0.10, 0.14, 0.37, 0.40, index=2),
        ]
        assert compute_z_min(boxes) == pytest.approx(0.32, abs=1e-12)

    def test_single_box(self):
        assert compute_z_min([box(0.4, 0.43, 0, 0.03, 0.30, 0.33)]) == pytest.approx(0.29, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            compute_z_min([])

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(33)
        boxes = []
        for i in range(100):
            lo = rng.uniform(0.3, 0.4, 3)
            hi = lo + rng.uniform(0.01, 0.05, 3)
            boxes.append(box(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2], index=i))
        expected = min(b.box.min.z for b in boxes) - 0.010
        assert compute_z_min(boxes) == expected
