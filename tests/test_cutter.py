import math

import pytest

from berrypick.cutter import (
    DEFAULT_CUT_ENERGY_PER_AREA,
    CutModel,
    GRAVITY,
    ToolGeometry,
    ToolState,
    duty_for_stem,
    free_fall_detect,
    laser_step,
    required_cut_energy,
    stem_y_at_height,
    trap_stem,
)
from berrypick.errors import StateError
from berrypick.geometry import Vec3
from berrypick.scene import StrawberryTruth

from oracles import cut_time_closed_form, fall_time_closed_form

GEOM = ToolGeometry()
CUT = CutModel()


def fruit_with_lateral(offset_y, stem_diameter=0.003, detached=False):
    """Fruit whose stem is vertical in y at `offset_y`; a tool at y=0 sees
    exactly that lateral error."""
    return StrawberryTruth(
        id=0,
        center=Vec3(0.42, offset_y, 0.40),
        radius=0.015,
        ripe=True,
        stem_top=Vec3(0.50, offset_y, 0.48),
        stem_bend=0.0,
        stem_diameter=stem_diameter,
        detached=detached,
    )


def run_cut_loop(cut, fruit, dt=0.01, cap=100.0):
    acc = 0.0
    steps = 0
    done = False
    while not done:
        acc, done = laser_step(cut, fruit, dt, acc)
        steps += 1
        assert steps * dt < cap
    return steps * dt, acc


class TestToolGeometry:
    def test_defaults(self):
        assert GEOM.groove_width == 0.035
        assert GEOM.trapper_width == 0.030
        assert GEOM.focal_length == 0.25
        assert GEOM.lens_stroke == 0.006

    def test_trapper_wider_than_groove_rejected(self):
        with pytest.raises(ValueError):
            ToolGeometry(groove_width=0.02, trapper_width=0.03)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ToolGeometry(lens_stroke=0.0)


class TestTrapStem:
    def test_interior_of_tolerance_trapped(self):
        res = trap_stem(Vec3(0.44, 0.0, 0.43), fruit_with_lateral(0.014), GEOM)
        assert res.outcome == "trapped"
        assert res.lateral_error == pytest.approx(0.014)

    def test_exterior_of_tolerance_missed(self):
        res = trap_stem(Vec3(0.44, 0.0, 0.43), fruit_with_lateral(0.016), GEOM)
        assert res.outcome == "missed"

    def test_centered(self):
        res = trap_stem(Vec3(0.44, 0.0, 0.43), fruit_with_lateral(0.0), GEOM)
        assert res.outcome == "trapped"
        assert res.lateral_error == 0.0

    def test_step_function_millimeter_sweep(self):
        for k in range(0, 31):
            err = k / 1000.0
            res = trap_stem(Vec3(0.44, 0.0, 0.43), fruit_with_lateral(err), GEOM)
            expected = "trapped" if k <= 15 else "missed"
            assert res.outcome == expected, f"offset {k} mm"

    def test_sign_of_error(self):
        res = trap_stem(Vec3(0.44, 0.005, 0.43), fruit_with_lateral(0.0), GEOM)
        assert res.lateral_error == pytest.approx(-0.005)

    def test_detached_rejected(self):
        with pytest.raises(StateError):
            trap_stem(Vec3(0.44, 0, 0.43), fruit_with_lateral(0.0, detached=True), GEOM)

    def test_bent_stem_interpolation(self):
        # stem runs from (0.50, 0.01, 0.48) down to the fruit top at y=0
        fruit = StrawberryTruth(
            id=0, center=Vec3(0.42, 0.0, 0.40), radius=0.015, ripe=True,
            stem_top=Vec3(0.50, 0.01, 0.48), stem_bend=-0.01, stem_diameter=0.003,
        )
        attach_z = 0.415
        mid_z = (attach_z + 0.48) / 2
        assert stem_y_at_height(fruit, attach_z) == pytest.approx(0.0)
        assert stem_y_at_height(fruit, 0.48) == pytest.approx(0.01)
        assert stem_y_at_height(fruit, mid_z) == pytest.approx(0.005)
        # clamped outside the segment
        assert stem_y_at_height(fruit, 0.60) == pytest.approx(0.01)
        assert stem_y_at_height(fruit, 0.30) == pytest.approx(0.0)


class TestLaserCut:
    def test_anchor_cut_time(self):
        t, acc = run_cut_loop(CUT, fruit_with_lateral(0.0))
        assert abs(t - 2.3) <= 0.01
        assert acc >= required_cut_energy(CUT, fruit_with_lateral(0.0))

    def test_double_power_halves_time(self):
        t50, _ = run_cut_loop(CutModel(laser_power=50.0), fruit_with_lateral(0.0))
        t100, _ = run_cut_loop(CutModel(laser_power=100.0), fruit_with_lateral(0.0))
        assert abs(t100 - 1.15) <= 0.01
        assert t50 == pytest.approx(2.0 * t100, abs=0.01)

    def test_stepped_matches_closed_form(self):
        for dt in (0.01, 0.002, 0.05):
            for power in (25.0, 50.0, 80.0):
                cut = CutModel(laser_power=power)
                t, _ = run_cut_loop(cut, fruit_with_lateral(0.0), dt=dt)
                exact = cut_time_closed_form(power, cut.duty, cut.cut_energy_per_area, 0.003)
                assert 0.0 <= t - exact <= dt + 1e-12

    def test_accumulation_monotone(self):
        acc = 0.0
        prev = 0.0
        for _ in range(100):
            acc, _ = laser_step(CUT, fruit_with_lateral(0.0), 0.01, acc)
            assert acc > prev
            prev = acc

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            laser_step(CUT, fruit_with_lateral(0.0), 0.0, 0.0)

    def test_duty_for_stem(self):
        assert duty_for_stem(0.003, GEOM) == pytest.approx(0.5)
        assert duty_for_stem(0.012, GEOM) == 1.0

    def test_default_energy_constant_calibration(self):
        # the shipped constant makes the nominal 3 mm stem need exactly
        # 2.3 s of 50 W at duty 0.5
        e = required_cut_energy(CutModel(), fruit_with_lateral(0.0))
        assert e == pytest.approx(2.3 * 50.0 * 0.5, rel=1e-12)
        assert DEFAULT_CUT_ENERGY_PER_AREA == pytest.approx(
            57.5 / (math.pi * 0.0015**2), rel=1e-12
        )


class TestFreeFall:
    def test_detect_time_near_closed_form(self):
        t = free_fall_detect(fruit_with_lateral(0.0), GEOM, 0.01)
        exact = fall_time_closed_form(GEOM.interrupter_drop)
        assert exact == pytest.approx(0.10096, abs=1e-4)
        assert 0.0 <= t - exact <= 0.01

    def test_tiny_drop_detects_immediately(self):
        geom = ToolGeometry(interrupter_drop=1e-9)
        t = free_fall_detect(fruit_with_lateral(0.0), geom, 0.01)
        assert t <= 0.01

    def test_trace_shape(self):
        # t is on the dt grid and is its first time at which the fall
        # reaches the interrupter
        dt = 0.01
        t = free_fall_detect(fruit_with_lateral(0.0), GEOM, dt)
        k = int(round(t / dt))
        assert t == k * dt

        def fall(j):
            return 0.5 * GRAVITY * (j * dt) * (j * dt)

        assert fall(k) >= GEOM.interrupter_drop
        assert all(fall(j) < GEOM.interrupter_drop for j in range(k))

    def test_various_drops_within_one_dt(self):
        for drop in (0.01, 0.03, 0.05, 0.12):
            geom = ToolGeometry(interrupter_drop=drop)
            for dt in (0.01, 0.005):
                t = free_fall_detect(fruit_with_lateral(0.0), geom, dt)
                assert 0.0 <= t - fall_time_closed_form(drop) <= dt


class TestToolState:
    def test_nominal_sequence(self):
        tool = ToolState()
        tool.engage_trap()
        tool.set_laser(True)
        tool.set_laser(False)
        tool.release_stem()
        assert not tool.trapper_engaged

    def test_release_before_trap(self):
        with pytest.raises(StateError):
            ToolState().release_stem()

    def test_double_release(self):
        tool = ToolState()
        tool.engage_trap()
        tool.release_stem()
        with pytest.raises(StateError):
            tool.release_stem()

    def test_laser_without_trap(self):
        with pytest.raises(StateError):
            ToolState().set_laser(True)

    def test_release_with_laser_on(self):
        tool = ToolState()
        tool.engage_trap()
        tool.set_laser(True)
        with pytest.raises(StateError):
            tool.release_stem()

    def test_double_trap(self):
        tool = ToolState()
        tool.engage_trap()
        with pytest.raises(StateError):
            tool.engage_trap()
