import json
import math
from dataclasses import replace

import numpy as np
import pytest

from berrypick import cutter
from berrypick.cli import main
from berrypick.cutter import (
    DEFAULT_CUT_ENERGY_PER_AREA,
    GRAVITY,
    MAX_TIMESTEPS,
    CutModel,
    ToolGeometry,
    ToolState,
    free_fall_detect,
    laser_step,
    required_cut_energy,
    stem_y_at_height,
    trap_stem,
)
from berrypick.errors import StateError
from berrypick.geometry import Vec3
from berrypick.scene import StrawberryTruth

from oracles import cut_time_closed_form, fall_time_closed_form, fall_time_stepped

GEOM = ToolGeometry()
CUT = CutModel(duty=0.5)


def fruit_with_lateral(offset_y, stem_diameter=0.003):
    """Fruit whose stem is vertical in y at `offset_y`; a tool at y=0 sees
    exactly that lateral error."""
    return StrawberryTruth(
        id=0,
        center=Vec3(0.42, offset_y, 0.40),
        radius=0.015,
        ripe=True,
        stem_top=Vec3(0.50, offset_y, 0.48),
        stem_diameter=stem_diameter,
    )


def capped(cut, dt, max_steps):
    """`cut` burning at most `max_steps` timesteps of `dt`."""
    cut = replace(cut, dt=dt, laser_timeout=max_steps * dt if max_steps else dt / 4)
    assert cut.max_steps == max_steps
    return cut


def run_cut_loop(cut, fruit, dt=0.01, cap=100.0):
    steps, acc, done = laser_step(capped(cut, dt, int(cap / dt) - 1), fruit, GEOM)
    assert done and steps * dt < cap
    return steps * dt, acc


def sequential_burn(cut, fruit, dt, max_steps, need=None):
    """The burn one timestep at a time: (steps, energy, severed)."""
    need = required_cut_energy(cut, fruit) if need is None else need
    acc, steps, done = 0.0, 0, False
    while steps < max_steps and not done:
        acc = acc + cut.laser_power * cut.duty * dt
        done = acc >= need
        steps += 1
    return steps, acc, done


def same_bits(got, want):
    """(steps, energy, severed) equal, the energy bit for bit."""
    return (got[0], got[1].hex(), got[2]) == (want[0], want[1].hex(), want[2])


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

    @pytest.mark.parametrize("drop", [1e12, 1e300, 1e308])
    def test_any_drop_runs_with_no_fall_seen(self, tmp_path, drop):
        # the fall time has a closed form, so a fall of any length is found
        # at once (1e308 m falls for ever: 2 * drop overflows to inf); none
        # ends within the laser timeout, so every cut is not_detected
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": {"seed": 7}, "tool": {"interrupter_drop": drop}}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        records = map(json.loads, (tmp_path / "out" / "seed1" / "events.jsonl").read_text().splitlines())
        cycles = [r for r in records if r["event"] == "cycle"]
        assert len(cycles) == 9 and all(c["outcome"] == "not_detected" for c in cycles)


class TestCutModel:
    @pytest.mark.parametrize("fields, field", [
        ({"laser_power": 0.0}, "laser_power"),
        ({"duty": 0.0}, "duty"),
        ({"duty": 1.5}, "duty"),
        ({"cut_energy_per_area": -1.0}, "cut_energy_per_area"),
        ({"laser_timeout": 0.0}, "laser_timeout"),
        ({"dt": 1.0, "laser_timeout": MAX_TIMESTEPS + 1.0}, "dt"),
        ({"dt": 5e-324}, "dt"),
    ])
    def test_rules_name_their_field(self, fields, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            CutModel(**fields)


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

    def test_bent_stem_interpolation(self):
        # stem runs from (0.50, 0.01, 0.48) down to the fruit top at y=0
        fruit = StrawberryTruth(
            id=0, center=Vec3(0.42, 0.0, 0.40), radius=0.015, ripe=True,
            stem_top=Vec3(0.50, 0.01, 0.48), stem_diameter=0.003,
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
        t50, _ = run_cut_loop(replace(CUT, laser_power=50.0), fruit_with_lateral(0.0))
        t100, _ = run_cut_loop(replace(CUT, laser_power=100.0), fruit_with_lateral(0.0))
        assert abs(t100 - 1.15) <= 0.01
        assert t50 == pytest.approx(2.0 * t100, abs=0.01)

    def test_stepped_matches_closed_form(self):
        for dt in (0.01, 0.002, 0.05):
            for power in (25.0, 50.0, 80.0):
                cut = replace(CUT, laser_power=power)
                t, _ = run_cut_loop(cut, fruit_with_lateral(0.0), dt=dt)
                exact = cut_time_closed_form(power, cut.duty, DEFAULT_CUT_ENERGY_PER_AREA, 0.003)
                assert 0.0 <= t - exact <= dt + 1e-12

    def test_accumulation_monotone(self):
        prev = 0.0
        for k in range(1, 101):
            steps, acc, done = laser_step(capped(CUT, 0.01, k), fruit_with_lateral(0.0), GEOM)
            assert (steps, done) == (k, False)
            assert acc > prev
            prev = acc

    def test_dt_validation(self):
        for dt in (0.0, -0.01):
            with pytest.raises(ValueError, match="^dt must be > 0"):
                CutModel(dt=dt)

    def test_duty_for_stem(self):
        # a null duty is the stem's share of a lens stroke, at most 1 (a
        # 2 mm stroke is shorter than a 3 mm stem); a set one is itself
        fruit = fruit_with_lateral(0.0)
        assert CutModel().stem_duty(fruit, GEOM) == pytest.approx(0.5)
        assert CutModel().stem_duty(fruit, ToolGeometry(lens_stroke=0.002)) == 1.0
        assert CutModel(duty=0.25).stem_duty(fruit, GEOM) == 0.25

    def test_default_energy_constant_calibration(self):
        # the shipped constant makes the nominal 3 mm stem need exactly
        # 2.3 s of 50 W at duty 0.5
        e = required_cut_energy(CutModel(), fruit_with_lateral(0.0))
        assert e == pytest.approx(2.3 * 50.0 * 0.5, rel=1e-12)
        assert DEFAULT_CUT_ENERGY_PER_AREA == pytest.approx(
            57.5 / (math.pi * 0.0015**2), rel=1e-12
        )


class TestBurnEqualsStepLoop:
    """One `laser_step` call gives the steps and the bits of the energy of
    adding power * duty * dt once per timestep."""

    @pytest.mark.parametrize("chunk", [cutter.BURN_CHUNK, 7])
    def test_random_cuts(self, monkeypatch, chunk):
        monkeypatch.setattr(cutter, "BURN_CHUNK", chunk)
        rng = np.random.default_rng(31)
        outcomes = set()
        for _ in range(300):
            cut = CutModel(laser_power=float(rng.uniform(1.0, 200.0)), duty=float(rng.uniform(0.01, 1.0)))
            fruit = fruit_with_lateral(0.0, stem_diameter=float(rng.uniform(0.001, 0.005)))
            dt = float(10.0 ** rng.uniform(-3.5, -1.0))
            need_steps = required_cut_energy(cut, fruit) / (cut.laser_power * cut.duty * dt)
            max_steps = int(rng.integers(0, int(2 * need_steps) + 2))
            got = laser_step(capped(cut, dt, max_steps), fruit, GEOM)
            assert same_bits(got, sequential_burn(cut, fruit, dt, max_steps))
            outcomes.add(got[2])
        assert outcomes == {True, False}

    @pytest.mark.parametrize("chunk", [cutter.BURN_CHUNK, 7])
    def test_cut_exactly_on_the_threshold(self, monkeypatch, chunk):
        # the threshold is the energy after k steps itself, then one ulp
        # either side of it
        monkeypatch.setattr(cutter, "BURN_CHUNK", chunk)
        fruit = fruit_with_lateral(0.0)
        dt = 0.0037
        for k in (1, 2, 7, 8, 230, 4096, 4097):
            energy = sequential_burn(CUT, fruit, dt, k, need=math.inf)[1]
            for need, steps in ((energy, k), (math.nextafter(energy, 0.0), k), (math.nextafter(energy, math.inf), k + 1)):
                monkeypatch.setattr(cutter, "required_cut_energy", lambda _cut, _stem: need)
                got = laser_step(capped(CUT, dt, 5000), fruit, GEOM)
                assert got[0] == steps and got[2]
                assert same_bits(got, sequential_burn(CUT, fruit, dt, 5000, need=need))

    def test_timeout(self):
        fruit = fruit_with_lateral(0.0)
        got = laser_step(capped(CUT, 0.01, 229), fruit, GEOM)
        assert got[0] == 229 and not got[2]
        assert got[1] < required_cut_energy(CUT, fruit)
        assert same_bits(got, sequential_burn(CUT, fruit, 0.01, 229))
        assert laser_step(capped(CUT, 0.01, 230), fruit, GEOM)[2]

    def test_zero_steps(self):
        got = laser_step(capped(CUT, 0.01, 0), fruit_with_lateral(0.0), GEOM)
        assert same_bits(got, (0, 0.0, False))


class TestBurnMemo:
    """`laser_step` memoizes its burn on (energy needed, energy a step,
    max_steps); a hit gives the bits that the burn computes uncached."""

    @staticmethod
    def uncached(need, inc, max_steps):
        # the chunked accumulate of `laser_step`, with no memo
        steps, acc = 0, 0.0
        while steps < max_steps:
            burn = np.full(min(max_steps - steps, cutter.BURN_CHUNK), inc)
            burn[0] += acc
            burn = np.add.accumulate(burn)
            k = int(np.searchsorted(burn, need))
            if k < len(burn):
                return steps + k + 1, float(burn[k]), True
            steps += len(burn)
            acc = float(burn[-1])
        return steps, acc, False

    @pytest.mark.parametrize("chunk", [cutter.BURN_CHUNK, 7])
    def test_hits_equal_the_uncached_burn(self, monkeypatch, chunk):
        # caps and severing steps on either side of each chunk boundary,
        # every call made twice: a miss, then a hit
        monkeypatch.setattr(cutter, "BURN_CHUNK", chunk)
        fruit, dt = fruit_with_lateral(0.0), 0.0037
        inc = CUT.laser_power * CUT.duty * dt
        edges = sorted({max(0, m + d) for m in (0, 1, chunk, 2 * chunk, 3 * chunk) for d in (-1, 0, 1)})
        calls = 0
        for cut_at in edges[1:]:
            need = sequential_burn(CUT, fruit, dt, cut_at, need=math.inf)[1]
            monkeypatch.setattr(cutter, "required_cut_energy", lambda _cut, _stem: need)
            for max_steps in edges:
                want = self.uncached(need, inc, max_steps)
                assert same_bits(want, sequential_burn(CUT, fruit, dt, max_steps, need=need))
                for _ in range(2):
                    assert same_bits(laser_step(capped(CUT, dt, max_steps), fruit, GEOM), want)
                calls += 1
        info = cutter._burn.cache_info()
        assert (info.misses, info.hits) == (calls, calls)

    def test_key_tells_every_input_apart(self):
        # power (so the energy a step), dt, stem and cap each change the burn
        fruit = fruit_with_lateral(0.0)
        base = laser_step(capped(CUT, 0.01, 1000), fruit, GEOM)
        for got in (
            laser_step(capped(replace(CUT, laser_power=100.0), 0.01, 1000), fruit, GEOM),
            laser_step(capped(CUT, 0.02, 1000), fruit, GEOM),
            laser_step(capped(CUT, 0.01, 1000), fruit_with_lateral(0.0, stem_diameter=0.004), GEOM),
            laser_step(capped(CUT, 0.01, 100), fruit, GEOM),
        ):
            assert got[0] != base[0]
        assert laser_step(capped(CUT, 0.01, 1000), fruit, GEOM) == base

    def test_paper9_stems_burn_once(self, tmp_path):
        # the nine stems of a paper9 run share one key, and a second run hits it for all nine
        assert main(["run", "--config", "paper9", "--seed", "1", "--out", str(tmp_path / "a")]) == 0
        info = cutter._burn.cache_info()
        assert (info.misses, info.hits) == (1, 8)
        assert main(["run", "--config", "paper9", "--seed", "2", "--out", str(tmp_path / "b")]) == 0
        info = cutter._burn.cache_info()
        assert (info.misses, info.hits) == (1, 17)


class TestFreeFall:
    def test_detect_time_near_closed_form(self):
        t = free_fall_detect(GEOM, 0.01)
        exact = fall_time_closed_form(GEOM.interrupter_drop)
        assert exact == pytest.approx(0.10096, abs=1e-4)
        assert 0.0 <= t - exact <= 0.01

    def test_tiny_drop_detects_immediately(self):
        geom = ToolGeometry(interrupter_drop=1e-9)
        t = free_fall_detect(geom, 0.01)
        assert t <= 0.01

    def test_trace_shape(self):
        # t is on the dt grid and is its first time at which the fall
        # reaches the interrupter
        dt = 0.01
        t = free_fall_detect(GEOM, dt)
        k = int(round(t / dt))
        assert t == k * dt

        def fall(j):
            return 0.5 * GRAVITY * (j * dt) * (j * dt)

        assert fall(k) >= GEOM.interrupter_drop
        assert all(fall(j) < GEOM.interrupter_drop for j in range(k))

    def test_equals_the_stepped_fall(self):
        # the same bits as sampling every timestep from t = 0, on a grid of
        # drops (the longest fall 1.4 s, 14,000 steps of 1e-4 s) and timesteps
        for drop in (1e-9, 1e-4, 0.003, 0.01, 0.05, 0.1234, 1.0, 10.0):
            geom = ToolGeometry(interrupter_drop=drop)
            for dt in (1e-4, 3.7e-4, 0.001, 0.0037, 0.01, 0.02, 0.05, 0.3, 1.0, 100.0):
                assert free_fall_detect(geom, dt).hex() == fall_time_stepped(drop, dt).hex(), (drop, dt)

    def test_first_reaching_step_of_long_falls(self):
        # up to 2**53 timesteps, too many to step through: the time is that of
        # the first step whose fall reaches the drop. Near 2**53 the closed
        # form can start past that step, and neighbouring steps share a time
        def fall(k, dt):
            return 0.5 * GRAVITY * (k * dt) * (k * dt)

        rng = np.random.default_rng(3)
        for drop, dt in zip(10.0 ** rng.uniform(-6, 1, 20000), 10.0 ** rng.uniform(-16.5, -4, 20000)):
            drop, dt = float(drop), float(dt)
            if fall_time_closed_form(drop) / dt > 2**53:
                continue
            t = free_fall_detect(ToolGeometry(interrupter_drop=drop), dt)
            near = round(t / dt)
            k = min(j for j in range(near - 8, near + 9) if j * dt == t)
            assert fall(k, dt) >= drop > fall(k - 1, dt), (drop, dt)

    def test_tiny_dt_is_constant_time(self):
        # 1e11 timesteps to the interrupter at dt 1e-12 s; below 2**53 steps
        # the fall is still the first multiple of dt, past them the closed form
        exact = fall_time_closed_form(GEOM.interrupter_drop)
        k = round(free_fall_detect(GEOM, 1e-12) / 1e-12)
        assert 0.5 * GRAVITY * (k * 1e-12) ** 2 >= GEOM.interrupter_drop > 0.5 * GRAVITY * ((k - 1) * 1e-12) ** 2
        for dt in (1e-17, 1e-300, 1e-310, 5e-324):
            assert free_fall_detect(GEOM, dt) == exact

    def test_various_drops_within_one_dt(self):
        for drop in (0.01, 0.03, 0.05, 0.12):
            geom = ToolGeometry(interrupter_drop=drop)
            for dt in (0.01, 0.005):
                t = free_fall_detect(geom, dt)
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
