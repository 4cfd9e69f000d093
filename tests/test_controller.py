import json

import numpy as np
import pytest

from berrypick.camera import default_rig
from berrypick.controller import (
    _ALLOWED_TRANSITIONS,
    ControllerPhase,
    CycleReport,
    HarvestEventLog,
    cycle_metrics,
    inject_localization_error,
    run_harvest,
    truth_boxes,
)
from berrypick.cutter import CutModel, ToolGeometry
from berrypick.errors import EmptyInputError
from berrypick.geometry import Aabb, Vec3
from berrypick.localization import LocalizationParams, StrawberryBox
from berrypick.motion import DEFAULT_HOME, RobotState
from berrypick.scene import generate_scene

PARAMS = LocalizationParams()
GEOM = ToolGeometry()
CUT = CutModel()
ROBOT = RobotState(tool_pos=DEFAULT_HOME)

NAMED = ("home", "move", "trap", "laser_on", "detach_detect", "laser_off", "release")


def quiet_rig():
    return default_rig(depth_noise_sigma=0.0, dropout_rate=0.0)


def run(scene, seed=1, rig=None, robot=ROBOT, **kwargs):
    return run_harvest(scene, rig or quiet_rig(), PARAMS, robot, GEOM, CUT, seed, **kwargs)


class TestEventOrder:
    def test_single_fruit_sequence(self):
        scene = generate_scene(2, 1)
        log, reports = run(scene)
        assert [r.outcome for r in reports] == ["harvested"]
        names = [r["event"] for r in log.records if r["event"] in NAMED]
        assert names == [
            "home", "move", "move", "move",
            "trap", "laser_on", "detach_detect", "laser_off", "release",
            "home",
        ]

    def test_timestamps_non_decreasing(self):
        scene = generate_scene(7, 9, 1.0, 0.001)
        log, _ = run(scene)
        ts = [r["t"] for r in log.records]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_localization_runs_exactly_once(self):
        scene = generate_scene(7, 9)
        log, _ = run(scene)
        assert len(log.events("localize")) == 1

    def test_fruits_processed_in_ascending_y(self):
        scene = generate_scene(7, 9, 1.0, 0.001)
        log, _ = run(scene)
        by_id = {s.id: s for s in scene.strawberries}
        ys = [by_id[r["fruit"]].center.y for r in log.events("trap")]
        assert ys == sorted(ys)

    def test_three_moves_between_home_and_trap(self):
        scene = generate_scene(7, 9, 1.0, 0.001)
        log, _ = run(scene)
        legs = [r["leg"] for r in log.events("move")]
        assert legs == ["descend", "align", "ascend"] * 9


class TestTrapMiss:
    def test_injected_20mm_offset_misses_all(self):
        scene = generate_scene(5, 3, 1.0, 0.0)
        log, reports = run(scene, box_source="truth", box_offset=Vec3(0.0, 0.020, 0.0))
        assert all(r.outcome == "missed_trap" for r in reports)
        assert log.events("laser_on") == []
        # release still happens on a miss (hardware-order parity)
        assert len(log.events("release")) == 3

    def test_boundary_15mm_offset_traps_all(self):
        scene = generate_scene(5, 3, 1.0, 0.0)
        _, reports = run(scene, box_source="truth", box_offset=Vec3(0.0, 0.015, 0.0))
        assert all(r.outcome == "harvested" for r in reports)

    def test_zero_offset_identical_to_baseline(self, tmp_path):
        scene = generate_scene(5, 3, 1.0, 0.0)
        log_a, _ = run(scene, box_source="truth", box_offset=None)
        log_b, _ = run(scene, box_source="truth", box_offset=Vec3(0.0, 0.0, 0.0))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        log_a.to_jsonl(a)
        log_b.to_jsonl(b)
        assert a.read_bytes() == b.read_bytes()

    def test_mixed_bend_outcomes_reported_per_fruit(self):
        scene = generate_scene(5, 3, 1.0, 0.0)
        log, reports = run(scene, box_source="truth", box_offset=Vec3(0.0, 0.016, 0.0))
        assert all(r.outcome == "missed_trap" for r in reports)
        assert [r.cut_time for r in reports] == [0.0, 0.0, 0.0]


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        scene = generate_scene(7, 9, 1.0, 0.001)
        rig = default_rig()
        paths = []
        for name in ("a", "b"):
            log, _ = run_harvest(scene, rig, PARAMS, ROBOT, GEOM, CUT, 3)
            p = tmp_path / f"{name}.jsonl"
            log.to_jsonl(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seed_changes_log(self, tmp_path):
        scene = generate_scene(7, 9, 1.0, 0.001)
        rig = default_rig()
        log_a, _ = run_harvest(scene, rig, PARAMS, ROBOT, GEOM, CUT, 3)
        log_b, _ = run_harvest(scene, rig, PARAMS, ROBOT, GEOM, CUT, 4)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        log_a.to_jsonl(a)
        log_b.to_jsonl(b)
        assert a.read_bytes() != b.read_bytes()


class TestAccounting:
    def test_durations_sum_to_final_clock(self):
        scene = generate_scene(7, 9, 1.0, 0.001)
        log, reports = run(scene)
        assert all(r.outcome == "harvested" for r in reports)
        home_durs = sum(r["dur"] for r in log.events("home"))
        total = sum(r.cycle_time for r in reports) + home_durs
        end_t = log.events("end")[0]["t"]
        assert total == pytest.approx(end_t, abs=1e-6)

    def test_cycle_boundaries_are_detachments(self):
        scene = generate_scene(7, 4, 1.0, 0.001)
        log, reports = run(scene)
        detaches = [r["t"] for r in log.events("detach_detect")]
        start = log.events("home")[0]["t"]
        bounds = [start] + detaches
        for rep, t0, t1 in zip(reports, bounds, bounds[1:]):
            assert rep.cycle_time == pytest.approx(t1 - t0, abs=1e-9)

    def test_halving_velocity_increases_cycle_not_cut(self):
        scene = generate_scene(7, 4, 1.0, 0.001)
        slow_robot = RobotState(tool_pos=DEFAULT_HOME, velocity_scale=0.25)
        fast_robot = RobotState(tool_pos=DEFAULT_HOME, velocity_scale=0.5)
        _, slow = run(scene, robot=slow_robot)
        _, fast = run(scene, robot=fast_robot)
        for s, f in zip(slow, fast):
            assert s.cycle_time > f.cycle_time
            assert s.cut_time == f.cut_time


class TestSafety:
    @staticmethod
    def check_log_safety(log):
        trapped = set()
        detached = set()
        energy_at_detach = {}
        for rec in log.records:
            ev = rec["event"]
            if ev == "trap" and rec["outcome"] == "trapped":
                trapped.add(rec["fruit"])
            elif ev == "laser_on":
                assert rec["fruit"] in trapped, "laser_on without successful trap"
            elif ev == "detach_detect":
                detached.add(rec["fruit"])
                energy_at_detach[rec["fruit"]] = rec["energy"]
            elif ev in ("laser_off", "cut_done") and rec["fruit"] in detached:
                assert rec["energy"] == energy_at_detach[rec["fruit"]], "energy accrued after detach"

    def test_nominal_run_safe(self):
        scene = generate_scene(7, 9, 1.0, 0.001)
        log, _ = run(scene)
        self.check_log_safety(log)

    def test_missed_run_safe(self):
        scene = generate_scene(5, 3, 1.0, 0.0)
        log, _ = run(scene, box_source="truth", box_offset=Vec3(0.0, 0.018, 0.0))
        self.check_log_safety(log)
        assert log.events("laser_on") == []


class TestNotDetected:
    def test_uncuttable_stem_times_out(self):
        scene = generate_scene(5, 1, 1.0, 0.0)
        tough = CutModel(laser_power=0.001)
        log, reports = run_harvest(
            scene, quiet_rig(), PARAMS, ROBOT, GEOM, tough, 1,
            box_source="truth", laser_timeout=2.0,
        )
        assert [r.outcome for r in reports] == ["not_detected"]
        assert len(log.events("laser_timeout")) == 1
        assert log.events("detach_detect") == []
        # laser off precedes release at the timeout
        names = [r["event"] for r in log.records]
        assert names.index("laser_off") < names.index("release")


class TestBoxOverAir:
    def test_second_box_closes_on_air(self, monkeypatch):
        scene = generate_scene(5, 1, 1.0, 0.0)
        (box,) = truth_boxes(scene, PARAMS)
        monkeypatch.setattr("berrypick.controller.localize", lambda *args, **kwargs: [box, box])
        log, reports = run(scene)
        assert [r.outcome for r in reports] == ["harvested", "missed_trap"]
        detach_t = log.events("detach_detect")[0]["t"]
        air = [r for r in log.records if r.get("fruit") == -1 and r["event"] != "move"]
        t = air[0]["t"]
        assert air == [
            {"t": t, "event": "trap", "fruit": -1, "outcome": "missed", "lateral_error": None},
            {"t": t, "event": "release", "fruit": -1},
            {"t": t, "event": "cycle", "fruit": -1, "cycle_time": t - detach_t, "cut_time": 0.0,
             "outcome": "missed_trap"},
        ]
        assert [r["event"] for r in log.records[-2:]] == ["home", "end"]
        assert reports[1] == CycleReport(-1, t - detach_t, 0.0, "missed_trap")


class TestNoFruit:
    def test_all_unripe_scene(self):
        scene = generate_scene(9, 4, ripe_fraction=0.0)
        log, reports = run(scene)
        assert reports == []
        assert len(log.events("no_fruit")) == 1
        assert log.events("laser_on") == []


class TestInjectError:
    def test_translation(self):
        box = StrawberryBox(0, Aabb(Vec3(0.4, 0.0, 0.35), Vec3(0.43, 0.03, 0.38)), 50)
        (out,) = inject_localization_error([box], Vec3(0.0, 0.015, 0.0))
        assert out.box.min.y == pytest.approx(0.015)
        assert out.box.max.y == pytest.approx(0.045)
        assert out.box.min.x == box.box.min.x
        assert out.index == 0 and out.point_count == 50

    def test_truth_boxes_sorted_and_contain_centers(self):
        scene = generate_scene(5, 5, 1.0, 0.002)
        boxes = truth_boxes(scene, PARAMS)
        ys = [b.box.center.y for b in boxes]
        assert ys == sorted(ys)
        for b in boxes:
            assert any(b.box.contains(s.center) for s in scene.strawberries)


class TestPhases:
    def test_transition_table(self):
        assert ControllerPhase.DESCEND_ZMIN in _ALLOWED_TRANSITIONS[ControllerPhase.HOME]
        assert _ALLOWED_TRANSITIONS[ControllerPhase.DESCEND_ZMIN] == {ControllerPhase.ALIGN_XY}
        assert _ALLOWED_TRANSITIONS[ControllerPhase.ALIGN_XY] == {ControllerPhase.ASCEND}
        assert _ALLOWED_TRANSITIONS[ControllerPhase.ASCEND] == {ControllerPhase.TRAP}
        assert ControllerPhase.CUT in _ALLOWED_TRANSITIONS[ControllerPhase.TRAP]
        assert ControllerPhase.DESCEND_ZMIN in _ALLOWED_TRANSITIONS[ControllerPhase.TRAP]
        assert _ALLOWED_TRANSITIONS[ControllerPhase.CUT] == {ControllerPhase.RELEASE}
        assert ControllerPhase.HOME in _ALLOWED_TRANSITIONS[ControllerPhase.RELEASE]
        assert _ALLOWED_TRANSITIONS[ControllerPhase.DONE] == set()


class TestCycleReports:
    def test_validation(self):
        with pytest.raises(ValueError):
            CycleReport(0, 1.0, 2.0, "harvested")
        with pytest.raises(ValueError):
            CycleReport(0, 5.0, 1.0, "vanished")

    def test_cut_time_anchor_through_controller(self):
        scene = generate_scene(5, 1, 1.0, 0.0)
        _, reports = run(scene, box_source="truth")
        assert abs(reports[0].cut_time - 2.3) <= 0.01


class TestMetrics:
    def synthetic_log(self, cycles):
        log = HarvestEventLog()
        log.append(0.0, "begin", schema=1, seed=0, scene_seed=0, rng="philox",
                   n_straw=len(cycles), n_ripe=len(cycles), box_source="truth", config_hash=None)
        t = 0.0
        for i, (cycle, cut, outcome) in enumerate(cycles):
            t += cycle
            log.append(t, "cycle", fruit=i, cycle_time=cycle, cut_time=cut, outcome=outcome)
        log.append(t, "end")
        return log

    def test_single_cycle(self):
        m = cycle_metrics(self.synthetic_log([(8.0, 2.3, "harvested")]))
        assert m["mean_cycle_time"] == 8.0
        assert m["mean_cut_time"] == 2.3
        assert m["success_rate"] == 1.0

    def test_two_cycle_mean(self):
        m = cycle_metrics(self.synthetic_log([(6.0, 2.0, "harvested"), (10.0, 2.0, "harvested")]))
        assert m["mean_cycle_time"] == 8.0

    def test_metrics_round_trip_through_jsonl(self, tmp_path):
        scene = generate_scene(7, 5, 1.0, 0.001)
        log, _ = run(scene)
        direct = cycle_metrics(log)
        path = tmp_path / "events.jsonl"
        log.to_jsonl(path)
        reloaded = HarvestEventLog()
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            reloaded.append(rec.pop("t"), rec.pop("event"), **rec)
        assert cycle_metrics(reloaded) == direct

    def test_empty_log_rejected(self):
        with pytest.raises(EmptyInputError):
            cycle_metrics(HarvestEventLog())

    def test_missed_not_in_means(self):
        m = cycle_metrics(self.synthetic_log([
            (6.0, 2.0, "harvested"), (3.0, 0.0, "missed_trap"),
        ]))
        assert m["mean_cycle_time"] == 6.0
        assert m["success_rate"] == 0.5


class TestLogType:
    def test_rejects_time_regression(self):
        log = HarvestEventLog()
        log.append(1.0, "begin")
        with pytest.raises(ValueError):
            log.append(0.5, "end")

    def test_jsonl_round_trip(self, tmp_path):
        log = HarvestEventLog()
        log.append(0.0, "begin", n_ripe=0)
        log.append(1.5, "end")
        p = tmp_path / "log.jsonl"
        log.to_jsonl(p)
        assert [json.loads(line) for line in p.read_text().splitlines()] == log.records
        # serialized form is canonical json lines
        for line in p.read_text().splitlines():
            assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line
