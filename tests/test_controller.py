import json
from dataclasses import replace

import pytest

from berrypick.camera import CameraRig, default_rig
from berrypick.cli import resolve_config_arg
from berrypick.config import apply_sweep_value, build_robot, build_scenario, resolve_config
from berrypick.controller import (
    _ALLOWED_TRANSITIONS,
    BuiltScenario,
    ControllerPhase,
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
from berrypick.scene import generate_scene

PARAMS = LocalizationParams()
GEOM = ToolGeometry()
CUT = CutModel()
ROBOT = build_robot(resolve_config({}))

NAMED = ("home", "move", "trap", "laser_on", "detach_detect", "laser_off", "release")


def quiet_rig():
    rig = default_rig()
    return CameraRig(*(replace(cam, depth_noise_sigma=0.0, dropout_rate=0.0) for cam in (rig.cam1, rig.cam2)))


def built_for(scene, rig=None, robot=ROBOT, cut=CUT, box_source="cameras", box_offset=Vec3(0.0, 0.0, 0.0)):
    return BuiltScenario(scene, rig or quiet_rig(), PARAMS, robot, GEOM, cut, box_source, box_offset)


def run(scene, seed=1, **kwargs):
    log, _ = run_harvest(built_for(scene, **kwargs), seed)
    return log


def outcomes(log):
    return [c["outcome"] for c in log.events("cycle")]


class TestEventOrder:
    def test_single_fruit_sequence(self):
        scene = generate_scene(2, 1)
        log = run(scene)
        assert outcomes(log) == ["harvested"]
        names = [r["event"] for r in log.records if r["event"] in NAMED]
        assert names == [
            "home", "move", "move", "move",
            "trap", "laser_on", "detach_detect", "laser_off", "release",
            "home",
        ]

    def test_timestamps_non_decreasing(self):
        scene = generate_scene(7, 9, 1.0, 0.001)
        log = run(scene)
        ts = [r["t"] for r in log.records]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_localization_runs_exactly_once(self):
        scene = generate_scene(7, 9)
        log = run(scene)
        assert len(log.events("localize")) == 1

    def test_fruits_processed_in_ascending_y(self):
        scene = generate_scene(7, 9, 1.0, 0.001)
        log = run(scene)
        by_id = {s.id: s for s in scene.strawberries}
        ys = [by_id[r["fruit"]].center.y for r in log.events("trap")]
        assert ys == sorted(ys)

    def test_three_moves_between_home_and_trap(self):
        scene = generate_scene(7, 9, 1.0, 0.001)
        log = run(scene)
        legs = [r["leg"] for r in log.events("move")]
        assert legs == ["descend", "align", "ascend"] * 9


class TestTrapMiss:
    def test_injected_20mm_offset_misses_all(self):
        scene = generate_scene(5, 3, 1.0, 0.0)
        log = run(scene, box_source="truth", box_offset=Vec3(0.0, 0.020, 0.0))
        assert outcomes(log) == ["missed_trap"] * 3
        assert log.events("laser_on") == []
        # release still happens on a miss (hardware-order parity)
        assert len(log.events("release")) == 3

    def test_boundary_15mm_offset_traps_all(self):
        scene = generate_scene(5, 3, 1.0, 0.0)
        log = run(scene, box_source="truth", box_offset=Vec3(0.0, 0.015, 0.0))
        assert outcomes(log) == ["harvested"] * 3

    def test_mixed_bend_outcomes_reported_per_fruit(self):
        scene = generate_scene(5, 3, 1.0, 0.0)
        log = run(scene, box_source="truth", box_offset=Vec3(0.0, 0.016, 0.0))
        assert outcomes(log) == ["missed_trap"] * 3
        assert [c["cut_time"] for c in log.events("cycle")] == [0.0, 0.0, 0.0]


class TestDeterminism:
    def test_rerun_byte_identical(self):
        scene = generate_scene(7, 9, 1.0, 0.001)
        rig = default_rig()
        texts = [run(scene, 3, rig=rig).to_jsonl() for _ in ("a", "b")]
        assert texts[0] == texts[1]

    def test_different_seed_changes_log(self):
        scene = generate_scene(7, 9, 1.0, 0.001)
        rig = default_rig()
        log_a = run(scene, 3, rig=rig)
        log_b = run(scene, 4, rig=rig)
        assert log_a.to_jsonl() != log_b.to_jsonl()


def mixed_log():
    """Truth boxes 14 mm off on bent stems: missed, harvested, missed,
    harvested, harvested."""
    return run(generate_scene(3, 5, 1.0, 0.005), box_source="truth", box_offset=Vec3(0.0, 0.014, 0.0))


class TestAccounting:
    def test_durations_sum_to_final_clock(self):
        harvested = run(generate_scene(7, 9, 1.0, 0.001))
        assert outcomes(harvested) == ["harvested"] * 9
        mixed = mixed_log()
        assert outcomes(mixed) == ["missed_trap", "harvested", "missed_trap", "harvested", "harvested"]
        # robustness offset_20_seed1: every trap misses
        missed, _ = run_harvest(build_scenario(apply_sweep_value(resolve_config_arg("robustness"), "offset", 20), 1), 1)
        assert outcomes(missed) == ["missed_trap"] * 5
        timed_out = run(generate_scene(5, 3, 1.0, 0.0), cut=CutModel(laser_power=0.001, laser_timeout=2.0),
                        box_source="truth")
        assert outcomes(timed_out) == ["not_detected"] * 3
        for log in (harvested, mixed, missed, timed_out):
            home_durs = sum(r["dur"] for r in log.events("home"))
            total = sum(c["cycle_time"] for c in log.events("cycle")) + home_durs
            end_t = log.events("end")[0]["t"]
            assert total == pytest.approx(end_t, abs=1e-6)

    @pytest.mark.parametrize("config, point", [("paper9", None), ("robustness", 20)], ids=["paper9", "offset_20"])
    def test_moves_chain_from_home_to_home(self, config, point):
        # each move starts where the one before it ended; a zero-length
        # home confirmation logs only where the tool is
        cfg = resolve_config_arg(config)
        if point is not None:
            cfg = apply_sweep_value(cfg, "offset", point)
        built = build_scenario(cfg, 1)
        log, _ = run_harvest(built, 1)
        home = [built.robot.home.x, built.robot.home.y, built.robot.home.z]
        moves = log.events("home", "move")
        assert len(moves) > 2
        pos = home
        for r in moves:
            start, end = (r["pos"], r["pos"]) if "pos" in r else (r["from"], r["to"])
            assert start == pos
            pos = end
        assert moves[0]["event"] == "home" and moves[0]["pos"] == home
        assert moves[-1]["event"] == "home" and moves[-1]["to"] == home

    def test_cycle_boundaries_are_detachments(self):
        # each cycle runs from the last release (or the first HOME arrival)
        # to its own release, which a harvest logs at its detachment
        for log in (run(generate_scene(7, 4, 1.0, 0.001)), mixed_log()):
            releases = [r["t"] for r in log.events("release")]
            bounds = [log.events("home")[0]["t"]] + releases
            cycles = log.events("cycle")
            assert len(cycles) == len(releases)
            for c, t0, t1 in zip(cycles, bounds, bounds[1:]):
                assert c["cycle_time"] == pytest.approx(t1 - t0, abs=1e-9)
            detaches = [r["t"] for r in log.events("detach_detect")]
            assert detaches == [t for c, t in zip(cycles, releases) if c["outcome"] == "harvested"]

    def test_halving_velocity_increases_cycle_not_cut(self):
        scene = generate_scene(7, 4, 1.0, 0.001)
        slow_robot = replace(ROBOT, velocity_scale=0.25)
        fast_robot = replace(ROBOT, velocity_scale=0.5)
        slow = run(scene, robot=slow_robot).events("cycle")
        fast = run(scene, robot=fast_robot).events("cycle")
        for s, f in zip(slow, fast):
            assert s["cycle_time"] > f["cycle_time"]
            assert s["cut_time"] == f["cut_time"]


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
        log = run(scene)
        self.check_log_safety(log)

    def test_missed_run_safe(self):
        scene = generate_scene(5, 3, 1.0, 0.0)
        log = run(scene, box_source="truth", box_offset=Vec3(0.0, 0.018, 0.0))
        self.check_log_safety(log)
        assert log.events("laser_on") == []


class TestNotDetected:
    def test_uncuttable_stem_times_out(self):
        scene = generate_scene(5, 1, 1.0, 0.0)
        tough = CutModel(laser_power=0.001, laser_timeout=2.0)
        log = run(scene, cut=tough, box_source="truth")
        assert outcomes(log) == ["not_detected"]
        assert len(log.events("laser_timeout")) == 1
        assert log.events("detach_detect") == []
        # laser off precedes release at the timeout
        names = [r["event"] for r in log.records]
        assert names.index("laser_off") < names.index("release")


class TestBoxOverAir:
    def test_second_box_closes_on_air(self, monkeypatch):
        scene = generate_scene(5, 1, 1.0, 0.0)
        (box,) = truth_boxes(scene.strawberries, PARAMS)

        def two_boxes(c1, c2, t1, t2, params, telemetry):
            # a stand-in that keeps localize's contract: it fills the counts
            telemetry.update(n_merged=len(c1) + len(c2), n_red=0, n_cells=0, n_cell_pairs=0,
                             n_clusters_raw=0, discarded_small=0, discarded_large=0)
            return [box, box]

        monkeypatch.setattr("berrypick.controller.localize", two_boxes)
        log = run(scene)
        assert outcomes(log) == ["harvested", "missed_trap"]
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


class TestNoFruit:
    def test_all_unripe_scene(self):
        scene = generate_scene(9, 4, ripe_fraction=0.0)
        log = run(scene)
        assert log.events("cycle") == []
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
        boxes = truth_boxes(scene.strawberries, PARAMS)
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
    """The `cycle` records of the event log, the run's only cycle reports."""

    def test_validation(self):
        # every cycle record has a known outcome and cycle_time >= cut_time >= 0,
        # over all-harvested, all-missed and all-timed-out runs
        paper9, robustness = resolve_config_arg("paper9"), resolve_config_arg("robustness")
        timeout2 = resolve_config({**paper9, "cut": {**paper9["cut"], "laser_timeout": 2.0}})
        seen = set()
        for cfg in (paper9, apply_sweep_value(robustness, "offset", 20), timeout2):
            log, _ = run_harvest(build_scenario(cfg, 1), 1)
            cycles = log.events("cycle")
            assert cycles
            for c in cycles:
                assert c["outcome"] in ("harvested", "missed_trap", "not_detected")
                assert c["cycle_time"] >= c["cut_time"] >= 0.0
            seen.update(c["outcome"] for c in cycles)
        assert seen == {"harvested", "missed_trap", "not_detected"}

    def test_cut_time_anchor_through_controller(self):
        scene = generate_scene(5, 1, 1.0, 0.0)
        (cycle,) = run(scene, box_source="truth").events("cycle")
        assert abs(cycle["cut_time"] - 2.3) <= 0.01


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

    def test_metrics_round_trip_through_jsonl(self):
        scene = generate_scene(7, 5, 1.0, 0.001)
        log = run(scene)
        direct = cycle_metrics(log)
        reloaded = HarvestEventLog()
        for line in log.to_jsonl().splitlines():
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

    def test_jsonl_round_trip(self):
        log = HarvestEventLog()
        log.append(0.0, "begin", n_ripe=0)
        log.append(1.5, "end")
        text = log.to_jsonl()
        assert text.endswith("\n")
        assert [json.loads(line) for line in text.splitlines()] == log.records
        # serialized form is canonical json lines
        for line in text.splitlines():
            assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line
