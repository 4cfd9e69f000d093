"""Harvesting state machine: localize once, then trap/cut/release per fruit.

A harvest pass starts at the HOME pose (clear of both camera views), runs
localization exactly once, computes the global descent height, then visits
every box in ascending-y order: descend, align in x/y, ascend around the
fruit, trap the stem, burn until a photo interrupter reports the falling
fruit, release, and move on. The trailing move returns to HOME. Every
fruit falls the same height to the interrupter, so a run finds the fall
time once, before its first cycle.

A run reads one `BuiltScenario`, which `config.build_scenario` assembles
from a resolved config and a run seed. Its ripe set is the ripe fruit
inside the robot's workspace (the crop window inflated by
`robot.workspace_margin`): the `begin` record counts them, and
ground-truth boxes are drawn from them. The scene is one value for the
whole run, as the cameras capture it once: each box is matched to the
nearest ripe fruit still hanging, and a harvested fruit is taken off
that list, so no later box is matched to it.

The event log is a run's only record: every move, tool action and
per-cycle summary (a `cycle` record) is appended with its simulation
timestamp, and rerunning with the same scene, configuration and seed
reproduces the log byte for byte. Wall-clock time never enters the log:
`run_harvest` returns the duration of its one `localize` call beside it
(None for ground-truth boxes), which callers keep in a sidecar artifact.

Each box is one cycle, closed by its `release` record: cycle i spans from
the close of cycle i-1 (or the first HOME arrival) to its own close, so a
harvested cycle ends at its detachment, and the cycle times plus the
`home` moves add up to the run's final clock.
"""

from __future__ import annotations

import enum
import json
import time
from dataclasses import dataclass

import numpy as np

from .camera import CameraRig, capture_rig
from .cutter import (
    CutModel,
    ToolGeometry,
    ToolState,
    free_fall_detect,
    laser_step,
    trap_stem,
)
from .errors import EmptyInputError, StateError
from .geometry import Aabb, Vec3, distance
from .localization import LocalizationParams, StrawberryBox, localize
from .motion import RobotState, compute_z_min, plan_cycle_waypoints, robot_move
from .scene import Scene, StrawberryTruth

LOG_SCHEMA_VERSION = 3

# encodes every event record; one encoder spares building one per record.
# The records are flat dicts of scalars and short lists, so none can hold a
# cycle, and the encoder skips the check for one
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


class ControllerPhase(enum.Enum):
    HOME = "HOME"
    DESCEND_ZMIN = "DESCEND_ZMIN"
    ALIGN_XY = "ALIGN_XY"
    ASCEND = "ASCEND"
    TRAP = "TRAP"
    CUT = "CUT"
    RELEASE = "RELEASE"
    DONE = "DONE"


_ALLOWED_TRANSITIONS = {
    ControllerPhase.HOME: {ControllerPhase.DESCEND_ZMIN, ControllerPhase.DONE},
    ControllerPhase.DESCEND_ZMIN: {ControllerPhase.ALIGN_XY},
    ControllerPhase.ALIGN_XY: {ControllerPhase.ASCEND},
    ControllerPhase.ASCEND: {ControllerPhase.TRAP},
    ControllerPhase.TRAP: {ControllerPhase.CUT, ControllerPhase.DESCEND_ZMIN, ControllerPhase.HOME},
    ControllerPhase.CUT: {ControllerPhase.RELEASE},
    ControllerPhase.RELEASE: {ControllerPhase.DESCEND_ZMIN, ControllerPhase.HOME},
    ControllerPhase.DONE: set(),
}


class HarvestEventLog:
    """Ordered, timestamped event records, written as canonical JSON lines."""

    def __init__(self):
        self.records: list[dict] = []

    def append(self, t: float, event: str, **fields) -> None:
        self.add({"t": float(t), "event": event, **fields})

    def add(self, rec: dict) -> None:
        """Append a whole record, whose `t` is a float and `event` a name."""
        t = rec["t"]
        if self.records and t < self.records[-1]["t"] - 1e-12:
            raise ValueError(f"event {rec['event']!r} at t={t} precedes the log tail")
        self.records.append(rec)

    def events(self, *names: str) -> list[dict]:
        """The records of the named events, in log order."""
        return [r for r in self.records if r["event"] in names]

    def to_jsonl(self) -> str:
        """The log as canonical JSON lines, one record per line.

        The records are encoded in one call, as a list; the list's brackets
        are dropped and the `},{` between each two records becomes a line
        break. That is sound only when the text holds no other `},{`: when it
        holds more than one per boundary (a string with `},{` in it),
        each record is encoded on its own instead."""
        if not self.records:
            return ""
        text = _CANONICAL_JSON.encode(self.records)
        if text.count("},{") == len(self.records) - 1:
            return text[1:-1].replace("},{", "}\n{") + "\n"
        return "".join(_CANONICAL_JSON.encode(rec) + "\n" for rec in self.records)

    def __len__(self) -> int:
        return len(self.records)


def truth_boxes(fruits: list[StrawberryTruth], params: LocalizationParams) -> list[StrawberryBox]:
    """Perfect boxes straight from the ground truth of `fruits`, in
    ascending-y order.

    Used by robustness sweeps that study the trap step function in
    isolation from camera and clustering effects. The synthetic point
    count is the minimum admissible cluster size.
    """
    boxes = []
    for i, s in enumerate(sorted(fruits, key=lambda s: (s.center.y, s.center.x, s.center.z))):
        lo = Vec3(s.center.x - s.radius, s.center.y - s.radius, s.center.z - s.radius)
        hi = Vec3(s.center.x + s.radius, s.center.y + s.radius, s.center.z + s.radius)
        boxes.append(StrawberryBox(index=i, box=Aabb(lo, hi), point_count=params.s_min))
    return boxes


def inject_localization_error(boxes: list[StrawberryBox], offset: Vec3) -> list[StrawberryBox]:
    """Translate every box by `offset`; ground truth is untouched."""
    return [StrawberryBox(b.index, b.box.translate(offset), b.point_count) for b in boxes]


class _PhaseTracker:
    def __init__(self):
        self.phase = ControllerPhase.HOME

    def advance(self, phase: ControllerPhase) -> None:
        if phase not in _ALLOWED_TRANSITIONS[self.phase]:
            raise StateError(f"illegal phase transition {self.phase.value} -> {phase.value}")
        self.phase = phase


@dataclass(frozen=True)
class BuiltScenario:
    """Everything one harvest run reads, built from a resolved config by
    `config.build_scenario`. `box_source` is "cameras" (localize camera
    clouds) or "truth" (perfect boxes from ground truth); `box_offset`
    translates the boxes to emulate a systematic localization error."""

    scene: Scene
    rig: CameraRig
    params: LocalizationParams
    robot: RobotState
    geom: ToolGeometry
    cut: CutModel
    box_source: str
    box_offset: Vec3


def run_harvest(
    built: BuiltScenario,
    seed: int,
    *,
    config_hash: str | None = None,
) -> tuple[HarvestEventLog, float | None]:
    """Execute one full harvest pass and return its log and the wall-clock
    milliseconds of its `localize` call (None for ground-truth boxes). The
    fruit to harvest are the ripe ones inside the robot's workspace."""
    scene, robot, offset = built.scene, built.robot, built.box_offset
    cut, geom = built.cut, built.geom
    fall_t = free_fall_detect(geom, cut.dt)
    log = HarvestEventLog()
    ctl = _PhaseTracker()
    ripe = [s for s in scene.strawberries if s.ripe and robot.workspace.contains(s.center)]
    log.append(
        0.0,
        "begin",
        schema=LOG_SCHEMA_VERSION,
        seed=seed,
        scene_seed=scene.rng_seed,
        rng="philox",
        n_straw=len(scene.strawberries),
        n_ripe=len(ripe),
        box_source=built.box_source,
        config_hash=config_hash,
    )

    # the tool starts at HOME; each move's target is its next position
    t = 0.0
    pos = robot.home
    rec = robot_move(robot, pos, pos, t)
    t = rec.t_end
    _log_move(log, rec, "home", None)
    cycle_start = t

    counts: dict = {}
    localization_ms = None
    if built.box_source == "truth":
        boxes = truth_boxes(ripe, built.params)
    else:
        rig = built.rig
        # the red rows of each camera's cloud, all that localize reads of it
        c1, c2 = capture_rig(scene, rig, seed, built.params)
        start = time.perf_counter()
        boxes = localize(c1, c2, rig.cam1.pose, rig.cam2.pose, built.params, counts)
        localization_ms = (time.perf_counter() - start) * 1e3
    boxes = inject_localization_error(boxes, offset)
    log.append(
        t,
        "localize",
        n_boxes=len(boxes),
        source=built.box_source,
        offset=_v(offset),
        **counts,
    )

    if boxes:
        z_min = compute_z_min(boxes)
        log.append(t, "z_min", value=z_min)
    else:
        log.append(t, "no_fruit")
    tool = ToolState()

    hanging = list(ripe)
    for box in boxes:
        fruit = _match_fruit(hanging, box)
        fid = fruit.id if fruit is not None else -1

        ctl.advance(ControllerPhase.DESCEND_ZMIN)
        legs = ("descend", "align", "ascend")
        for wp, leg in zip(plan_cycle_waypoints(box, z_min, pos), legs):
            rec = robot_move(robot, pos, wp, t)
            pos, t = wp, rec.t_end
            _log_move(log, rec, "move", fid, leg=leg)
            if leg == "descend":
                ctl.advance(ControllerPhase.ALIGN_XY)
            elif leg == "align":
                ctl.advance(ControllerPhase.ASCEND)
        ctl.advance(ControllerPhase.TRAP)

        tool.engage_trap()
        if fruit is None:
            # box with no live fruit underneath it: the trapper closes on air
            log.append(t, "trap", fruit=fid, outcome="missed", lateral_error=None)
            trapped = False
        else:
            trap = trap_stem(pos, fruit, geom)
            log.append(t, "trap", fruit=fid, outcome=trap.outcome, lateral_error=trap.lateral_error)
            trapped = trap.outcome != "missed"

        cut_time, outcome = 0.0, "missed_trap"
        if trapped:
            ctl.advance(ControllerPhase.CUT)
            tool.set_laser(True)
            log.append(t, "laser_on", fruit=fid, energy=0.0)
            steps, acc, done = laser_step(cut, fruit, geom)
            burn = steps * cut.dt
            if done and burn + fall_t <= cut.laser_timeout:
                t_cut = t + burn
                log.append(t_cut, "cut_done", fruit=fid, energy=acc)
                t = t_cut + fall_t
                hanging.remove(fruit)
                log.append(t, "detach_detect", fruit=fid, energy=acc, ir=[False, True])
                cut_time, outcome = burn, "harvested"
            else:
                t += cut.laser_timeout
                log.append(t, "laser_timeout", fruit=fid, energy=acc)
                cut_time, outcome = (burn if done else 0.0), "not_detected"
            tool.set_laser(False)
            log.append(t, "laser_off", fruit=fid, energy=acc)
            ctl.advance(ControllerPhase.RELEASE)

        # every cycle ends here, and the next one starts
        tool.release_stem()
        log.append(t, "release", fruit=fid)
        log.append(t, "cycle", fruit=fid, cycle_time=t - cycle_start, cut_time=cut_time, outcome=outcome)
        cycle_start = t

    rec = robot_move(robot, pos, robot.home, t)
    t = rec.t_end
    _log_move(log, rec, "home", None)
    if boxes:
        ctl.advance(ControllerPhase.HOME)
    ctl.advance(ControllerPhase.DONE)
    log.append(t, "end")
    return log, localization_ms


def _log_move(log: HarvestEventLog, rec, event: str, fruit_id, leg: str | None = None) -> None:
    # zero-length home confirmations carry no from/to; real motion always does
    if event == "home" and rec.duration == 0.0:
        log.append(rec.t_end, "home", pos=_v(rec.to_pos), dur=0.0)
        return
    record = {
        "t": float(rec.t_start),
        "event": event,
        "from": _v(rec.from_pos),
        "to": _v(rec.to_pos),
        "dur": rec.duration,
    }
    if fruit_id is not None:
        record["fruit"] = fruit_id
    if leg is not None:
        record["leg"] = leg
    log.add(record)


def _v(p: Vec3) -> list[float]:
    return [p.x, p.y, p.z]


def _match_fruit(hanging: list[StrawberryTruth], box: StrawberryBox) -> StrawberryTruth | None:
    """The fruit in `hanging` nearest the box's center, or None when none
    is left; ties go to the earliest in the list."""
    if not hanging:
        return None
    center = box.box.center
    return min(hanging, key=lambda s: distance(s.center, center))


def cycle_metrics(log: HarvestEventLog) -> dict:
    """Aggregate a log into mean cycle/cut time and success rate."""
    if len(log) == 0:
        raise EmptyInputError("cannot compute metrics of an empty log")
    begin = log.records[0]
    if begin["event"] != "begin":
        raise ValueError("log does not start with a begin record")
    cycles = log.events("cycle")
    harvested = [c for c in cycles if c["outcome"] == "harvested"]
    n_ripe = begin["n_ripe"]
    return {
        "n_cycles": len(cycles),
        "n_harvested": len(harvested),
        "n_missed_trap": sum(1 for c in cycles if c["outcome"] == "missed_trap"),
        "n_not_detected": sum(1 for c in cycles if c["outcome"] == "not_detected"),
        "n_ripe": n_ripe,
        "mean_cycle_time": (
            float(np.mean([c["cycle_time"] for c in harvested])) if harvested else None
        ),
        "mean_cut_time": (
            float(np.mean([c["cut_time"] for c in harvested])) if harvested else None
        ),
        "success_rate": (len(harvested) / n_ripe) if n_ripe else None,
    }
