"""Harvesting state machine: localize once, then trap/cut/release per fruit.

A harvest pass starts at the HOME pose (clear of both camera views), runs
localization exactly once, computes the global descent height, then visits
every box in ascending-y order: descend, align in x/y, ascend around the
fruit, trap the stem, burn until a photo interrupter reports the falling
fruit, release, and move on. The trailing move returns to HOME.

The event log is the authoritative record: every move, tool action and
per-cycle summary is appended with its simulation timestamp, and rerunning
with the same scene, configuration and seed reproduces the log byte for
byte. Wall-clock measurements (localization latency) never enter the log;
they are surfaced through the optional telemetry dict so callers can keep
them in a sidecar artifact.

Cycle accounting follows the detachment-to-detachment convention: cycle i
spans from detachment i-1 (or the first HOME arrival) to detachment i.
"""

from __future__ import annotations

import enum
import json
from dataclasses import replace, dataclass

import numpy as np

from .camera import CameraRig, capture_rig
from .cutter import (
    CutModel,
    ToolGeometry,
    ToolState,
    duty_for_stem,
    free_fall_detect,
    laser_step,
    trap_stem,
)
from .errors import EmptyInputError, StateError
from .geometry import Aabb, Vec3, distance
from .localization import LocalizationParams, StrawberryBox, localize
from .motion import RobotState, compute_z_min, plan_cycle_waypoints, robot_move
from .scene import Scene, detach_fruit

LOG_SCHEMA_VERSION = 1

# simulation timestep and laser timeout, seconds; also the `cut` config defaults
DEFAULT_DT = 0.01
DEFAULT_LASER_TIMEOUT = 10.0


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


def allowed_transitions(phase: ControllerPhase) -> set[ControllerPhase]:
    return set(_ALLOWED_TRANSITIONS[phase])


@dataclass(frozen=True)
class CycleReport:
    fruit_id: int
    cycle_time: float
    cut_time: float
    outcome: str  # harvested | missed_trap | not_detected

    def __post_init__(self):
        if self.outcome not in ("harvested", "missed_trap", "not_detected"):
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if not self.cycle_time >= self.cut_time >= 0.0:
            raise ValueError("require cycle_time >= cut_time >= 0")


class HarvestEventLog:
    """Ordered, timestamped event records with JSONL round-tripping."""

    def __init__(self, records: list[dict] | None = None):
        self.records: list[dict] = list(records or [])

    def append(self, t: float, event: str, **fields) -> None:
        if self.records and t < self.records[-1]["t"] - 1e-12:
            raise ValueError(f"event {event!r} at t={t} precedes the log tail")
        rec = {"t": float(t), "event": event}
        rec.update(fields)
        self.records.append(rec)

    def events(self, *names: str) -> list[dict]:
        if not names:
            return list(self.records)
        return [r for r in self.records if r["event"] in names]

    def to_jsonl(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "HarvestEventLog":
        with open(path) as fh:
            return cls([json.loads(line) for line in fh if line.strip()])

    def __len__(self) -> int:
        return len(self.records)


def truth_boxes(scene: Scene, params: LocalizationParams) -> list[StrawberryBox]:
    """Perfect per-fruit boxes straight from ground truth.

    Used by robustness sweeps that study the trap step function in
    isolation from camera and clustering effects. The synthetic point
    count is the minimum admissible cluster size.
    """
    fruits = sorted(scene.ripe_in_workspace(), key=lambda s: (s.center.y, s.center.x, s.center.z))
    boxes = []
    for i, s in enumerate(fruits):
        lo = Vec3(s.center.x - s.radius, s.center.y - s.radius, s.center.z - s.radius)
        hi = Vec3(s.center.x + s.radius, s.center.y + s.radius, s.center.z + s.radius)
        boxes.append(StrawberryBox(index=i, box=Aabb(lo, hi), point_count=params.s_min))
    return boxes


def inject_localization_error(boxes: list[StrawberryBox], offset: Vec3) -> list[StrawberryBox]:
    """Translate every box by `offset`; ground truth is untouched."""
    return [replace(b, box=b.box.translate(offset)) for b in boxes]


class _PhaseTracker:
    def __init__(self):
        self.phase = ControllerPhase.HOME

    def advance(self, phase: ControllerPhase) -> None:
        if phase not in _ALLOWED_TRANSITIONS[self.phase]:
            raise StateError(f"illegal phase transition {self.phase.value} -> {phase.value}")
        self.phase = phase


def run_harvest(
    scene: Scene,
    rig: CameraRig,
    params: LocalizationParams,
    robot: RobotState,
    geom: ToolGeometry,
    cut: CutModel,
    seed: int,
    *,
    dt: float = DEFAULT_DT,
    laser_timeout: float = DEFAULT_LASER_TIMEOUT,
    box_source: str = "cameras",
    box_offset: Vec3 | None = None,
    derive_duty: bool = True,
    config_hash: str | None = None,
    telemetry: dict | None = None,
) -> tuple[HarvestEventLog, list[CycleReport]]:
    """Execute one full harvest pass and return its log and cycle reports.

    `box_source` selects camera-driven localization ("cameras") or perfect
    ground-truth boxes ("truth"); `box_offset` translates the boxes after
    localization to emulate a systematic localization error.
    """
    if box_source not in ("cameras", "truth"):
        raise ValueError(f"box_source must be 'cameras' or 'truth', got {box_source!r}")
    log = HarvestEventLog()
    ctl = _PhaseTracker()
    ripe = scene.ripe_in_workspace()
    log.append(
        0.0,
        "begin",
        schema=LOG_SCHEMA_VERSION,
        seed=seed,
        scene_seed=scene.rng_seed,
        rng="philox",
        n_straw=len(scene.strawberries),
        n_ripe=len(ripe),
        box_source=box_source,
        config_hash=config_hash,
    )

    t = 0.0
    state, rec = robot_move(robot, robot.home, t)
    t = rec.t_end
    _log_move(log, rec, "home", None)
    cycle_start = t

    if box_source == "truth":
        boxes = truth_boxes(scene, params)
        if telemetry is not None:
            telemetry.update(duration_ms=0.0, n_boxes=len(boxes))
    else:
        c1, c2 = capture_rig(scene, rig, seed)
        loc_tel: dict = {}
        boxes = localize(c1, c2, rig.cam1.pose, rig.cam2.pose, params, loc_tel)
        log_counts = {k: loc_tel[k] for k in ("n_merged", "n_cropped", "n_red") if k in loc_tel}
        if telemetry is not None:
            telemetry.update(loc_tel)
            telemetry["clouds"] = (c1, c2)
    if box_offset is not None:
        boxes = inject_localization_error(boxes, box_offset)
    log.append(
        t,
        "localize",
        n_boxes=len(boxes),
        source=box_source,
        offset=[box_offset.x, box_offset.y, box_offset.z] if box_offset else [0.0, 0.0, 0.0],
        **(log_counts if box_source == "cameras" else {}),
    )

    reports: list[CycleReport] = []
    if not boxes:
        log.append(t, "no_fruit")
        state, rec = robot_move(state, robot.home, t)
        t = rec.t_end
        _log_move(log, rec, "home", None)
        ctl.advance(ControllerPhase.DONE)
        log.append(t, "end")
        return log, reports

    z_min = compute_z_min(boxes)
    log.append(t, "z_min", value=z_min)
    tool = ToolState()

    for box in boxes:
        fruit = _match_fruit(scene, box)
        fid = fruit.id if fruit is not None else -1

        ctl.advance(ControllerPhase.DESCEND_ZMIN)
        legs = ("descend", "align", "ascend")
        for wp, leg in zip(plan_cycle_waypoints(box, z_min, state.tool_pos), legs):
            state, rec = robot_move(state, wp, t)
            t = rec.t_end
            _log_move(log, rec, "move", fid, leg=leg)
            if leg == "descend":
                ctl.advance(ControllerPhase.ALIGN_XY)
            elif leg == "align":
                ctl.advance(ControllerPhase.ASCEND)
        ctl.advance(ControllerPhase.TRAP)

        if fruit is None:
            # box with no live fruit underneath it: the trapper closes on air
            tool.engage_trap()
            log.append(t, "trap", fruit=fid, outcome="missed", lateral_error=None)
            tool.release_stem()
            log.append(t, "release", fruit=fid)
            reports.append(CycleReport(fid, t - cycle_start, 0.0, "missed_trap"))
            log.append(t, "cycle", fruit=fid, cycle_time=t - cycle_start, cut_time=0.0, outcome="missed_trap")
            continue

        tool.engage_trap()
        trap = trap_stem(state.tool_pos, fruit, geom)
        log.append(t, "trap", fruit=fid, outcome=trap.outcome, lateral_error=trap.lateral_error)

        if trap.outcome == "missed":
            tool.release_stem()
            log.append(t, "release", fruit=fid)
            reports.append(CycleReport(fid, t - cycle_start, 0.0, "missed_trap"))
            log.append(t, "cycle", fruit=fid, cycle_time=t - cycle_start, cut_time=0.0, outcome="missed_trap")
            continue

        ctl.advance(ControllerPhase.CUT)
        cut_i = replace(cut, duty=duty_for_stem(fruit.stem_diameter, geom)) if derive_duty else cut
        tool.set_laser(True)
        log.append(t, "laser_on", fruit=fid, energy=0.0)
        max_steps = int(round(laser_timeout / dt))
        acc = 0.0
        done = False
        steps = 0
        while steps < max_steps and not done:
            acc, done = laser_step(cut_i, fruit, dt, acc)
            steps += 1
        cut_time = steps * dt

        detected = False
        fall_t = 0.0
        if done:
            fall_t = free_fall_detect(fruit, geom, dt)
            detected = cut_time + fall_t <= laser_timeout
        if not detected:
            t_off = t + laser_timeout
            log.append(t_off, "laser_timeout", fruit=fid, energy=acc)
            tool.set_laser(False)
            log.append(t_off, "laser_off", fruit=fid, energy=acc)
            ctl.advance(ControllerPhase.RELEASE)
            tool.release_stem()
            log.append(t_off, "release", fruit=fid)
            t = t_off
            rep_cut = cut_time if done else 0.0
            reports.append(CycleReport(fid, t - cycle_start, rep_cut, "not_detected"))
            log.append(
                t, "cycle", fruit=fid, cycle_time=t - cycle_start,
                cut_time=rep_cut, outcome="not_detected",
            )
            continue

        t_cut = t + cut_time
        log.append(t_cut, "cut_done", fruit=fid, energy=acc)
        t_detach = t_cut + fall_t
        scene = detach_fruit(scene, fid)
        log.append(t_detach, "detach_detect", fruit=fid, energy=acc, ir=[False, True])
        tool.set_laser(False)
        log.append(t_detach, "laser_off", fruit=fid, energy=acc)
        ctl.advance(ControllerPhase.RELEASE)
        tool.release_stem()
        log.append(t_detach, "release", fruit=fid)
        t = t_detach

        reports.append(CycleReport(fid, t_detach - cycle_start, cut_time, "harvested"))
        log.append(
            t, "cycle", fruit=fid, cycle_time=t_detach - cycle_start,
            cut_time=cut_time, outcome="harvested",
        )
        cycle_start = t_detach

    state, rec = robot_move(state, robot.home, t)
    t = rec.t_end
    _log_move(log, rec, "home", None)
    ctl.advance(ControllerPhase.HOME)
    ctl.advance(ControllerPhase.DONE)
    log.append(t, "end")
    return log, reports


def _log_move(log: HarvestEventLog, rec, event: str, fruit_id, **extra) -> None:
    # zero-length home confirmations carry no from/to; real motion always does
    if event == "home" and rec.duration == 0.0:
        log.append(rec.t_end, "home", pos=_v(rec.to_pos), dur=0.0)
        return
    fields = {
        "from": _v(rec.from_pos),
        "to": _v(rec.to_pos),
        "dur": rec.duration,
    }
    if fruit_id is not None:
        fields["fruit"] = fruit_id
    fields.update(extra)
    log.append(rec.t_start, event, **fields)


def _v(p: Vec3) -> list[float]:
    return [p.x, p.y, p.z]


def _match_fruit(scene: Scene, box: StrawberryBox):
    candidates = [s for s in scene.strawberries if s.ripe and not s.detached]
    if not candidates:
        return None
    center = box.box.center
    return min(candidates, key=lambda s: distance(s.center, center))


def cycle_metrics(log: HarvestEventLog, wallclock: dict | None = None) -> dict:
    """Aggregate a log into mean cycle/cut time and success rate.

    Localization latency is wall-clock data and lives outside the log; pass
    the sidecar dict to include it.
    """
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
        "localization_ms": wallclock.get("localization_ms") if wallclock else None,
    }
