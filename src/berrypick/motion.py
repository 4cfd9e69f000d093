"""Tool-tip Cartesian motion: blocking straight-line moves at scaled speed.

The tool orientation is fixed to the base frame orientation throughout, so
only the 3D tool position is modeled. Moves are constant-speed straight
lines with no acceleration phase; duration is distance divided by
(velocity_scale * max_speed). Timing claims against the physical system
are validated through a calibrated scenario, not through this model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import EmptyInputError, MotionRejectedError
from .geometry import Aabb, Vec3, distance
from .localization import StrawberryBox

# empirically motivated approach offsets applied to box maxima
X_SAFETY_OFFSET = 0.010
Z_SAFETY_OFFSET = 0.015
Z_MIN_CLEARANCE = 0.010

DEFAULT_HOME = Vec3(0.20, -0.35, 0.44)


@dataclass(frozen=True)
class RobotState:
    tool_pos: Vec3
    workspace: Aabb  # reachable targets; config.build_robot builds it from the crop window
    velocity_scale: float = 0.5
    max_speed: float = 0.1
    home: Vec3 = DEFAULT_HOME

    def __post_init__(self):
        if not 0.0 < self.velocity_scale <= 1.0:
            raise ValueError(f"velocity_scale must be in (0, 1], got {self.velocity_scale}")
        if self.max_speed <= 0:
            raise ValueError(f"max_speed must be > 0, got {self.max_speed}")
        if not self.workspace.contains(self.home):
            h, lo, hi = self.home, self.workspace.min, self.workspace.max
            raise ValueError(
                f"home ({h.x:g}, {h.y:g}, {h.z:g}) must lie within the workspace"
                f" [{lo.x:g}, {hi.x:g}] x [{lo.y:g}, {hi.y:g}] x [{lo.z:g}, {hi.z:g}] m"
            )


@dataclass(frozen=True)
class MoveRecord:
    from_pos: Vec3
    to_pos: Vec3
    duration: float
    t_start: float
    t_end: float


def robot_move(state: RobotState, target: Vec3, clock: float) -> tuple[RobotState, MoveRecord]:
    """Blocking straight-line move; returns the new state and its record."""
    if not state.workspace.contains(target):
        raise MotionRejectedError(f"target {target} outside workspace {state.workspace}")
    dur = distance(state.tool_pos, target) / (state.velocity_scale * state.max_speed)
    rec = MoveRecord(state.tool_pos, target, dur, clock, clock + dur)
    return replace(state, tool_pos=target), rec


def compute_z_min(boxes: list[StrawberryBox]) -> float:
    """Descent height: just below the lowest hanging fruit observed."""
    if not boxes:
        raise EmptyInputError("compute_z_min needs at least one box")
    return min(b.box.min.z for b in boxes) - Z_MIN_CLEARANCE


def plan_cycle_waypoints(box: StrawberryBox, z_min_global: float, current: Vec3) -> list[Vec3]:
    """Three per-fruit targets, each changing only the axes of its step.

    Descend to the global minimum height keeping the current x/y, align
    behind and centered on the fruit keeping that height, then ascend to
    just above the fruit keeping the x/y alignment.
    """
    w1 = Vec3(current.x, current.y, z_min_global)
    w2 = Vec3(
        box.box.max.x + X_SAFETY_OFFSET,
        (box.box.min.y + box.box.max.y) / 2.0,
        w1.z,
    )
    w3 = Vec3(w2.x, w2.y, box.box.max.z + Z_SAFETY_OFFSET)
    return [w1, w2, w3]
