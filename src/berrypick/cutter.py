"""Harvesting tool physics: stem trapping, laser cutting, fall detection.

Trapping is a pure step function of the lateral stem offset at groove
height with threshold trapper_width/2. Cutting is a linear energy model:
the laser deposits power * duty joules per second into the stem while the
reciprocating lens sweeps the focal point across it, and the stem severs
once the accumulated energy reaches an area-scaled threshold. The default
energy constant is calibrated so a 3 mm stem under the default 50 W source
severs in 2.3 s; cut time then scales inversely with power. A detached
fruit falls from rest and is reported when it crosses the photo
interrupter beams below the groove; its detection time has a closed form,
so a run finds it once, in O(1), for all its cuts.

A burn depends on nothing but the energy the stem needs, the energy one
timestep adds and the step cap, so it is memoized on those three values:
the stems of one diameter under one laser burn once per process, however
many runs cut them. A hit returns the bits a miss computes, as equal
non-negative floats have equal bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import StateError
from .geometry import Vec3
from .scene import StrawberryTruth

GRAVITY = 9.81

# guards exact-boundary lateral offsets against last-ulp rounding in the
# box midpoint arithmetic; three orders of magnitude below any physical scale
TRAP_EPS = 1e-12

# calibration anchor: 3 mm stem, 50 W, duty 0.5 severs in 2.3 s
DEFAULT_CUT_ENERGY_PER_AREA = 2.3 * 50.0 * 0.5 / (math.pi * 0.0015**2)

# timesteps a laser cut may take, laser_timeout / dt
MAX_TIMESTEPS = 10**7


@dataclass(frozen=True)
class ToolGeometry:
    groove_width: float = 0.035
    trapper_width: float = 0.030
    focal_length: float = 0.25
    lens_stroke: float = 0.006
    interrupter_drop: float = 0.05

    def __post_init__(self):
        for name in ("groove_width", "trapper_width", "focal_length", "lens_stroke", "interrupter_drop"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.trapper_width > self.groove_width:
            raise ValueError("trapper_width must be <= groove_width")


@dataclass(frozen=True)
class CutModel:
    """The laser cut, the config's `cut` section field for field. A null
    `cut_energy_per_area` is `DEFAULT_CUT_ENERGY_PER_AREA`, and a null
    `duty` is derived per stem (`stem_duty`)."""

    laser_power: float = 50.0
    cut_energy_per_area: float | None = None
    duty: float | None = None
    dt: float = 0.01  # simulation timestep, s
    laser_timeout: float = 10.0  # s

    def __post_init__(self):
        if self.laser_power <= 0:
            raise ValueError("laser_power must be positive")
        if self.duty is not None and not 0.0 < self.duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1], got {self.duty}")
        if self.cut_energy_per_area is not None and self.cut_energy_per_area <= 0:
            raise ValueError("cut_energy_per_area must be positive")
        for name in ("dt", "laser_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        # `laser_step` burns up to this many timesteps a cut, so `dt` sets a run's cost
        if self.laser_timeout / self.dt > MAX_TIMESTEPS:
            raise ValueError(
                f"dt must leave laser_timeout / dt at most {MAX_TIMESTEPS:,} timesteps"
                f" (laser_timeout {self.laser_timeout:g} s)"
            )

    @property
    def max_steps(self) -> int:
        """The timesteps a cut burns at most."""
        return int(round(self.laser_timeout / self.dt))

    def stem_duty(self, stem: StrawberryTruth, geom: ToolGeometry) -> float:
        """`duty`, or where it is null the fraction of each lens stroke spent
        crossing the stem cross-section."""
        return min(1.0, stem.stem_diameter / geom.lens_stroke) if self.duty is None else self.duty


@dataclass(frozen=True)
class TrapResult:
    outcome: Literal["trapped", "missed"]
    lateral_error: float


def stem_y_at_height(fruit: StrawberryTruth, z: float) -> float:
    """Lateral stem position at height z, interpolated along the stem line."""
    a = fruit.stem_attach
    b = fruit.stem_top
    if b.z == a.z:
        return a.y
    t = (z - a.z) / (b.z - a.z)
    t = min(1.0, max(0.0, t))
    return a.y + t * (b.y - a.y)


def trap_stem(tool_pos: Vec3, fruit: StrawberryTruth, geom: ToolGeometry) -> TrapResult:
    """Slide the trapper at the current tool pose and report the outcome.

    The stem is caught iff its lateral offset from the groove center is
    within trapper_width/2; a caught stem is forced to the groove center,
    so the fall path starts on the tool axis.
    """
    err = stem_y_at_height(fruit, tool_pos.z) - tool_pos.y
    trapped = abs(err) <= geom.trapper_width / 2.0 + TRAP_EPS
    return TrapResult("trapped" if trapped else "missed", err)


def required_cut_energy(cut: CutModel, stem: StrawberryTruth) -> float:
    """Energy needed to sever the stem, scaled by its cross-section area."""
    per_area = DEFAULT_CUT_ENERGY_PER_AREA if cut.cut_energy_per_area is None else cut.cut_energy_per_area
    return per_area * math.pi * (stem.stem_diameter / 2.0) ** 2


# timesteps one accumulate of `laser_step` sums at most; a longer burn
# runs in chunks of this many until the stem severs
BURN_CHUNK = 4096


def laser_step(cut: CutModel, stem: StrawberryTruth, geom: ToolGeometry) -> tuple[int, float, bool]:
    """Burn the stem at its duty for at most `cut.max_steps` timesteps of
    `cut.dt`, stopping at the first step whose accumulated energy reaches
    `required_cut_energy`; returns (steps burned, energy, severed).

    The energy is, bit for bit, that of adding power * duty * dt once per
    step from zero: `np.add.accumulate` sums in order, and each chunk
    starts from the last one's total. The burn is memoized on (energy
    needed, power * duty * dt, max_steps), its whole input.
    """
    inc = cut.laser_power * cut.stem_duty(stem, geom) * cut.dt
    return _burn(required_cut_energy(cut, stem), inc, cut.max_steps)


@functools.lru_cache(maxsize=256)
def _burn(need: float, inc: float, max_steps: int) -> tuple[int, float, bool]:
    """`laser_step`'s burn: steps of `inc` from zero until the sum reaches
    `need`, for at most `max_steps` steps."""
    steps, acc = 0, 0.0
    # sums past the severing step may overflow to inf, which still sorts at or above need
    with np.errstate(over="ignore"):
        while steps < max_steps:
            burn = np.full(min(max_steps - steps, BURN_CHUNK), inc)
            burn[0] += acc
            burn = np.add.accumulate(burn)
            # the sums never decrease, so this is the first step at or above need
            k = int(np.searchsorted(burn, need))
            if k < len(burn):
                return steps + k + 1, float(burn[k]), True
            steps += len(burn)
            acc = float(burn[-1])
    return steps, acc, False


def free_fall_detect(geom: ToolGeometry, dt: float) -> float:
    """Drop a severed fruit from rest and sample the interrupter at dt.

    Returns the detection time: the first multiple k * dt at which the
    fall 0.5 * g * t * t reaches interrupter_drop. The search starts at the
    closed form sqrt(2 * interrupter_drop / g) / dt and steps to that k;
    the test never turns false as k grows, so this is the k of sampling
    from t = 0, found in a few steps. Past 2**53 steps, where k * dt no
    longer tells steps apart, the closed form itself is returned. The
    fruit does not enter it, so a run finds it once for all its cuts.
    """
    drop = geom.interrupter_drop
    t_fall = math.sqrt(2.0 * drop / GRAVITY)
    if not t_fall / dt <= 2**53:  # inf for a subnormal dt
        return t_fall
    k = int(t_fall / dt)
    while k > 0 and 0.5 * GRAVITY * ((k - 1) * dt) * ((k - 1) * dt) >= drop:
        k -= 1
    while 0.5 * GRAVITY * (k * dt) * (k * dt) < drop:
        k += 1
    return k * dt


class ToolState:
    """Trapper/laser interlock; all transitions happen on the controller timeline."""

    def __init__(self):
        self.trapper_engaged = False
        self.laser_on = False

    def engage_trap(self) -> None:
        if self.trapper_engaged:
            raise StateError("trapper is already engaged")
        if self.laser_on:
            raise StateError("cannot move the trapper while the laser is on")
        self.trapper_engaged = True

    def set_laser(self, on: bool) -> None:
        if on and not self.trapper_engaged:
            raise StateError("laser requires an engaged trapper")
        self.laser_on = on

    def release_stem(self) -> None:
        if self.laser_on:
            raise StateError("cannot release while the laser is on")
        if not self.trapper_engaged:
            raise StateError("release without a preceding trap")
        self.trapper_engaged = False
